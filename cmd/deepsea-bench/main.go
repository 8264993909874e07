// Command deepsea-bench regenerates the tables and figures of the
// DeepSea paper's evaluation (Section 10).
//
// Usage:
//
//	deepsea-bench -experiment all                # every experiment, CI scale
//	deepsea-bench -experiment fig5a -params full # one experiment, paper scale
//	deepsea-bench -list                          # enumerate experiment ids
//
// Paper scale runs the published instance sizes and query counts
// (hundreds of GB modelled, 1000-query workloads) and takes a few
// minutes; short scale shrinks both ~5x while preserving result shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"deepsea/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
	params := flag.String("params", "short", "\"short\" (CI scale) or \"full\" (paper scale)")
	seed := flag.Int64("seed", 1, "random seed for data and workload generation")
	parallelism := flag.Int("parallelism", 0, "engine data-path workers (0 = GOMAXPROCS, 1 = sequential); results are identical for every setting")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	bench.SetDefaultParallelism(*parallelism)

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var p bench.Params
	switch *params {
	case "short":
		p = bench.Short()
	case "full":
		p = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown -params %q (want short or full)\n", *params)
		os.Exit(2)
	}
	p.Seed = *seed

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = ids[:0]
		for _, e := range bench.Experiments {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		if err := bench.RunAndPrint(os.Stdout, id, p); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
