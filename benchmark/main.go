// Command benchmark is the repository's performance baseline: four
// sustained serving workloads driven over loopback HTTP against the
// same wiring cmd/deepsea-serve and cmd/deepsea-shard use, every answer
// checked against an oracle, end-to-end metrics measured with tracing
// off and per-layer metrics from a separate traced run. See README.md.
//
//	benchmark --workload serve_adaptive --seed 1 --seconds 20 --trace 0
//
// prints progress on standard error and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Without --workload it runs all four in child processes; -repeat and
// -compare summarise and compare such runs. BENCHMARK.json passes
// --serial; why is in README.md under "Findings".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"deepsea/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run in this process (default: all four, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of the data and every trace")
	secs := flag.Float64("seconds", 20, "length of the timed phases")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	outDir := flag.String("outdir", filepath.Join("benchmark", "out"), "directory for traces, journals and -out files; nothing is written elsewhere")
	repeat := flag.Int("repeat", 1, "without --workload: runs per workload, seeds seed, seed+1, ...; prints medians and quartiles")
	out := flag.String("out", "", "without --workload: also write the runs as JSON to this file under -outdir")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: benchmark -compare a.json b.json")
	serial := flag.Bool("serial", false, "where a workload appends while it reads, send the appends between reads, not beside them")
	ungated := flag.Bool("ungated", false, "with --workload and --trace 0: also print the end-to-end metrics BENCHMARK.json puts no bound on")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *secs <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds and -repeat must be positive")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// SIGINT/SIGTERM cancel the run: phases stop, children are killed,
	// and every listener, server and journal directory is released.
	ctx, stop := server.SignalContext(context.Background())
	defer stop()

	if *name == "" {
		return runAll(ctx, *seed, *secs, *repeat, *outDir, *out, *serial)
	}
	d := findWorkload(*name)
	if d == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	var res *result
	var err error
	if *trace != 0 {
		res, err = runTraced(ctx, d, *seed, *secs, *outDir)
	} else {
		res, err = runTimed(ctx, d, *seed, *secs, *outDir, setupRounds, *serial)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *trace == 0 && !*ungated {
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; ok && !m.Gated {
				logf("not bounded: %s %.4f %s", m.Name, v.Value, v.Unit)
				delete(res.Metrics, m.Name)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

var started = time.Now()

// logf reports progress on standard error, stamped with seconds since
// the process started.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}
