// Command deepsea-sim runs a synthetic workload through a chosen
// strategy and prints a per-query trace: how each query was answered,
// what was materialized, and what was evicted. It is the quickest way to
// watch DeepSea's progressive partitioning in action.
//
// Usage:
//
//	deepsea-sim -strategy DS -queries 30 -selectivity 0.01 -skew H
//	deepsea-sim -strategy E-15 -gb 100 -pool 10GB -template Q5
//
// Strategies: H (vanilla), NP, DS (default), DS-H (horizontal), NR,
// E-<k> (equi-depth), N (Nectar selection), N+ (Nectar+).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"deepsea/internal/bench"
	"deepsea/internal/core"
	"deepsea/internal/server"
	"deepsea/internal/workload"
)

func main() {
	strategy := flag.String("strategy", "DS", "H | NP | DS | DS-H | NR | E-<k> | N | N+")
	gb := flag.Int64("gb", 100, "modelled instance size in GB")
	nq := flag.Int("queries", 30, "number of queries")
	selectivity := flag.Float64("selectivity", 0.01, "selection range as a fraction of the item_sk domain")
	skewFlag := flag.String("skew", "H", "U (uniform) | L (light) | H (heavy) midpoint skew")
	template := flag.String("template", "Q30", "query template (Q1,Q5,Q7,Q9,Q12,Q16,Q20,Q26,Q29,Q30)")
	pool := flag.String("pool", "", "pool size limit, e.g. 10GB (empty = unlimited)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	cfg, err := parseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *pool != "" {
		smax, err := server.ParseBytes(*pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Smax = smax
	}

	var skew workload.Skew
	switch strings.ToUpper(*skewFlag) {
	case "U":
		skew = workload.Uniform
	case "L":
		skew = workload.Light
	case "H":
		skew = workload.Heavy
	default:
		fmt.Fprintf(os.Stderr, "unknown -skew %q\n", *skewFlag)
		os.Exit(2)
	}
	tpl, err := parseTemplate(*template)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancels the context: the in-flight query unwinds
	// promptly (locks released) and the partial summary
	// still prints.
	ctx, stop := server.SignalContext(context.Background())
	defer stop()

	fmt.Printf("generating %d GB instance...\n", *gb)
	data := workload.Generate(*gb, *seed, nil)
	rng := rand.New(rand.NewSource(*seed + 1))
	ranges := workload.Ranges(*nq, *selectivity, skew, workload.ItemSkDomain(), rng)

	d := core.New(cfg)
	for _, t := range data.Tables {
		d.AddBaseTable(t)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\trange\tsim s\tanswered from\tfrags\tgaps\tmaterialized\tevicted\tpool")
	var total float64
	interrupted := false
	ran := 0
	for i, iv := range ranges {
		rep, err := d.ProcessQueryContext(ctx, data.Query(tpl, iv))
		if errors.Is(err, context.Canceled) {
			interrupted = true
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ran++
		total += rep.TotalSeconds
		src := "base tables"
		if rep.Rewritten {
			src = "view"
		}
		fmt.Fprintf(tw, "%s_%d\t%s\t%.1f\t%s\t%d\t%d\t%dv+%df\t%d\t%s\n",
			tpl, i+1, iv, rep.TotalSeconds, src,
			rep.FragmentsRead, rep.RemainderGaps,
			len(rep.MaterializedViews), len(rep.MaterializedFrags),
			len(rep.Evicted), fmtBytes(d.Pool.TotalSize()))
	}
	tw.Flush()
	if interrupted {
		fmt.Printf("\ninterrupted: total simulated time %.0f s over %d of %d queries (strategy %s)\n",
			total, ran, *nq, *strategy)
		os.Exit(130)
	}
	fmt.Printf("\ntotal simulated time: %.0f s over %d queries (strategy %s)\n", total, *nq, *strategy)
}

func parseStrategy(s string) (core.Config, error) {
	switch strings.ToUpper(s) {
	case "H":
		return bench.HiveCfg(), nil
	case "NP":
		return bench.NPCfg(), nil
	case "DS":
		return bench.DSCfg(), nil
	case "DS-H":
		return bench.DSHorizontalCfg(), nil
	case "NR":
		return bench.NRCfg(), nil
	case "N":
		return bench.NectarCfg(), nil
	case "N+":
		return bench.NectarPlusCfg(), nil
	}
	if k, ok := strings.CutPrefix(strings.ToUpper(s), "E-"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n < 1 {
			return core.Config{}, fmt.Errorf("bad equi-depth strategy %q", s)
		}
		return bench.EquiDepthCfg(n), nil
	}
	return core.Config{}, fmt.Errorf("unknown strategy %q", s)
}

func parseTemplate(s string) (workload.Template, error) {
	for _, t := range workload.AllTemplates {
		if strings.EqualFold(t.String(), s) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown template %q", s)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.0fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
