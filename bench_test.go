package deepsea_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 10). Each benchmark runs its experiment at
// CI scale (bench.Short) and reports the paper's headline quantity as a
// custom metric; `go test -bench . -benchtime 1x -v` additionally prints
// the full result tables. Run `cmd/deepsea-bench -params full` for the
// paper-scale versions.

import (
	"io"
	"os"
	"testing"

	"deepsea/internal/bench"
)

// benchOut returns where experiment tables go: stdout under -v, else
// discarded (the metrics still report).
func benchOut(b *testing.B) io.Writer {
	b.Helper()
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

func runExperiment(b *testing.B, id string) bench.Printable {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var res bench.Printable
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Run(bench.Short())
		if err != nil {
			b.Fatal(err)
		}
	}
	res.Print(benchOut(b))
	return res
}

// BenchmarkFig1SDSSHistogram regenerates Figure 1: the multi-modal
// histogram of selection ranges in the (synthetic) SDSS trace.
func BenchmarkFig1SDSSHistogram(b *testing.B) {
	res := runExperiment(b, "fig1").(*bench.Fig1Result)
	b.ReportMetric(res.Hist.Total(), "hits")
}

// BenchmarkFig2SDSSEvolution regenerates Figure 2: the evolving
// selection-range midpoints over the query sequence.
func BenchmarkFig2SDSSEvolution(b *testing.B) {
	res := runExperiment(b, "fig2").(*bench.Fig2Result)
	b.ReportMetric(float64(len(res.Windows)), "windows")
}

// BenchmarkTable1ParameterSweep exercises the full Table 1 grid
// (pool size x selectivity x skew) under DeepSea.
func BenchmarkTable1ParameterSweep(b *testing.B) {
	res := runExperiment(b, "tab1").(*bench.Tab1Result)
	b.ReportMetric(float64(len(res.Rows)), "cells")
}

// BenchmarkFig5aOverall regenerates Figure 5a: DeepSea vs
// non-partitioned materialization vs vanilla Hive on the SDSS-modelled
// workload. Reports DS elapsed time as a percentage of Hive's.
func BenchmarkFig5aOverall(b *testing.B) {
	res := runExperiment(b, "fig5a").(*bench.Fig5aResult)
	var hive, ds float64
	for _, a := range res.Arms {
		switch a.Name {
		case "H":
			hive = a.Total()
		case "DS":
			ds = a.Total()
		}
	}
	b.ReportMetric(ds/hive*100, "DS_pct_of_Hive")
}

// BenchmarkFig5bSelectionStrategies regenerates Figure 5b: Nectar vs
// Nectar+ vs DeepSea across pool-size limits. Reports DS/N elapsed at
// the 10% pool.
func BenchmarkFig5bSelectionStrategies(b *testing.B) {
	res := runExperiment(b, "fig5b").(*bench.Fig5bResult)
	b.ReportMetric(res.Totals["DS"][1]/res.Totals["N"][1], "DS_over_N_at_10pct")
}

// BenchmarkFig6aCreationCost regenerates Figure 6a: instrumented view
// creation cost for DS and E-6..E-60. Reports the E-60/DS creation ratio
// (creation grows with fragment count).
func BenchmarkFig6aCreationCost(b *testing.B) {
	res := runExperiment(b, "fig6").(*bench.Fig6Result)
	b.ReportMetric(res.Creation(res.Arms[4])/res.Creation(res.Arms[0]), "E60_over_DS_create")
}

// BenchmarkFig6bReuseTime regenerates Figure 6b: the average time of the
// reusing queries Q30_2..n. Reports the E-6/DS reuse ratio (same
// fragment count, adaptive boundaries win).
func BenchmarkFig6bReuseTime(b *testing.B) {
	res := runExperiment(b, "fig6").(*bench.Fig6Result)
	b.ReportMetric(res.AvgReuse(res.Arms[1])/res.AvgReuse(res.Arms[0]), "E6_over_DS_reuse")
}

// BenchmarkFig6cCumulative regenerates Figure 6c: cumulative workload
// time per arm. Reports DS's cumulative seconds.
func BenchmarkFig6cCumulative(b *testing.B) {
	res := runExperiment(b, "fig6").(*bench.Fig6Result)
	b.ReportMetric(res.Arms[0].Total(), "DS_cumulative_s")
}

// BenchmarkFig7aSelectivitySkew regenerates Figure 7a: projected
// 100-query time as a fraction of Hive across the 9 selectivity x skew
// settings. Reports DS's fraction under heavy skew, small selectivity.
func BenchmarkFig7aSelectivitySkew(b *testing.B) {
	res := runExperiment(b, "fig7").(*bench.Fig7Result)
	b.ReportMetric(res.Projection["DS"][8], "DS_SH_frac_of_Hive")
}

// BenchmarkFig7bRecoupPoint regenerates Figure 7b: queries needed to
// recoup the materialization cost. Reports DS's recoup point averaged
// over the settings.
func BenchmarkFig7bRecoupPoint(b *testing.B) {
	res := runExperiment(b, "fig7").(*bench.Fig7Result)
	var sum float64
	for _, v := range res.Recoup["DS"] {
		sum += float64(v)
	}
	b.ReportMetric(sum/float64(len(res.Recoup["DS"])), "DS_recoup_queries")
}

// BenchmarkFig8aCorrelationNormal regenerates Figure 8a: DeepSea's
// MLE-smoothed fragment selection vs Nectar (and the raw-hits ablation)
// under a 7 GB pool. Reports DS/DS-raw final cumulative time (the
// correlation model's gain).
func BenchmarkFig8aCorrelationNormal(b *testing.B) {
	res := runExperiment(b, "fig8a").(*bench.Fig8aResult)
	ds := res.Arms[1].Total()
	raw := res.Arms[2].Total()
	b.ReportMetric(ds/raw, "DS_over_raw")
}

// BenchmarkFig8bCorrelationZipf regenerates Figure 8b: the same
// comparison under Zipf-distributed selections — DS must not lose.
// Reports DS/N at the middle pool size.
func BenchmarkFig8bCorrelationZipf(b *testing.B) {
	res := runExperiment(b, "fig8b").(*bench.Fig8bResult)
	b.ReportMetric(res.Totals["DS"][1]/res.Totals["N"][1], "DS_over_N")
}

// BenchmarkFig9Overlapping regenerates Figure 9: overlapping vs
// horizontal partitioning over the 20k/40k/60k shifting workload.
// Reports overlapping/horizontal final cumulative time (< 1 means
// overlap wins).
func BenchmarkFig9Overlapping(b *testing.B) {
	res := runExperiment(b, "fig9").(*bench.Fig9Result)
	b.ReportMetric(res.Overlapping.Total()/res.Horizontal.Total(), "overlap_over_horizontal")
}

// BenchmarkFig10aAdaptation regenerates Figure 10a: post-shift elapsed
// time for NP, E-5, NR and DS. Reports DS/NP on the post-shift tail.
func BenchmarkFig10aAdaptation(b *testing.B) {
	res := runExperiment(b, "fig10").(*bench.Fig10Result)
	var np, ds float64
	for _, a := range res.Arms {
		switch a.Name {
		case "NP":
			np = res.TailTotal(a)
		case "DS":
			ds = res.TailTotal(a)
		}
	}
	b.ReportMetric(ds/np, "DS_over_NP_tail")
}

// BenchmarkFig10bAdaptationRatio regenerates Figure 10b: the DS/NR
// cumulative ratio after the shift. Reports the final ratio (declining
// toward and below 1 as repartitioning amortizes).
func BenchmarkFig10bAdaptationRatio(b *testing.B) {
	res := runExperiment(b, "fig10").(*bench.Fig10Result)
	ratio := res.Ratio()
	b.ReportMetric(ratio[len(ratio)-1], "final_DS_over_NR")
}

// BenchmarkAblation runs the design-choice ablation (guards, by-product
// pricing, MLE smoothing, overlap, merging) and reports the full system's
// advantage over the weakest ablated arm.
func BenchmarkAblation(b *testing.B) {
	res := runExperiment(b, "ablation").(*bench.AblationResult)
	full := res.Arms[0].Total()
	worst := full
	for _, a := range res.Arms[1:] {
		if a.Total() > worst {
			worst = a.Total()
		}
	}
	b.ReportMetric(worst/full, "worst_over_full")
}

// BenchmarkSensitivity reruns the Figure 6 comparison under perturbed
// cost models and reports how many of them preserve DeepSea's win — the
// robustness check for the simulated cost model.
func BenchmarkSensitivity(b *testing.B) {
	res := runExperiment(b, "sensitivity").(*bench.SensitivityResult)
	wins := 0
	for _, row := range res.Rows {
		if row.DSWins {
			wins++
		}
	}
	b.ReportMetric(float64(wins)/float64(len(res.Rows)), "DS_win_fraction")
}
