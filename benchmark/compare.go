package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// metricSpec is one end-to-end metric: which way is better, and the
// share of the base median by which it may get worse before -compare
// calls it a regression. The gated ones are the end_to_end list of
// BENCHMARK.json and every workload reports them. The others keep the
// issue's bounds, are reported by the workloads they apply to, and on
// the reference host mostly read "unresolved": no timing repeated there
// within the 25% a bound in BENCHMARK.json may be (README.md,
// "Steadiness").
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Gated  bool    `json:"-"`
}

// endToEnd is every end-to-end metric the timed run measures. Failures
// are not in the list: they are the result's failed over attempted.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, true},
	{"query_qps", "ops/s", "higher", 0.10, false},
	{"query_p50_ms", "ms", "lower", 0.10, false},
	{"query_p95_ms", "ms", "lower", 0.20, false},
	{"open_p50_ms", "ms", "lower", 0.10, false},
	{"open_p95_ms", "ms", "lower", 0.20, false},
	{"append_p50_ms", "ms", "lower", 0.15, false},
	{"append_rows_per_s", "rows/s", "higher", 0.10, false},
	{"recover_s", "s", "lower", 0.25, false},
	{"peak_rss_mb", "MB", "lower", 0.25, true},
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runRecord is one child run as -out stores it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Host struct {
		NumCPU    int    `json:"nproc"`
		GoVersion string `json:"go"`
	} `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// child runs one workload in its own process — a re-exec of this
// binary — so peak RSS, GC state and the scheduler are per workload.
// The context kills it on SIGINT.
func child(ctx context.Context, name string, seed int64, secs float64, trace int, outDir string, serial bool) (*result, error) {
	cmd := exec.CommandContext(ctx, os.Args[0],
		"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--outdir", outDir,
		"--ungated", "--serial="+strconv.FormatBool(serial))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line of output: %w", name, seed, err)
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method (Python's statistics.quantiles(v, n=4)); with a
// single value all three are that value.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		i := int(math.Floor(pos))
		switch {
		case i < 1:
			i = 1
		case i > len(s)-1:
			i = len(s) - 1
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runAll runs every workload repeat times with tracing off (seeds seed,
// seed+1, ...) and once traced, prints every metric by name with its
// unit — median and quartiles when repeated, flagging any end-to-end
// metric whose spread exceeds its bound — and optionally writes the
// runs to outDir/out. It returns the process's exit code: non-zero if
// any run failed or any operation did.
func runAll(ctx context.Context, seed int64, secs float64, repeat int, outDir, out string, serial bool) int {
	file := runFile{Seconds: secs}
	file.Host.NumCPU, file.Host.GoVersion = runtime.NumCPU(), runtime.Version()
	code := 0
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			n := repeat
			if trace == 1 {
				n = 1
			}
			for r := 0; r < n; r++ {
				res, err := child(ctx, w.name, seed+int64(r), secs, trace, outDir, serial)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct {
					code = 1
				}
				file.Runs = append(file.Runs, runRecord{Workload: w.name, Seed: seed + int64(r), Trace: trace, Result: res})
			}
		}
		printWorkload(&file, w.name)
	}
	if out != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(outDir, filepath.Base(out)), b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// values collects one metric's values over a workload's runs.
func (f *runFile) values(workload string, trace int, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// printWorkload prints one workload's runs: the end-to-end metrics it
// reports, then the traced run's per-layer metrics by name.
func printWorkload(f *runFile, name string) {
	attempted, failed := 0, 0
	layers := make(map[string]string) // per-layer metric -> unit
	for _, r := range f.Runs {
		if r.Workload != name {
			continue
		}
		attempted += r.Result.Attempted
		failed += r.Result.Failed
		if r.Trace == 1 {
			for n, m := range r.Result.Metrics {
				layers[n] = m.Unit
			}
		}
	}
	fmt.Printf("== %s: %d operations attempted, %d failed (fail_ratio %g)\n", name, attempted, failed, float64(failed)/float64(attempted))
	for _, m := range endToEnd {
		v := f.values(name, 0, m.Name)
		if len(v) == 0 {
			continue // does not apply to this workload
		}
		q1, med, q3 := quartiles(v)
		line := fmt.Sprintf("  %-32s %14.4f %-7s", m.Name, med, m.Unit)
		if len(v) > 1 {
			spread := (q3 - q1) / med
			line += fmt.Sprintf(" q1 %.4f q3 %.4f spread %.3f", q1, q3, spread)
			if spread > m.Bound {
				line += fmt.Sprintf("  SPREAD EXCEEDS BOUND %.2f", m.Bound)
			}
		}
		fmt.Println(line)
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %-7s\n", n, f.values(name, 1, n)[0], layers[n])
	}
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the second as a ratio of the first, and a verdict. A metric
// whose run-to-run spread on either side is wider than its bound is
// unresolved, not unchanged; otherwise it regressed if the second
// median is worse than the first by more than the bound.
func compareFiles(a, b string) int {
	var fa, fb runFile
	for path, f := range map[string]*runFile{a: &fa, b: &fb} {
		if err := readJSON(path, f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	fmt.Printf("%-15s %-18s %14s %14s %16s  %s\n", "workload", "metric", "base median", "new median", "new/base", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := fa.values(w.name, 0, m.Name), fb.values(w.name, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := verdictFor(m, va, vb)
			if verdict == "regressed" {
				code = 1
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Printf("%-15s %-18s %14.4f %14.4f %9.3f of base  %s\n", w.name, m.Name, ma, mb, mb/ma, verdict)
		}
	}
	return code
}

func verdictFor(m metricSpec, base, change []float64) string {
	q1a, ma, q3a := quartiles(base)
	q1b, mb, q3b := quartiles(change)
	if (q3a-q1a)/ma > m.Bound || (q3b-q1b)/mb > m.Bound {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "ok"
}
