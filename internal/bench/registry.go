package bench

import (
	"fmt"
	"io"
	"sort"
)

// Printable is any experiment result that can render itself.
type Printable interface {
	Print(w io.Writer)
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) (Printable, error)
}

// Experiments lists every reproducible table and figure, in paper order.
var Experiments = []Experiment{
	{"fig1", "Histogram of selection ranges on SDSS", func(p Params) (Printable, error) {
		return RunFig1(p), nil
	}},
	{"fig2", "Evolution of selection ranges on SDSS", func(p Params) (Printable, error) {
		return RunFig2(p), nil
	}},
	{"tab1", "Parameter grid sweep", func(p Params) (Printable, error) {
		return RunTab1(p)
	}},
	{"fig5a", "DS vs NP vs Hive, SDSS-modelled workload", func(p Params) (Printable, error) {
		return RunFig5a(p)
	}},
	{"fig5b", "Selection strategies vs pool size", func(p Params) (Printable, error) {
		return RunFig5b(p)
	}},
	{"fig6", "Equi-depth vs adaptive partitioning", func(p Params) (Printable, error) {
		return RunFig6(p)
	}},
	{"fig7", "Varying selectivity and skew (7a projection, 7b recoup)", func(p Params) (Printable, error) {
		return RunFig7(p)
	}},
	{"fig8a", "Fragment correlations, normal hits", func(p Params) (Printable, error) {
		return RunFig8a(p)
	}},
	{"fig8b", "Fragment correlations, Zipf hits", func(p Params) (Printable, error) {
		return RunFig8b(p)
	}},
	{"fig9", "Overlapping vs horizontal partitioning", func(p Params) (Printable, error) {
		return RunFig9(p)
	}},
	{"fig10", "Adaptation to workload changes (10a, 10b)", func(p Params) (Printable, error) {
		return RunFig10(p)
	}},
	{"ablation", "Design-choice ablation (guards, by-product pricing, MLE, overlap, merging)", func(p Params) (Printable, error) {
		return RunAblation(p)
	}},
	{"sensitivity", "Cost-model sensitivity of the Figure 6 comparison", func(p Params) (Printable, error) {
		return RunSensitivity(p)
	}},
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids sorted.
func IDs() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}

// RunAndPrint runs one experiment and prints its result with a header.
func RunAndPrint(w io.Writer, id string, p Params) error {
	e, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, IDs())
	}
	res, err := e.Run(p)
	if err != nil {
		return fmt.Errorf("bench: %s: %w", id, err)
	}
	fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
	res.Print(w)
	fmt.Fprintln(w)
	return nil
}
