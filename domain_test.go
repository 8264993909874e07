package deepsea_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"deepsea"
	"deepsea/internal/workload"
)

// domainSystem builds the quickstart shape — sales ⋈ product on an
// ordered item key, grouped by category — over the item domain [lo, hi].
func domainSystem(t *testing.T, lo, hi int64, opts ...deepsea.Option) *deepsea.System {
	t.Helper()
	s := deepsea.New(opts...)
	s.MustCreateTable(deepsea.TableDef{
		Name: "sales",
		Columns: []deepsea.ColumnDef{
			{Name: "item", Kind: deepsea.Int, Ordered: true, Lo: lo, Hi: hi, Width: 1 << 18},
			{Name: "amount", Kind: deepsea.Float, Width: 1 << 18},
			{Name: "pad", Kind: deepsea.String, Width: 1 << 21},
		},
	})
	s.MustCreateTable(deepsea.TableDef{
		Name: "product",
		Columns: []deepsea.ColumnDef{
			{Name: "p_item", Kind: deepsea.Int, Ordered: true, Lo: lo, Hi: hi, Width: 1 << 16},
			{Name: "p_category", Kind: deepsea.String, Width: 1 << 16},
		},
	})
	n := hi - lo + 1
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		s.MustInsert("sales", []any{lo + rng.Int63n(n), float64(rng.Intn(100)) + 0.5, ""})
	}
	cats := []string{"a", "b", "c"}
	for i := int64(0); i < n; i += 7 {
		s.MustInsert("product", []any{lo + i, cats[i%3]})
	}
	return s
}

func domainQuery(lo, hi int64) *deepsea.Query {
	return deepsea.Scan("sales").
		Join(deepsea.Scan("product"), "item", "p_item").
		Select("item", "p_category", "amount").
		Where("item", lo, hi).
		GroupBy("p_category").
		Agg(deepsea.Count("n"), deepsea.Sum("amount", "total"))
}

// TestOrderedDomainMustBeRepresentable holds the boundary of the
// interval algebra (closed intervals with Lo <= Hi < MaxInt64): an
// ordered domain outside it is a CreateTable error, one at its edge
// answers every range like the engine without materialization, and
// query ranges reaching past a domain's ends are clipped to it.
func TestOrderedDomainMustBeRepresentable(t *testing.T) {
	for _, dom := range []struct {
		name   string
		lo, hi int64
	}{
		{"inverted", 10, 5},
		{"reaches MaxInt64", math.MaxInt64 - 9999, math.MaxInt64},
	} {
		s := deepsea.New()
		err := s.CreateTable(deepsea.TableDef{Name: "t", Columns: []deepsea.ColumnDef{
			{Name: "k", Kind: deepsea.Int, Ordered: true, Lo: dom.lo, Hi: dom.hi},
		}})
		if err == nil || !strings.HasPrefix(err.Error(), "deepsea: ") {
			t.Errorf("%s domain [%d, %d]: CreateTable error %v, want a deepsea: error", dom.name, dom.lo, dom.hi, err)
		}
	}

	const hi = math.MaxInt64 - 1
	const lo = hi - 10000
	rng := rand.New(rand.NewSource(3))
	type rng64 struct{ lo, hi int64 }
	ranges := []rng64{{lo, hi}, {hi - 500, hi}, {hi, hi}, {lo, lo}, {hi - 2000, math.MaxInt64}}
	for len(ranges) < 60 {
		a, b := lo+rng.Int63n(10001), lo+rng.Int63n(10001)
		ranges = append(ranges, rng64{min(a, b), max(a, b)})
	}
	ref := domainSystem(t, lo, hi, deepsea.WithoutMaterialization())
	for _, strat := range []struct {
		name string
		opt  []deepsea.Option
	}{
		{"default", nil},
		{"equi-depth", []deepsea.Option{deepsea.WithEquiDepthPartitioning(4)}},
		{"horizontal", []deepsea.Option{deepsea.WithHorizontalPartitioning()}},
	} {
		s := domainSystem(t, lo, hi, strat.opt...)
		for _, r := range ranges {
			got, err := s.Run(domainQuery(r.lo, r.hi))
			if err != nil {
				t.Fatalf("%s [%d, %d]: %v", strat.name, r.lo, r.hi, err)
			}
			want, err := ref.Run(domainQuery(r.lo, r.hi))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := propCanon(t, got), propCanon(t, want); g != w {
				t.Fatalf("%s [%d, %d]: got\n%s\nwant\n%s", strat.name, r.lo, r.hi, g, w)
			}
		}
		if s.PoolBytes() == 0 {
			t.Errorf("%s: nothing materialized, so no view answered a range", strat.name)
		}
	}

	// Query ranges past the served item_sk domain [0, 400000] at both ends.
	served := deepsea.New()
	if err := workload.Load(served, propData); err != nil {
		t.Fatal(err)
	}
	servedRef := deepsea.New(deepsea.WithoutMaterialization())
	if err := workload.Load(servedRef, propData); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for _, tpl := range []workload.Template{workload.Q1, workload.Q5, workload.Q7, workload.Q16, workload.Q20, workload.Q29} {
			for _, r := range []rng64{{0, math.MaxInt64}, {math.MinInt64, 100}} {
				got, err := served.Run(workload.BuildQuery(tpl, r.lo, r.hi))
				if err != nil {
					t.Fatalf("round %d %v [%d, %d]: %v", round, tpl, r.lo, r.hi, err)
				}
				want, err := servedRef.Run(workload.BuildQuery(tpl, r.lo, r.hi))
				if err != nil {
					t.Fatal(err)
				}
				if g, w := propCanon(t, got), propCanon(t, want); g != w {
					t.Fatalf("round %d %v [%d, %d]: got\n%s\nwant\n%s", round, tpl, r.lo, r.hi, g, w)
				}
			}
		}
	}
}
