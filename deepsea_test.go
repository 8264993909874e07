package deepsea

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"deepsea/internal/relation"
)

// newSystem builds a small retail system through the public API.
func newSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	s := New(opts...)
	s.MustCreateTable(TableDef{
		Name: "sales",
		Columns: []ColumnDef{
			{Name: "item", Kind: Int, Ordered: true, Lo: 0, Hi: 999, Width: 1 << 18},
			{Name: "amount", Kind: Float, Width: 1 << 18},
			{Name: "pad", Kind: String, Width: 1 << 21},
		},
	})
	s.MustCreateTable(TableDef{
		Name: "product",
		Columns: []ColumnDef{
			{Name: "p_item", Kind: Int, Ordered: true, Lo: 0, Hi: 999, Width: 1 << 16},
			{Name: "p_category", Kind: String, Width: 1 << 16},
		},
	})
	rng := rand.New(rand.NewSource(1))
	cats := []string{"a", "b", "c"}
	for i := 0; i < 5000; i++ {
		s.MustInsert("sales", []any{rng.Int63n(1000), float64(rng.Intn(100)) + 0.5, ""})
	}
	for i := 0; i < 1000; i++ {
		s.MustInsert("product", []any{int64(i), cats[i%3]})
	}
	return s
}

// salesByCategory is the canonical query shape: aggregate over a range
// selection over a projected join.
func salesByCategory(lo, hi int64) *Query {
	return Scan("sales").
		Join(Scan("product"), "item", "p_item").
		Select("item", "p_category", "amount").
		Where("item", lo, hi).
		GroupBy("p_category").
		Agg(Count("n"), Sum("amount", "total"))
}

func TestQuickstartFlow(t *testing.T) {
	s := newSystem(t)
	rep, err := s.Run(salesByCategory(0, 499))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows()) == 0 {
		t.Fatal("no result rows")
	}
	if got := rep.Columns(); len(got) != 3 || got[0] != "p_category" {
		t.Fatalf("columns = %v", got)
	}
	if rep.SimulatedSeconds() <= 0 {
		t.Error("no simulated time charged")
	}
	// The first query materializes views...
	if len(rep.MaterializedViews) == 0 {
		t.Error("first query materialized nothing")
	}
	// ...which later similar queries reuse, faster.
	rep2, err := s.Run(salesByCategory(100, 400))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Rewritten {
		t.Error("second query not answered from a view")
	}
	if rep2.SimulatedSeconds() >= rep.SimulatedSeconds() {
		t.Errorf("reuse (%.1fs) not faster than first run (%.1fs)",
			rep2.SimulatedSeconds(), rep.SimulatedSeconds())
	}
}

func TestResultsMatchBaselineAcrossStrategies(t *testing.T) {
	baseline := newSystem(t, WithoutMaterialization())
	type key struct{ lo, hi int64 }
	queries := []key{{0, 499}, {200, 300}, {250, 280}, {600, 900}, {100, 400}}
	var want []int
	var wantTotals []float64
	for _, q := range queries {
		rep, err := baseline.Run(salesByCategory(q.lo, q.hi))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, len(rep.Rows()))
		var tot float64
		for _, row := range rep.Rows() {
			tot += row[2].(float64)
		}
		wantTotals = append(wantTotals, tot)
	}
	for _, opts := range [][]Option{
		nil,
		{WithoutPartitioning()},
		{WithEquiDepthPartitioning(4)},
		{WithHorizontalPartitioning()},
		{WithNectarSelection()},
		{WithPoolLimit(1 << 30)},
	} {
		s := newSystem(t, opts...)
		for i, q := range queries {
			rep, err := s.Run(salesByCategory(q.lo, q.hi))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rows()) != want[i] {
				t.Fatalf("opts %d query %d: %d rows, want %d", len(opts), i, len(rep.Rows()), want[i])
			}
			var tot float64
			for _, row := range rep.Rows() {
				tot += row[2].(float64)
			}
			if diff := tot - wantTotals[i]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("opts %d query %d: total %.2f, want %.2f", len(opts), i, tot, wantTotals[i])
			}
		}
	}
}

func TestPoolInspection(t *testing.T) {
	s := newSystem(t)
	if s.PoolBytes() != 0 {
		t.Error("fresh pool not empty")
	}
	if _, err := s.Run(salesByCategory(0, 499)); err != nil {
		t.Fatal(err)
	}
	if s.PoolBytes() == 0 {
		t.Error("pool empty after materializing query")
	}
	if len(s.PoolContents()) == 0 {
		t.Error("PoolContents empty")
	}
	if s.Now() <= 1 {
		t.Error("clock did not advance")
	}
}

func TestCreateTableValidation(t *testing.T) {
	s := New()
	if err := s.CreateTable(TableDef{}); err == nil {
		t.Error("unnamed table accepted")
	}
	def := TableDef{Name: "t", Columns: []ColumnDef{{Name: "a", Kind: Int}}}
	if err := s.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(def); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := s.CreateTable(TableDef{Name: "bad",
		Columns: []ColumnDef{{Name: "x", Kind: String, Ordered: true}}}); err == nil {
		t.Error("ordered string column accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	s := New()
	s.MustCreateTable(TableDef{Name: "t", Columns: []ColumnDef{
		{Name: "a", Kind: Int}, {Name: "b", Kind: Float}, {Name: "c", Kind: String},
	}})
	if err := s.Insert("missing", []any{int64(1)}); err == nil {
		t.Error("insert into unknown table accepted")
	}
	if err := s.Insert("t", []any{int64(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.Insert("t", []any{"x", 1.0, "s"}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := s.Insert("t", []any{7, 1.0, "s"}); err != nil {
		t.Errorf("plain int not coerced: %v", err)
	}
}

// TestInsertAfterStartIsRefused: Insert and InsertRows load a System
// before it serves. Once it has run a query, an Append or
// ApplyRecoveredAppends they are refused with an error naming Append —
// an insert then would change base rows under the views and cached
// results built from them, and only Append keeps those fresh.
func TestInsertAfterStartIsRefused(t *testing.T) {
	row := func(item int64) relation.Row {
		return relation.Row{relation.IntVal(item), relation.FloatVal(2.5), relation.StringVal("")}
	}
	insertBoth := func(s *System, item int64) (error, error) {
		return s.Insert("sales", []any{item, 1.5, ""}), s.InsertRows("sales", []relation.Row{row(item + 1)})
	}
	answer := func(s *System, lo, hi int64) string {
		t.Helper()
		rep, err := s.Run(salesByCategory(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Result.Fingerprint()
	}
	for _, trigger := range []struct {
		name  string
		start func(*System) error
	}{
		{"query", func(s *System) error {
			_, err := s.Run(salesByCategory(0, 499))
			return err
		}},
		{"Append", func(s *System) error {
			_, err := s.Append("sales", [][]any{{int64(270), 3.5, ""}})
			return err
		}},
		{"AppendRows", func(s *System) error {
			_, err := s.AppendRows("sales", []relation.Row{row(280)})
			return err
		}},
		{"ApplyRecoveredAppends", func(s *System) error {
			_, err := s.ApplyRecoveredAppends()
			return err
		}},
	} {
		s := newSystem(t, WithResultCache(64<<20))
		vanilla := newSystem(t, WithoutMaterialization())
		for _, sys := range []*System{s, vanilla} {
			if errI, errR := insertBoth(sys, 250); errI != nil || errR != nil {
				t.Fatalf("%s: insert before start refused: %v, %v", trigger.name, errI, errR)
			}
			if err := trigger.start(sys); err != nil {
				t.Fatalf("%s: %v", trigger.name, err)
			}
		}
		if got, want := answer(s, 100, 400), answer(vanilla, 100, 400); got != want {
			t.Fatalf("%s: answer %s before any refused insert, want %s", trigger.name, got, want)
		}
		errI, errR := insertBoth(s, 300)
		for _, err := range []error{errI, errR} {
			if err == nil {
				t.Fatalf("%s: insert after start accepted", trigger.name)
			}
			if msg := err.Error(); !strings.HasPrefix(msg, "deepsea: ") || !strings.Contains(msg, "Append") {
				t.Errorf("%s: refusal %q is not a deepsea error naming Append", trigger.name, msg)
			}
		}
		if got, want := answer(s, 100, 400), answer(vanilla, 100, 400); got != want {
			t.Errorf("%s: answer %s after refused inserts, want %s", trigger.name, got, want)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	s := newSystem(t)
	if _, err := s.Run(Scan("nope")); err == nil {
		t.Error("scan of unknown table accepted")
	}
	if _, err := s.Run(Scan("sales").Where("item", 10, 5)); err == nil {
		t.Error("inverted range accepted")
	}
}

// TestMalformedQueryIsRejected: every builder resolves the names it is
// given against its input, so a query naming a column its input lacks,
// or one of the wrong type, fails to build — before planning takes the
// manager lock — instead of panicking under it or answering wrongly.
// The system answers a valid query after each rejection.
func TestMalformedQueryIsRejected(t *testing.T) {
	s := newSystem(t)
	for name, q := range map[string]*Query{
		"select missing":           Scan("product").Select("nope"),
		"group by missing":         Scan("product").GroupBy("nope").Agg(Count("n")),
		"where missing":            Scan("product").Where("nope", 0, 10),
		"where on dropped column":  Scan("product").Select("p_category").Where("p_item", 0, 10),
		"where on string":          Scan("product").Where("p_category", 0, 10),
		"where_eq missing":         Scan("product").WhereEq("nope", "a"),
		"where_eq on int":          Scan("product").WhereEq("p_item", "a"),
		"sum over string":          Scan("product").GroupBy().Agg(Sum("p_category", "s")),
		"sum missing":              Scan("product").GroupBy().Agg(Sum("nope", "s")),
		"avg over string":          Scan("product").GroupBy("p_item").Agg(Avg("p_category", "a")),
		"min missing":              Scan("product").GroupBy().Agg(Min("nope", "m")),
		"max missing":              Scan("product").GroupBy().Agg(Max("nope", "m")),
		"join left key missing":    Scan("sales").Join(Scan("product"), "nope", "p_item"),
		"join right key missing":   Scan("sales").Join(Scan("product"), "item", "nope"),
		"join keys differ in type": Scan("sales").Join(Scan("product"), "item", "p_category"),
		"partial over bad agg":     Scan("sales").GroupBy("item").Agg(Sum("pad", "s")).Partial(),
	} {
		if _, err := s.TemplateKey(q); err == nil || !strings.HasPrefix(err.Error(), "deepsea: ") {
			t.Errorf("%s: TemplateKey error %v, want a deepsea: error", name, err)
		}
		if _, err := s.Run(q); err == nil || !strings.HasPrefix(err.Error(), "deepsea: ") {
			t.Errorf("%s: Run error %v, want a deepsea: error", name, err)
		}
		if rep, err := s.Run(salesByCategory(0, 499)); err != nil || len(rep.Rows()) == 0 {
			t.Fatalf("after %s: valid query answered %d rows, error %v", name, len(rep.Rows()), err)
		}
	}
}

func TestMinMaxAvgAggregates(t *testing.T) {
	s := newSystem(t)
	q := Scan("sales").
		Join(Scan("product"), "item", "p_item").
		Select("item", "p_category", "amount").
		Where("item", 0, 999).
		GroupBy("p_category").
		Agg(Min("amount", "lo"), Max("amount", "hi"), Avg("amount", "mean"))
	rep, err := s.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows() {
		lo, hi, mean := row[1].(float64), row[2].(float64), row[3].(float64)
		if !(lo <= mean && mean <= hi) {
			t.Fatalf("aggregate ordering violated: lo=%g mean=%g hi=%g", lo, mean, hi)
		}
	}
}

func TestWhereEqResidual(t *testing.T) {
	s := newSystem(t)
	q := Scan("product").WhereEq("p_category", "a").
		GroupBy("p_category").Agg(Count("n"))
	rep, err := s.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows()
	if len(rows) != 1 || rows[0][0].(string) != "a" {
		t.Fatalf("rows = %v", rows)
	}
	// ceil(1000/3) items in category "a".
	if rows[0][1].(int64) != 334 {
		t.Errorf("count = %v, want 334", rows[0][1])
	}
}

func TestRunContextCancellation(t *testing.T) {
	s := newSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, salesByCategory(0, 499)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext = %v, want context.Canceled", err)
	}
	// The system is untouched and fully usable.
	rep, err := s.Run(salesByCategory(0, 499))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows()) == 0 {
		t.Fatal("no result rows after cancelled run")
	}
}

func TestFaultInjectionDegradesGracefully(t *testing.T) {
	baseline := newSystem(t, WithoutMaterialization())
	want, err := baseline.Run(salesByCategory(0, 499))
	if err != nil {
		t.Fatal(err)
	}

	// Every stored read fails: after the first query materializes views,
	// later queries must quarantine them and fall back to base tables,
	// returning the same answer.
	s := newSystem(t, WithFaultInjection(FaultConfig{Seed: 7, StorageRead: 1}), WithFaultRetries(64))
	if _, err := s.Run(salesByCategory(0, 499)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(salesByCategory(0, 499))
	if err != nil {
		t.Fatalf("query did not degrade to base tables: %v", err)
	}
	if len(rep.Rows()) != len(want.Rows()) {
		t.Fatalf("degraded answer has %d rows, baseline %d", len(rep.Rows()), len(want.Rows()))
	}
	if rep.Retries == 0 && len(rep.Quarantined) == 0 {
		t.Error("fault injection never fired; test proves nothing")
	}
}
