package query

import (
	"strings"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/relation"
)

func factSchema() relation.Schema {
	return relation.Schema{Name: "fact", Cols: []relation.Column{
		{Name: "f_key", Type: relation.Int, Ordered: true, Lo: 0, Hi: 99},
		{Name: "f_val", Type: relation.Float},
		{Name: "f_date", Type: relation.Int, Ordered: true, Lo: 0, Hi: 364},
	}}
}

func dimSchema() relation.Schema {
	return relation.Schema{Name: "dim", Cols: []relation.Column{
		{Name: "d_key", Type: relation.Int, Ordered: true, Lo: 0, Hi: 99},
		{Name: "d_name", Type: relation.String},
	}}
}

func testPlan() Node {
	return &Aggregate{
		Child: &Select{
			Child: &Project{
				Child: &Join{
					Left:  NewScan("fact", factSchema()),
					Right: NewScan("dim", dimSchema()),
					LCol:  "f_key",
					RCol:  "d_key",
				},
				Cols: []string{"f_key", "d_name", "f_val"},
			},
			Ranges: []RangePred{{Col: "f_key", Iv: interval.New(10, 20)}},
		},
		GroupBy: []string{"d_name"},
		Aggs:    []AggSpec{{Func: Sum, Col: "f_val", As: "total"}},
	}
}

func TestSchemaDerivation(t *testing.T) {
	plan := testPlan().(*Aggregate)
	join := plan.Child.(*Select).Child.(*Project).Child.(*Join)
	js := join.Schema()
	if len(js.Cols) != 5 {
		t.Errorf("join schema has %d cols, want 5", len(js.Cols))
	}
	ps := plan.Child.(*Select).Child.Schema()
	if len(ps.Cols) != 3 || ps.Cols[1].Name != "d_name" {
		t.Errorf("project schema = %v", ps)
	}
	as := plan.Schema()
	if len(as.Cols) != 2 || as.Cols[0].Name != "d_name" || as.Cols[1].Name != "total" {
		t.Errorf("aggregate schema = %v", as)
	}
	if as.Cols[1].Type != relation.Float {
		t.Errorf("sum output type = %v, want Float", as.Cols[1].Type)
	}
}

// TestColumnTypeMatchesSchema: at every node of a plan, ColumnType
// finds exactly the columns Schema() lists, with Schema()'s types, and
// nothing else — a column a projection dropped is gone above it.
func TestColumnTypeMatchesSchema(t *testing.T) {
	plan := testPlan()
	partial := *plan.(*Aggregate)
	partial.Partial = true
	for _, root := range []Node{plan, &partial} {
		Walk(root, func(n Node) {
			schema := n.Schema()
			for _, want := range schema.Cols {
				if got, ok := ColumnType(n, want.Name); !ok || got != want.Type {
					t.Errorf("%s: ColumnType(%q) = %v, %v; want %v", n, want.Name, got, ok, want.Type)
				}
			}
			for _, name := range []string{"f_date", "nope"} {
				if _, ok := ColumnType(n, name); ok != schema.Has(name) {
					t.Errorf("%s: ColumnType(%q) found = %v, schema has it = %v", n, name, ok, schema.Has(name))
				}
			}
		})
	}
}

func TestAggOutputTypes(t *testing.T) {
	base := NewScan("fact", factSchema())
	agg := &Aggregate{Child: base, GroupBy: nil, Aggs: []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Col: "f_key", As: "s"},
		{Func: Avg, Col: "f_val", As: "a"},
		{Func: Min, Col: "f_key", As: "mn"},
		{Func: Max, Col: "f_val", As: "mx"},
	}}
	s := agg.Schema()
	want := []relation.Type{relation.Int, relation.Float, relation.Float, relation.Int, relation.Float}
	for i, w := range want {
		if s.Cols[i].Type != w {
			t.Errorf("agg col %d type = %v, want %v", i, s.Cols[i].Type, w)
		}
	}
}

func TestCanonicalStringDeterministic(t *testing.T) {
	a := testPlan().String()
	b := testPlan().String()
	if a != b {
		t.Error("identical plans render differently")
	}
	if !strings.Contains(a, "10<=f_key<=20") {
		t.Errorf("range predicate missing from %q", a)
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	var kinds []string
	Walk(testPlan(), func(n Node) {
		switch n.(type) {
		case *Aggregate:
			kinds = append(kinds, "agg")
		case *Select:
			kinds = append(kinds, "sel")
		case *Project:
			kinds = append(kinds, "proj")
		case *Join:
			kinds = append(kinds, "join")
		case *Scan:
			kinds = append(kinds, "scan")
		}
	})
	want := []string{"agg", "sel", "proj", "join", "scan", "scan"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("walk order = %v, want %v", kinds, want)
	}
}

func TestCandidateNodesSkipsFusedJoin(t *testing.T) {
	cands := CandidateNodes(testPlan())
	// The join sits under a projection, so candidates are the aggregate
	// and the projection only.
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	if _, ok := cands[0].(*Aggregate); !ok {
		t.Error("first candidate not the aggregate")
	}
	if _, ok := cands[1].(*Project); !ok {
		t.Error("second candidate not the projection")
	}
	// A bare join (no projection parent) IS a candidate.
	bare := &Join{Left: NewScan("fact", factSchema()), Right: NewScan("dim", dimSchema()),
		LCol: "f_key", RCol: "d_key"}
	if got := CandidateNodes(bare); len(got) != 1 {
		t.Errorf("bare join candidates = %d, want 1", len(got))
	}
}

func TestBaseTables(t *testing.T) {
	got := BaseTables(testPlan())
	if len(got) != 2 || got[0] != "fact" || got[1] != "dim" {
		t.Errorf("BaseTables = %v", got)
	}
}

func TestReplaceSwapsSubtree(t *testing.T) {
	plan := testPlan().(*Aggregate)
	target := plan.Child.(*Select).Child // the projection
	repl := NewScan("other", dimSchema())
	out := Replace(plan, target, repl)
	if Contains(out, target) {
		t.Error("target still present after Replace")
	}
	if !Contains(out, repl) {
		t.Error("replacement not present")
	}
	// The original plan is untouched.
	if !Contains(plan, target) {
		t.Error("Replace mutated the original plan")
	}
}

func TestReplacePanicsOnMissingTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Replace with absent target did not panic")
		}
	}()
	Replace(testPlan(), NewScan("ghost", dimSchema()), NewScan("x", dimSchema()))
}

func TestCmpPredEval(t *testing.T) {
	tests := []struct {
		p    CmpPred
		v    relation.Value
		want bool
	}{
		{CmpPred{Col: "a", Op: Eq, Val: relation.IntVal(5), Typ: relation.Int}, relation.IntVal(5), true},
		{CmpPred{Col: "a", Op: Ne, Val: relation.IntVal(5), Typ: relation.Int}, relation.IntVal(5), false},
		{CmpPred{Col: "a", Op: Lt, Val: relation.FloatVal(1.5), Typ: relation.Float}, relation.FloatVal(1.0), true},
		{CmpPred{Col: "a", Op: Ge, Val: relation.FloatVal(1.5), Typ: relation.Float}, relation.FloatVal(1.0), false},
		{CmpPred{Col: "a", Op: Gt, Val: relation.StringVal("m"), Typ: relation.String}, relation.StringVal("z"), true},
		{CmpPred{Col: "a", Op: Le, Val: relation.StringVal("m"), Typ: relation.String}, relation.StringVal("m"), true},
	}
	for i, tt := range tests {
		if got := tt.p.Eval(tt.v); got != tt.want {
			t.Errorf("case %d: Eval = %v, want %v", i, got, tt.want)
		}
	}
}

func TestViewScanStringMentionsParts(t *testing.T) {
	vs := &ViewScan{
		ViewID:     "v1",
		ViewSchema: dimSchema(),
		PartAttr:   "d_key",
		FragIDs:    []string{"f/a"},
		Reads:      []interval.Interval{interval.New(0, 5)},
		CompRanges: []RangePred{{Col: "d_key", Iv: interval.New(0, 5)}},
	}
	s := vs.String()
	for _, want := range []string{"v1", "f/a", "0<=d_key<=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("ViewScan string %q missing %q", s, want)
		}
	}
}

func TestReplaceInsideViewScanRemainder(t *testing.T) {
	inner := NewScan("fact", factSchema())
	vs := &ViewScan{
		ViewID:     "v",
		ViewSchema: factSchema(),
		Remainders: []Node{&Select{Child: inner,
			Ranges: []RangePred{{Col: "f_key", Iv: interval.New(0, 5)}}}},
	}
	repl := NewScan("other", factSchema())
	out := Replace(vs, inner, repl)
	if Contains(out, inner) || !Contains(out, repl) {
		t.Error("Replace did not reach inside the remainder plan")
	}
	// The original ViewScan's remainder is untouched.
	if !Contains(vs, inner) {
		t.Error("Replace mutated the original remainder")
	}
}
