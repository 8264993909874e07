// Package query defines the logical query plans that DeepSea analyses,
// rewrites and executes: scans, range/residual selections, projections,
// equi-joins and group-by aggregations, plus the view-scan leaf that
// rewritings substitute for matched subqueries.
//
// Plans are built by the workload generator from query templates; they
// deliberately keep range selections *above* join subtrees (the paper's
// materialization strategy requires that selections are not pushed down,
// Section 10.2).
package query

import (
	"fmt"
	"slices"
	"strings"

	"deepsea/internal/interval"
	"deepsea/internal/relation"
)

// Node is one operator of a logical plan tree.
type Node interface {
	// Schema returns the operator's output schema.
	Schema() relation.Schema
	// Children returns the operator's inputs (empty for leaves).
	Children() []Node
	// String returns a canonical, deterministic rendering of the subtree
	// rooted at this node. Two structurally identical subtrees render
	// identically, so the string doubles as a syntactic identity key.
	String() string
}

// Scan reads a base table.
type Scan struct {
	Table  string
	schema relation.Schema
}

// NewScan returns a scan of the named base table with the given schema.
func NewScan(table string, schema relation.Schema) *Scan {
	return &Scan{Table: table, schema: schema}
}

// Schema implements Node.
func (s *Scan) Schema() relation.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string { return fmt.Sprintf("scan(%s)", s.Table) }

// RangePred restricts an ordered integer column to a closed interval.
type RangePred struct {
	Col string
	Iv  interval.Interval
}

// String renders the predicate in the paper's l <= A <= u form.
func (p RangePred) String() string {
	return fmt.Sprintf("%d<=%s<=%d", p.Iv.Lo, p.Col, p.Iv.Hi)
}

// CmpOp is a comparison operator for residual predicates.
type CmpOp int

// Residual comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL operator symbol.
func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// CmpPred is a residual comparison of a column against a constant.
type CmpPred struct {
	Col string
	Op  CmpOp
	Val relation.Value
	// Typ selects which Value field participates in the comparison.
	Typ relation.Type
}

// String renders the predicate canonically.
func (p CmpPred) String() string {
	switch p.Typ {
	case relation.Int:
		return fmt.Sprintf("%s%s%d", p.Col, p.Op, p.Val.Int())
	case relation.Float:
		return fmt.Sprintf("%s%s%g", p.Col, p.Op, p.Val.Float())
	default:
		return fmt.Sprintf("%s%s'%s'", p.Col, p.Op, p.Val.Str())
	}
}

// Eval evaluates the predicate against a value of the column.
func (p CmpPred) Eval(v relation.Value) bool {
	var c int
	switch p.Typ {
	case relation.Int:
		switch {
		case v.Int() < p.Val.Int():
			c = -1
		case v.Int() > p.Val.Int():
			c = 1
		}
	case relation.Float:
		switch {
		case v.Float() < p.Val.Float():
			c = -1
		case v.Float() > p.Val.Float():
			c = 1
		}
	default:
		c = strings.Compare(v.Str(), p.Val.Str())
	}
	switch p.Op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	default:
		return false
	}
}

// Select filters its child by a conjunction of range and residual
// predicates.
type Select struct {
	Child     Node
	Ranges    []RangePred
	Residuals []CmpPred
}

// Schema implements Node.
func (s *Select) Schema() relation.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *Select) String() string {
	parts := make([]string, 0, len(s.Ranges)+len(s.Residuals))
	for _, r := range s.Ranges {
		parts = append(parts, r.String())
	}
	for _, r := range s.Residuals {
		parts = append(parts, r.String())
	}
	return fmt.Sprintf("select[%s](%s)", strings.Join(parts, " && "), s.Child)
}

// Project narrows its child to the named columns.
type Project struct {
	Child Node
	Cols  []string
}

// Schema implements Node.
func (p *Project) Schema() relation.Schema {
	cs := p.Child.Schema()
	return cs.Project(p.Cols)
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// ColumnType returns the type of the named column of n's output, and
// whether n has one, as n.Schema() would answer it but without building
// the schema: it follows the name down through selections, projections
// and joins to the scan that produces it, so resolving a name allocates
// nothing however deep the plan is.
func ColumnType(n Node, name string) (relation.Type, bool) {
	switch n := n.(type) {
	case *Scan:
		if i := n.schema.ColIndex(name); i >= 0 {
			return n.schema.Cols[i].Type, true
		}
		return 0, false
	case *Select:
		return ColumnType(n.Child, name)
	case *Project:
		if !slices.Contains(n.Cols, name) {
			return 0, false
		}
		return ColumnType(n.Child, name)
	case *Join:
		if t, ok := ColumnType(n.Left, name); ok {
			return t, true
		}
		return ColumnType(n.Right, name)
	default:
		s := n.Schema()
		if i := s.ColIndex(name); i >= 0 {
			return s.Cols[i].Type, true
		}
		return 0, false
	}
}

// String implements Node.
func (p *Project) String() string {
	return fmt.Sprintf("project[%s](%s)", strings.Join(p.Cols, ","), p.Child)
}

// Join is an equi-join of two inputs on LCol = RCol. Column names are
// globally unique across base schemas (TPC-DS style prefixes), so the
// output schema is the plain concatenation of the input schemas.
type Join struct {
	Left, Right Node
	LCol, RCol  string
}

// Schema implements Node.
func (j *Join) Schema() relation.Schema {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	out := relation.Schema{Cols: make([]relation.Column, 0, len(ls.Cols)+len(rs.Cols))}
	out.Cols = append(out.Cols, ls.Cols...)
	out.Cols = append(out.Cols, rs.Cols...)
	return out
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// String implements Node.
func (j *Join) String() string {
	return fmt.Sprintf("join[%s=%s](%s, %s)", j.LCol, j.RCol, j.Left, j.Right)
}

// AggFunc enumerates the supported aggregation functions.
type AggFunc int

// Aggregation functions.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
)

// String returns the lower-case SQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggSpec is one aggregate output: Func applied to Col (Col is ignored
// for Count), emitted under the column name As.
type AggSpec struct {
	Func AggFunc
	Col  string
	As   string
}

// String renders the spec canonically.
func (a AggSpec) String() string {
	if a.Func == Count {
		return fmt.Sprintf("count(*) as %s", a.As)
	}
	return fmt.Sprintf("%s(%s) as %s", a.Func, a.Col, a.As)
}

// Aggregate groups its child by GroupBy and computes Aggs per group.
//
// Partial switches the node to partial-aggregation mode: instead of
// final values it emits mergeable per-group accumulator states — counts
// as ints, sums as exact lossless encodings (strings), min/max as typed
// values — under the column-naming scheme of PartialCols. A
// scatter-gather coordinator merges partial rows from range-disjoint
// executions and renders the final values; because the sum encodings
// are exact, the merged result is byte-identical for any partition of
// the input rows. Partial is part of the node's canonical identity
// (String), so partial and full plans never share a fingerprint, a
// result-cache entry, or a planning batch.
type Aggregate struct {
	Child   Node
	GroupBy []string
	Aggs    []AggSpec
	Partial bool
}

// Partial-aggregation column-name suffixes: a partial column is named
// <As> + "#" + kind. The '#' separator never occurs in dataset column
// names, so partial columns are recognizable by suffix alone.
const (
	PartialCount  = "count"   // row count (Int)
	PartialSum    = "sum"     // exact sum encoding (String)
	PartialAvgSum = "avg.sum" // exact sum encoding for an average (String)
	PartialAvgN   = "avg.n"   // row count for an average (Int)
	PartialMin    = "min"     // running minimum (input type)
	PartialMax    = "max"     // running maximum (input type)
)

// PartialCols returns the partial-state columns one aggregate spec
// expands to, given the aggregated column's input type.
func PartialCols(sp AggSpec, inType relation.Type) []relation.Column {
	name := func(kind string) string { return sp.As + "#" + kind }
	switch sp.Func {
	case Count:
		return []relation.Column{{Name: name(PartialCount), Type: relation.Int}}
	case Sum:
		return []relation.Column{{Name: name(PartialSum), Type: relation.String}}
	case Avg:
		return []relation.Column{
			{Name: name(PartialAvgSum), Type: relation.String},
			{Name: name(PartialAvgN), Type: relation.Int},
		}
	case Min:
		return []relation.Column{{Name: name(PartialMin), Type: inType}}
	default: // Max
		return []relation.Column{{Name: name(PartialMax), Type: inType}}
	}
}

// SplitPartialCol splits a partial column name into its output name and
// state kind; ok is false for plain (group-by) columns.
func SplitPartialCol(col string) (base, kind string, ok bool) {
	i := strings.LastIndex(col, "#")
	if i < 0 {
		return col, "", false
	}
	return col[:i], col[i+1:], true
}

// Schema implements Node.
func (a *Aggregate) Schema() relation.Schema {
	cs := a.Child.Schema()
	out := relation.Schema{Cols: make([]relation.Column, 0, len(a.GroupBy)+len(a.Aggs))}
	for _, g := range a.GroupBy {
		out.Cols = append(out.Cols, cs.Col(g))
	}
	for _, sp := range a.Aggs {
		if a.Partial {
			var inType relation.Type
			if sp.Func != Count {
				inType = cs.Col(sp.Col).Type
			}
			out.Cols = append(out.Cols, PartialCols(sp, inType)...)
			continue
		}
		out.Cols = append(out.Cols, relation.Column{Name: sp.As, Type: aggType(sp, &cs)})
	}
	return out
}

func aggType(sp AggSpec, cs *relation.Schema) relation.Type {
	switch sp.Func {
	case Count:
		return relation.Int
	case Avg, Sum:
		return relation.Float
	default: // Min, Max preserve the input type
		return cs.Col(sp.Col).Type
	}
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// aggTag is the operator name in the canonical rendering: partial
// aggregation is a distinct operator, so fingerprints, cache keys and
// template keys never conflate the two result shapes.
func (a *Aggregate) aggTag() string {
	if a.Partial {
		return "partial-agg"
	}
	return "agg"
}

// String implements Node.
func (a *Aggregate) String() string {
	aggs := make([]string, len(a.Aggs))
	for i, sp := range a.Aggs {
		aggs[i] = sp.String()
	}
	return fmt.Sprintf("%s[%s][%s](%s)",
		a.aggTag(), strings.Join(a.GroupBy, ","), strings.Join(aggs, ","), a.Child)
}

// ViewScan is the leaf that a rewriting substitutes for a matched
// subquery. It reads a materialized view — either whole or as a set of
// chosen fragments with clip ranges — applies compensation predicates and
// projection, and unions in remainder plans for uncovered gaps.
type ViewScan struct {
	// ViewID identifies the matched view in the pool/statistics.
	ViewID string
	// ViewPath is the storage path of the unpartitioned view file; it is
	// consulted only when FragIDs is empty.
	ViewPath string
	// ViewSchema is the schema of the materialized view.
	ViewSchema relation.Schema
	// PartAttr is the attribute of the partition being read; empty when
	// the whole (unpartitioned) view is read.
	PartAttr string
	// FragIDs names the fragments read, parallel to Reads. Empty with a
	// non-empty ViewID means the unpartitioned view file is read.
	FragIDs []string
	// Reads gives the clip range applied to each fragment so overlapping
	// fragments contribute each value range exactly once.
	Reads []interval.Interval
	// FragIvs records each read fragment's full stored interval, parallel
	// to FragIDs; the estimator derives clip selectivities from it.
	FragIvs []interval.Interval
	// FragSizes optionally overrides the stored fragment sizes for cost
	// estimation (parallel to FragIDs). The matcher sets it when
	// estimating rewritings over views that are not materialized yet
	// ("virtual" rewritings used only for benefit bookkeeping); such
	// plans are never executed.
	FragSizes []int64
	// ViewBytes likewise overrides the unpartitioned view file's size
	// for estimation of virtual rewritings.
	ViewBytes int64
	// Comp is the compensation applied on top of the view data.
	CompRanges    []RangePred
	CompResiduals []CmpPred
	CompProject   []string // nil keeps all view columns
	// Remainders are plans computing uncovered gaps of the query range
	// from base data; their results are unioned with the fragment rows.
	Remainders []Node
}

// Schema implements Node.
func (v *ViewScan) Schema() relation.Schema {
	if v.CompProject == nil {
		return v.ViewSchema
	}
	return v.ViewSchema.Project(v.CompProject)
}

// Children implements Node. Remainder plans are children so that walkers
// and the executor see them.
func (v *ViewScan) Children() []Node { return v.Remainders }

// String implements Node.
func (v *ViewScan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "viewscan[%s", v.ViewID)
	if len(v.FragIDs) > 0 {
		fmt.Fprintf(&b, "; frags=%v reads=%v", v.FragIDs, v.Reads)
	}
	if len(v.CompRanges) > 0 || len(v.CompResiduals) > 0 {
		parts := make([]string, 0, len(v.CompRanges)+len(v.CompResiduals))
		for _, r := range v.CompRanges {
			parts = append(parts, r.String())
		}
		for _, r := range v.CompResiduals {
			parts = append(parts, r.String())
		}
		fmt.Fprintf(&b, "; comp=%s", strings.Join(parts, " && "))
	}
	if v.CompProject != nil {
		fmt.Fprintf(&b, "; proj=%s", strings.Join(v.CompProject, ","))
	}
	if len(v.Remainders) > 0 {
		rs := make([]string, len(v.Remainders))
		for i, r := range v.Remainders {
			rs[i] = r.String()
		}
		fmt.Fprintf(&b, "; remainder=(%s)", strings.Join(rs, " U "))
	}
	b.WriteString("]")
	return b.String()
}

// Walk visits every node of the plan in pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// CandidateNodes returns the subqueries of root that Definition 6 admits
// as view candidates: joins, aggregations and projections. The root
// itself is included when it has one of these shapes. A join directly
// beneath a projection is skipped: the engine (like Hive) fuses map-side
// projection into the join, so the unprojected join output never exists
// as an intermediate result that could be captured.
func CandidateNodes(root Node) []Node {
	var out []Node
	var visit func(n Node, parent Node)
	visit = func(n Node, parent Node) {
		switch n.(type) {
		case *Join:
			if _, fused := parent.(*Project); !fused {
				out = append(out, n)
			}
		case *Aggregate, *Project:
			out = append(out, n)
		}
		for _, c := range n.Children() {
			visit(c, n)
		}
	}
	visit(root, nil)
	return out
}

// BaseTables returns the distinct base tables scanned by the plan, in
// first-visit order.
func BaseTables(root Node) []string {
	var out []string
	seen := make(map[string]bool)
	Walk(root, func(n Node) {
		if s, ok := n.(*Scan); ok && !seen[s.Table] {
			seen[s.Table] = true
			out = append(out, s.Table)
		}
	})
	return out
}
