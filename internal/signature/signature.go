// Package signature implements the query/view signatures of Goldstein
// and Larson ("Optimizing queries using materialized views: a practical,
// scalable solution", SIGMOD 2001) as adapted by DeepSea: a mostly
// syntax-independent description of a (sub)query consisting of its
// relation multiset, join predicate pairs, per-attribute range
// restrictions, residual predicates, output columns and aggregation
// shape. A sufficient condition over two signatures decides whether a
// view can answer a query and, if so, which compensation (extra
// selection + projection) must be applied on top of the view.
package signature

import (
	"fmt"
	"sort"
	"strings"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// Signature abstracts a query subtree. Column names are globally unique
// across base schemas, so attributes appear unqualified.
type Signature struct {
	// Relations is the sorted multiset of base tables accessed.
	Relations []string
	// JoinPairs holds normalized "a=b" strings (a < b lexically), sorted.
	JoinPairs []string
	// Ranges maps an ordered column to the intersection of all explicit
	// range predicates on it. A missing entry means the column is
	// unrestricted.
	Ranges map[string]interval.Interval
	// Residuals holds canonical strings of non-range predicates, sorted,
	// with the parsed predicate retained for compensation.
	Residuals []ResidualPred
	// Output is the list of output columns in schema order.
	Output []string
	// GroupBy is the sorted group-by column list; nil when the subtree
	// contains no aggregation.
	GroupBy []string
	// Aggs is the sorted list of canonical aggregate strings, each
	// prefixed "partial " when the aggregation emits partial states; nil
	// when the subtree contains no aggregation.
	Aggs []string
	// HasAgg distinguishes an aggregation with empty group-by from no
	// aggregation.
	HasAgg bool

	// schema is the output schema, kept for domain lookups.
	schema relation.Schema
}

// ResidualPred pairs a canonical string with the predicate it denotes.
type ResidualPred struct {
	Key  string
	Pred query.CmpPred
}

// Of computes the signature of a plan subtree. It panics on ViewScan
// nodes: signatures are computed over unrewritten plans only.
func Of(n query.Node) *Signature {
	sig := of(n)
	sort.Strings(sig.Relations)
	sort.Strings(sig.JoinPairs)
	sort.Slice(sig.Residuals, func(i, j int) bool {
		return sig.Residuals[i].Key < sig.Residuals[j].Key
	})
	sort.Strings(sig.GroupBy)
	sort.Strings(sig.Aggs)
	sig.schema = n.Schema()
	return sig
}

func of(n query.Node) *Signature {
	switch t := n.(type) {
	case *query.Scan:
		s := &Signature{
			Relations: []string{t.Table},
			Ranges:    make(map[string]interval.Interval),
		}
		for _, c := range t.Schema().Cols {
			s.Output = append(s.Output, c.Name)
		}
		return s
	case *query.Select:
		s := of(t.Child)
		for _, r := range t.Ranges {
			if cur, ok := s.Ranges[r.Col]; ok {
				// Workload generators never emit contradictory
				// conjunctions, so a non-empty intersection always
				// exists; if it did not we keep the first range, which
				// is sound for matching (it only widens the signature).
				if x, nonEmpty := cur.Intersect(r.Iv); nonEmpty {
					s.Ranges[r.Col] = x
				}
			} else {
				s.Ranges[r.Col] = r.Iv
			}
		}
		for _, p := range t.Residuals {
			s.Residuals = append(s.Residuals, ResidualPred{Key: p.String(), Pred: p})
		}
		return s
	case *query.Project:
		s := of(t.Child)
		s.Output = append([]string(nil), t.Cols...)
		return s
	case *query.Join:
		l, r := of(t.Left), of(t.Right)
		s := &Signature{
			Relations: append(l.Relations, r.Relations...),
			JoinPairs: append(l.JoinPairs, r.JoinPairs...),
			Ranges:    l.Ranges,
			Residuals: append(l.Residuals, r.Residuals...),
			Output:    append(l.Output, r.Output...),
		}
		for col, iv := range r.Ranges {
			s.Ranges[col] = iv
		}
		a, b := t.LCol, t.RCol
		if a > b {
			a, b = b, a
		}
		s.JoinPairs = append(s.JoinPairs, a+"="+b)
		return s
	case *query.Aggregate:
		s := of(t.Child)
		s.HasAgg = true
		s.GroupBy = append([]string(nil), t.GroupBy...)
		s.Aggs = nil
		for _, sp := range t.Aggs {
			// A partial-mode aggregate emits accumulator states, not final
			// values: it is a different function of the same input, so the
			// mode is part of each aggregate's identity. Full-mode strings
			// are the bare spec, as they always were.
			if t.Partial {
				s.Aggs = append(s.Aggs, "partial "+sp.String())
			} else {
				s.Aggs = append(s.Aggs, sp.String())
			}
		}
		s.Output = nil
		for _, c := range t.Schema().Cols {
			s.Output = append(s.Output, c.Name)
		}
		return s
	default:
		panic(fmt.Sprintf("signature: unsupported node type %T", n))
	}
}

// Schema returns the output schema of the subtree the signature was
// computed from.
func (s *Signature) Schema() relation.Schema { return s.schema }

// SetSchema re-attaches the output schema after a signature crossed a
// serialization boundary (the schema field does not marshal; recovery
// restores it from the persisted view schema).
func (s *Signature) SetSchema(sch relation.Schema) { s.schema = sch }

// Key returns a canonical string identifying the signature. Two subtrees
// with equal signatures produce equal keys. The key is used as the view
// identity in the pool and statistics.
func (s *Signature) Key() string {
	var b strings.Builder
	b.WriteString("R{")
	b.WriteString(strings.Join(s.Relations, ","))
	b.WriteString("}J{")
	b.WriteString(strings.Join(s.JoinPairs, ","))
	b.WriteString("}S{")
	cols := make([]string, 0, len(s.Ranges))
	for c := range s.Ranges {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for i, c := range cols {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%s:%s", c, s.Ranges[c])
	}
	b.WriteString("}P{")
	keys := make([]string, len(s.Residuals))
	for i, r := range s.Residuals {
		keys[i] = r.Key
	}
	b.WriteString(strings.Join(keys, ","))
	b.WriteString("}O{")
	out := append([]string(nil), s.Output...)
	sort.Strings(out)
	b.WriteString(strings.Join(out, ","))
	b.WriteString("}")
	if s.HasAgg {
		b.WriteString("G{")
		b.WriteString(strings.Join(s.GroupBy, ","))
		b.WriteString("}A{")
		b.WriteString(strings.Join(s.Aggs, ","))
		b.WriteString("}")
	}
	return b.String()
}

// FamilyKey identifies the signature modulo range restrictions and
// output: all instances of a query template share a family. The filter
// tree groups views by family before detailed matching.
func (s *Signature) FamilyKey() string {
	var b strings.Builder
	b.WriteString("R{")
	b.WriteString(strings.Join(s.Relations, ","))
	b.WriteString("}J{")
	b.WriteString(strings.Join(s.JoinPairs, ","))
	b.WriteString("}")
	if s.HasAgg {
		b.WriteString("G{")
		b.WriteString(strings.Join(s.GroupBy, ","))
		b.WriteString("}A{")
		b.WriteString(strings.Join(s.Aggs, ","))
		b.WriteString("}")
	}
	return b.String()
}
