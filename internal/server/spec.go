package server

import (
	"fmt"
	"strings"

	"deepsea"
	"deepsea/internal/workload"
)

// QuerySpec is the JSON body of POST /query. Two forms:
//
// Template form — one of the benchmark's BigBench-derived templates
// with a selection range:
//
//	{"template": "Q1", "lo": 0, "hi": 499}
//
// Builder form — the fluent query surface: a base scan, optional
// equi-joins, an optional projection, range and equality predicates,
// and an optional aggregation. Stages apply in that order (projection
// after the joins, selections above it — the shape the view manager
// expects):
//
//	{"scan": "store_sales",
//	 "join": [{"table": "item", "left": "ss_item_sk", "right": "i_item_sk"}],
//	 "select": ["ss_item_sk", "i_category_id", "ss_sales_price"],
//	 "where": [{"col": "ss_item_sk", "lo": 0, "hi": 499}],
//	 "group_by": ["i_category_id"],
//	 "aggs": [{"func": "sum", "col": "ss_sales_price", "as": "revenue"}]}
//
// TimeoutMS bounds the request's processing (admission wait included);
// 0 uses the server's default.
type QuerySpec struct {
	Template string `json:"template,omitempty"`
	Lo       int64  `json:"lo,omitempty"`
	Hi       int64  `json:"hi,omitempty"`

	Scan    string      `json:"scan,omitempty"`
	Join    []JoinSpec  `json:"join,omitempty"`
	Select  []string    `json:"select,omitempty"`
	Where   []WhereSpec `json:"where,omitempty"`
	WhereEq []EqSpec    `json:"where_eq,omitempty"`
	GroupBy []string    `json:"group_by,omitempty"`
	Aggs    []AggJSON   `json:"aggs,omitempty"`

	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Partial switches the query's top-level aggregation to partial
	// (mergeable-state) mode — set by a scatter-gather coordinator, which
	// merges the per-shard states itself. Requires an aggregation.
	Partial bool `json:"partial,omitempty"`
}

// ItemRange returns the partition-key (item_sk) range the spec
// addresses, for shard routing and ownership checks: the template
// form's [Lo, Hi], or the builder form's first range predicate on an
// item_sk column. ok is false when the spec carries no such range (a
// full-domain query).
func (sp *QuerySpec) ItemRange() (lo, hi int64, ok bool) {
	if sp.Template != "" {
		return sp.Lo, sp.Hi, true
	}
	for _, w := range sp.Where {
		if strings.HasSuffix(w.Col, "item_sk") {
			return w.Lo, w.Hi, true
		}
	}
	return 0, 0, false
}

// JoinSpec equi-joins the running query with Table on Left = Right.
type JoinSpec struct {
	Table string `json:"table"`
	Left  string `json:"left"`
	Right string `json:"right"`
}

// WhereSpec restricts an ordered column to [Lo, Hi].
type WhereSpec struct {
	Col string `json:"col"`
	Lo  int64  `json:"lo"`
	Hi  int64  `json:"hi"`
}

// EqSpec adds a string equality predicate.
type EqSpec struct {
	Col   string `json:"col"`
	Value string `json:"value"`
}

// AggJSON names one aggregate output: func is count, sum, avg, min or
// max; col is the input column (unused for count); as names the output.
type AggJSON struct {
	Func string `json:"func"`
	Col  string `json:"col,omitempty"`
	As   string `json:"as"`
}

// Build turns the spec into a fluent query. Errors name the offending
// field, so they surface as actionable 400s.
func (sp *QuerySpec) Build() (*deepsea.Query, error) {
	if sp.Template != "" {
		if sp.Scan != "" {
			return nil, fmt.Errorf("spec: template and scan are mutually exclusive")
		}
		for _, t := range workload.AllTemplates {
			if strings.EqualFold(t.String(), sp.Template) {
				return workload.BuildQuery(t, sp.Lo, sp.Hi), nil
			}
		}
		return nil, fmt.Errorf("spec: unknown template %q", sp.Template)
	}
	if sp.Scan == "" {
		return nil, fmt.Errorf("spec: need template or scan")
	}
	q := deepsea.Scan(sp.Scan)
	for _, j := range sp.Join {
		if j.Table == "" || j.Left == "" || j.Right == "" {
			return nil, fmt.Errorf("spec: join needs table, left and right")
		}
		q = q.Join(deepsea.Scan(j.Table), j.Left, j.Right)
	}
	if len(sp.Select) > 0 {
		q = q.Select(sp.Select...)
	}
	for _, w := range sp.Where {
		if w.Col == "" {
			return nil, fmt.Errorf("spec: where needs col")
		}
		q = q.Where(w.Col, w.Lo, w.Hi)
	}
	for _, e := range sp.WhereEq {
		if e.Col == "" {
			return nil, fmt.Errorf("spec: where_eq needs col")
		}
		q = q.WhereEq(e.Col, e.Value)
	}
	if len(sp.GroupBy) > 0 || len(sp.Aggs) > 0 {
		if len(sp.Aggs) == 0 {
			return nil, fmt.Errorf("spec: group_by needs aggs")
		}
		specs := make([]deepsea.AggSpec, len(sp.Aggs))
		for i, a := range sp.Aggs {
			if a.As == "" {
				return nil, fmt.Errorf("spec: agg %d needs as", i)
			}
			switch strings.ToLower(a.Func) {
			case "count":
				specs[i] = deepsea.Count(a.As)
			case "sum":
				specs[i] = deepsea.Sum(a.Col, a.As)
			case "avg":
				specs[i] = deepsea.Avg(a.Col, a.As)
			case "min":
				specs[i] = deepsea.Min(a.Col, a.As)
			case "max":
				specs[i] = deepsea.Max(a.Col, a.As)
			default:
				return nil, fmt.Errorf("spec: unknown agg func %q", a.Func)
			}
		}
		q = q.GroupBy(sp.GroupBy...).Agg(specs...)
	}
	return q, nil
}

// build finishes Build by applying the partial-mode flag (shared by the
// template and builder forms).
func (sp *QuerySpec) build() (*deepsea.Query, error) {
	q, err := sp.Build()
	if err != nil {
		return nil, err
	}
	if sp.Partial {
		q = q.Partial()
	}
	return q, nil
}
