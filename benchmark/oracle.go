package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"deepsea"
	"deepsea/internal/workload"
)

// oracle answers queries from base tables alone: a System that never
// materializes, caches or rewrites, loaded with the same data and fed
// the same acknowledged batches. Whatever the system under test does
// with views, fragments, caches, shards or a journal, its answers must
// be byte-identical to this one's.
type oracle struct {
	sys *deepsea.System
}

func newOracle(d *workload.Data) (*oracle, error) {
	sys := deepsea.New(deepsea.WithoutMaterialization())
	if err := workload.Load(sys, d); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{sys: sys}, nil
}

// canonical renders columns and rows order-insensitively: the column
// list, then each row's JSON encoding, sorted.
func canonical(cols []string, rows []string) string {
	sort.Strings(rows)
	return strings.Join(cols, ",") + "\n" + strings.Join(rows, "\n")
}

// canonicalBody canonicalizes a /query response without re-encoding its
// values: rows stay the bytes the server sent.
func canonicalBody(body []byte) (string, error) {
	var resp struct {
		Columns []string          `json:"columns"`
		Rows    []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", err
	}
	rows := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		rows[i] = string(r)
	}
	return canonical(resp.Columns, rows), nil
}

func canonicalReport(rep deepsea.Report) (string, error) {
	rows := make([]string, 0, len(rep.Rows()))
	for _, row := range rep.Rows() {
		b, err := json.Marshal(row)
		if err != nil {
			return "", err
		}
		rows = append(rows, string(b))
	}
	return canonical(rep.Columns(), rows), nil
}

// expect returns the canonical answer to one read.
func (o *oracle) expect(q *op) (string, error) {
	rep, err := o.sys.Run(workload.BuildQuery(q.tpl, q.lo, q.hi))
	if err != nil {
		return "", fmt.Errorf("oracle: %s [%d,%d]: %w", q.tpl, q.lo, q.hi, err)
	}
	return canonicalReport(rep)
}

// apply lands acknowledged batches on the oracle's base tables.
func (o *oracle) apply(batches []*op) error {
	for _, b := range batches {
		if _, err := o.sys.Append(b.table, b.rows); err != nil {
			return fmt.Errorf("oracle: append to %s: %w", b.table, err)
		}
	}
	return nil
}

// mismatches counts answers that differ from the oracle's. Answers to
// the same distinct pair share one oracle evaluation.
func (o *oracle) mismatches(answers []answer) (int, error) {
	memo := make(map[*op]string)
	bad := 0
	for _, a := range answers {
		want, ok := memo[a.op]
		if !ok {
			var err error
			if want, err = o.expect(a.op); err != nil {
				return 0, err
			}
			if a.op.pair >= 0 {
				memo[a.op] = want
			}
		}
		got, err := canonicalBody(a.body)
		if err != nil || got != want {
			bad++
			if bad == 1 {
				fmt.Fprintf(os.Stderr, "failed: %s [%d,%d] answered\n%s\nthe oracle says\n%s\n", a.op.tpl, a.op.lo, a.op.hi, got, want)
			}
		}
	}
	return bad, nil
}

// probes are full-domain reads of all ten templates: at quiescence
// every appended row, whichever shard or journal record it went
// through, shows in one of them.
func probes() []*op {
	dom := workload.ItemSkDomain()
	ops := make([]*op, len(workload.AllTemplates))
	for i, t := range workload.AllTemplates {
		ops[i] = readOp(t, dom, -1)
	}
	return ops
}
