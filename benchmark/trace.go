package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepsea/internal/datastore"
)

// span is one timed visit to a layer boundary. Times are nanoseconds
// since the tracer's epoch; Op is the load generator's operation id
// (the traced run has one caller, so one operation is in flight at a
// time and every span belongs to it); Parent indexes the innermost
// enclosing span of the same operation, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// N carries a boundary's count: records in a journal append, bytes
	// of a response body.
	N int64 `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. Every span is
// recorded from this package, around a public call into a layer.
type tracer struct {
	epoch time.Time
	op    atomic.Int64 // current operation id, set by the caller
	mu    sync.Mutex
	spans []span
	// partials keeps, per operation, the subquery answers that carry
	// partial aggregate states, for the merge probe.
	partials map[int64][][]byte
}

// maxPartialOps bounds the subquery answers kept for the merge probe.
const maxPartialOps = 256

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(name string, start, end time.Time, n int64) {
	s := span{Name: name, Op: t.op.Load(), Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1, N: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler records one span per POST request served by h; GETs (health
// probes, /statz reads) are not operations and stay untraced.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name+r.URL.Path, start, time.Now(), 0)
	})
}

type tracedTransport struct {
	name string
	rt   http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost || (r.URL.Path != "/query" && r.URL.Path != "/append") {
		return tt.rt.RoundTrip(r)
	}
	start := time.Now()
	resp, err := tt.rt.RoundTrip(r)
	var body []byte
	if err == nil {
		// Read the answer inside the span; the coordinator gets it back whole.
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	tt.t.record(tt.name+r.URL.Path, start, time.Now(), int64(len(body)))
	if err != nil {
		return nil, err
	}
	if r.URL.Path == "/query" && resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte("#")) {
		tt.t.keepPartial(body)
	}
	return resp, nil
}

func (t *tracer) keepPartial(body []byte) {
	op := t.op.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.partials == nil {
		t.partials = make(map[int64][][]byte)
	}
	if _, ok := t.partials[op]; ok || len(t.partials) < maxPartialOps {
		t.partials[op] = append(t.partials[op], body)
	}
}

// scatterBodies returns, per scattered operation, the partial-state
// answers of its subqueries (operations that hedged or failed over, and
// so hold a duplicate, are left out).
func (t *tracer) scatterBodies(groups int) [][][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := make([]int64, 0, len(t.partials))
	for op, parts := range t.partials {
		if len(parts) == groups {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	out := make([][][]byte, len(ops))
	for i, op := range ops {
		out[i] = t.partials[op]
	}
	return out
}

// roundTripper records one span per coordinator-to-replica request,
// from send to the last byte of the answer.
func (t *tracer) roundTripper(name string, rt http.RoundTripper) http.RoundTripper {
	return &tracedTransport{name: name, rt: rt, t: t}
}

// tracedStore decorates the journal: one span per store call, carrying
// the record count.
type tracedStore struct {
	datastore.Store
	tr *tracer
}

func (s *tracedStore) Append(rec *datastore.Record) error {
	start := time.Now()
	err := s.Store.Append(rec)
	s.tr.record("datastore.append", start, time.Now(), 1)
	return err
}

func (s *tracedStore) AppendGroup(recs []*datastore.Record) error {
	start := time.Now()
	err := s.Store.AppendGroup(recs)
	s.tr.record("datastore.append", start, time.Now(), int64(len(recs)))
	return err
}

// link sets every span's Parent to the innermost span of the same
// operation that contains it in time. Spans sort by start (longer
// first on ties) so a stack of open ancestors suffices.
func link(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Op != spans[j].Op {
			return spans[i].Op < spans[j].Op
		}
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	for i := range spans {
		s := &spans[i]
		for len(stack) > 0 {
			top := &spans[stack[len(stack)-1]]
			if top.Op == s.Op && top.Start <= s.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// selfTimes returns, per span, its duration minus the part of it that
// its direct children cover (their union: parallel children such as a
// scatter's subqueries overlap). spans must be linked.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
