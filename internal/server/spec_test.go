package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/leakcheck"
	"deepsea/internal/workload"
)

// malformedSpecs name a column their input lacks, or one of a type the
// operator cannot read. Each must be a 400: before query building
// resolved names, the first two panicked in planning with the manager
// lock held (wedging every later query), the next six answered 200 with
// a wrong or empty result, and the last two failed as 500s.
var malformedSpecs = []struct {
	name string
	spec QuerySpec
}{
	{"select missing", QuerySpec{Scan: "item", Select: []string{"nope"}}},
	{"group_by missing", QuerySpec{Scan: "item", GroupBy: []string{"nope"}, Aggs: []AggJSON{{Func: "count", As: "n"}}}},
	{"where missing", QuerySpec{Scan: "item", Where: []WhereSpec{{Col: "nope", Lo: 0, Hi: 10}}}},
	{"where on dropped column", QuerySpec{Scan: "item", Select: []string{"i_item_sk"}, Where: []WhereSpec{{Col: "i_category_id", Lo: 0, Hi: 10}}}},
	{"where on string", QuerySpec{Scan: "item", Where: []WhereSpec{{Col: "i_category", Lo: 0, Hi: 10}}}},
	{"where_eq missing", QuerySpec{Scan: "item", WhereEq: []EqSpec{{Col: "nope", Value: "books"}}}},
	{"where_eq on int", QuerySpec{Scan: "item", WhereEq: []EqSpec{{Col: "i_item_sk", Value: "books"}}}},
	{"sum over string", QuerySpec{Scan: "item", GroupBy: []string{"i_category_id"}, Aggs: []AggJSON{{Func: "sum", Col: "i_category", As: "s"}}}},
	{"sum missing", QuerySpec{Scan: "item", Aggs: []AggJSON{{Func: "sum", Col: "nope", As: "s"}}}},
	{"join key missing", QuerySpec{Scan: "store_sales", Join: []JoinSpec{{Table: "item", Left: "nope", Right: "i_item_sk"}}}},
}

// validQ1 is a template query any test system answers.
var validQ1 = QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 1000, TimeoutMS: 2000}

// TestMalformedQueryIsRejected: every malformed spec is a 400, and the
// same server answers a valid query within two seconds right after each
// one — no spec leaves the manager lock held. Requests carry a client
// timeout so a wedged server fails the test instead of hanging it.
func TestMalformedQueryIsRejected(t *testing.T) {
	leakcheck.Check(t)
	srv := New(newTestSystem(t), Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		if t.Failed() {
			// A wedged handler never returns, and Close waits for it.
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	client := &http.Client{Timeout: 2 * time.Second}
	post := func(spec QuerySpec) (int, error) {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	for _, c := range malformedSpecs {
		if status, err := post(c.spec); err != nil || status != http.StatusBadRequest {
			t.Errorf("%s: status %d, error %v; want 400", c.name, status, err)
		}
		if status, err := post(validQ1); err != nil || status != http.StatusOK {
			t.Fatalf("valid Q1 after %s: status %d, error %v; want 200", c.name, status, err)
		}
	}
}

// newSmallSystem loads the first rows of each generated table only, so
// that any join the fuzzer composes stays cheap to run.
func newSmallSystem(t testing.TB) *deepsea.System {
	t.Helper()
	d := workload.Generate(1, 1, nil)
	for _, tbl := range d.Tables {
		tbl.Rows = tbl.Rows[:min(len(tbl.Rows), 32)]
	}
	sys := deepsea.New()
	if err := workload.Load(sys, d); err != nil {
		t.Fatal(err)
	}
	return sys
}

// FuzzQuerySpec drives the POST /query path without HTTP: decode, build
// and template key, as handleQuery admits a request, then — for a spec
// that passes all three — a run that must return rows or an error, not
// panic. A fixed valid query must answer afterwards: a run that left the
// manager lock held would wedge it.
func FuzzQuerySpec(f *testing.F) {
	for _, c := range malformedSpecs {
		b, _ := json.Marshal(c.spec)
		f.Add(b)
	}
	for _, spec := range []QuerySpec{validQ1, {
		Scan:    "store_sales",
		Join:    []JoinSpec{{Table: "item", Left: "ss_item_sk", Right: "i_item_sk"}},
		Select:  []string{"ss_item_sk", "i_category_id", "ss_sales_price"},
		Where:   []WhereSpec{{Col: "ss_item_sk", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 3000}},
		GroupBy: []string{"i_category_id"},
		Aggs:    []AggJSON{{Func: "sum", Col: "ss_sales_price", As: "revenue"}, {Func: "count", As: "n"}},
		Partial: true,
	}} {
		b, _ := json.Marshal(spec)
		f.Add(b)
	}
	sys := newSmallSystem(f)
	valid, err := validQ1.build()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec QuerySpec
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
			return
		}
		if len(spec.Join) > 2 {
			return // a join chain over 32-row tables can still grow as rows^(joins+1)
		}
		q, err := spec.build()
		if err != nil {
			return
		}
		if _, err := sys.TemplateKey(q); err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = sys.RunContext(ctx, q)

		done := make(chan error, 1)
		go func() {
			_, err := sys.Run(valid)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("valid query after %s: %v", data, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("valid query after %s did not answer: the manager lock is still held", data)
		}
	})
}
