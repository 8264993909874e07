package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/leakcheck"
	"deepsea/internal/workload"
)

// newTestSystem loads the deterministic BigBench-derived dataset (1 GB
// modelled, a few thousand real rows) into a fresh System.
func newTestSystem(t testing.TB, opts ...deepsea.Option) *deepsea.System {
	t.Helper()
	sys := deepsea.New(opts...)
	if err := workload.Load(sys, workload.Generate(1, 1, nil)); err != nil {
		t.Fatal(err)
	}
	return sys
}

// newTestServer wires sys into a Server plus an httptest frontend, with
// shutdown-then-close registered so leakcheck sees a drained world.
func newTestServer(t testing.TB, sys *deepsea.System, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts
}

func postQuery(t testing.TB, url string, spec QuerySpec) (int, QueryResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, qr, resp.Header
}

// canonRows renders rows order-independently: the engine guarantees
// multiset equality, not row order.
func canonRows(rows [][]any) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		b, _ := json.Marshal(r)
		lines[i] = string(b)
	}
	sort.Strings(lines)
	b, _ := json.Marshal(lines)
	return string(b)
}

// testSpecs is a deterministic mix over three templates.
func testSpecs(n int) []QuerySpec {
	tpls := []string{"Q1", "Q7", "Q16"}
	specs := make([]QuerySpec, n)
	for i := range specs {
		width := int64(2000 + 137*int64(i%11))
		lo := workload.ItemSkLo + int64(i%7)*900
		specs[i] = QuerySpec{Template: tpls[i%len(tpls)], Lo: lo, Hi: lo + width}
	}
	return specs
}

// TestConcurrentServingMatchesSerial is the acceptance stress:
// concurrent clients against one server, every response identical (as a
// row multiset) to a serial reference system answering the same query,
// zero sheds because client concurrency never exceeds the in-flight
// limit, and a leak-free drain. The mixed case keeps 64 clients busy
// over three templates; the burst case holds 32 same-template requests
// with distinct ranges at the gate until all are admitted, so they plan
// and execute at the same time.
func TestConcurrentServingMatchesSerial(t *testing.T) {
	burst := make([]QuerySpec, 32)
	for i := range burst {
		lo := workload.ItemSkLo + int64(i)*500
		burst[i] = QuerySpec{Template: "Q30", Lo: lo, Hi: lo + 2500}
	}
	for _, tc := range []struct {
		name     string
		specs    []QuerySpec
		clients  int
		together bool
	}{
		{"mixed", testSpecs(128), 64, false},
		{"same-template burst", burst, len(burst), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			specs, clients := tc.specs, tc.clients

			// Serial reference: a fresh system processes the same specs
			// one at a time.
			ref := newTestSystem(t)
			want := make([]string, len(specs))
			for i, sp := range specs {
				q, err := sp.Build()
				if err != nil {
					t.Fatal(err)
				}
				rep, err := ref.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = canonRows(rep.Rows())
			}

			sys := newTestSystem(t)
			srv := New(sys, Config{MaxInFlight: clients})
			if tc.together {
				release := make(chan struct{})
				var admitted atomic.Int32
				srv.testExecGate = func(ctx context.Context) {
					if int(admitted.Add(1)) == len(specs) {
						close(release)
					}
					<-release
				}
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
				ts.Close()
			})
			var wg sync.WaitGroup
			var sheds atomic.Uint64
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < len(specs); i += clients {
						status, qr, _ := postQuery(t, ts.URL, specs[i])
						if status == http.StatusTooManyRequests {
							sheds.Add(1)
							continue
						}
						if status != http.StatusOK {
							t.Errorf("spec %d: status %d", i, status)
							continue
						}
						if got := canonRows(qr.Rows); got != want[i] {
							t.Errorf("spec %d: concurrent result differs from serial reference", i)
						}
					}
				}(c)
			}
			wg.Wait()
			if n := sheds.Load(); n != 0 {
				t.Errorf("%d requests shed below the in-flight limit", n)
			}
			if srv.served.Load() != uint64(len(specs)) {
				t.Errorf("served %d, want %d", srv.served.Load(), len(specs))
			}
		})
	}
}

// TestLoadShedding holds every execution slot and the whole queue busy
// via the test gate, then verifies extra requests shed with 429 and
// Retry-After: 1 — and that the held requests all still succeed.
func TestLoadShedding(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 2, MaxQueue: 2, QueueTimeout: -1})
	gate := make(chan struct{})
	var gated atomic.Int32
	srv.testExecGate = func(ctx context.Context) {
		gated.Add(1)
		<-gate
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})

	spec := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 3000}
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			status, _, _ := postQuery(t, ts.URL, spec)
			codes <- status
		}()
	}
	// Wait until the two slots are gated and the queue holds the other
	// two — the server is now provably saturated.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, depth := srv.lim.snapshot()
		if gated.Load() == 2 && depth == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: %d gated, queue %d", gated.Load(), depth)
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 6; i++ {
		status, _, hdr := postQuery(t, ts.URL, spec)
		if status != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status %d, want 429", i, status)
		}
		if got := hdr.Get("Retry-After"); got != "1" {
			t.Errorf("shed response Retry-After %q, want 1", got)
		}
	}
	close(gate)
	for i := 0; i < 4; i++ {
		if status := <-codes; status != http.StatusOK {
			t.Errorf("held request: status %d, want 200", status)
		}
	}
	stats, _, _ := srv.lim.snapshot()
	if stats.ShedQueueFull != 6 {
		t.Errorf("ShedQueueFull = %d, want 6", stats.ShedQueueFull)
	}
	if srv.shed.Load() != 6 {
		t.Errorf("shed counter = %d, want 6", srv.shed.Load())
	}
}

// countingBody counts the bytes a handler reads from a request body.
type countingBody struct {
	r io.Reader
	n atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// saturate starts two gated queries against a server with one slot and
// one queue position and returns once the first holds the slot and the
// second the queue position. Their statuses arrive on the channel.
func saturate(t *testing.T, srv *Server, url string, spec QuerySpec, gated *atomic.Int32) <-chan int {
	t.Helper()
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _ := postQuery(t, url, spec)
			codes <- status
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, depth := srv.lim.snapshot()
		if gated.Load() == 1 && depth == 1 {
			return codes
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: %d gated, queue %d", gated.Load(), depth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedBeforeBodyRead: a request takes its place in admission before
// its body is read, so MaxInFlight + MaxQueue bound the bodies a server
// holds. With the slot and the queue position held, a new request is
// shed with 429 and Retry-After: 1 without a byte of its body read; the
// method check and the declared-length 413 still answer first.
func TestShedBeforeBodyRead(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: -1})
	gate := make(chan struct{})
	var gated atomic.Int32
	srv.testExecGate = func(ctx context.Context) {
		gated.Add(1)
		<-gate
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	spec := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 3000}
	codes := saturate(t, srv, ts.URL, spec, &gated)

	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method string, declared int64) (*httptest.ResponseRecorder, int64) {
		cb := &countingBody{r: bytes.NewReader(body)}
		req := httptest.NewRequest(method, "/query", cb)
		if declared != 0 {
			req.ContentLength = declared
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec, cb.n.Load()
	}
	rec, read := serve(http.MethodPost, 0)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
		t.Errorf("request past a full queue: %d Retry-After %q, want 429 and 1", rec.Code, rec.Header().Get("Retry-After"))
	}
	if read != 0 {
		t.Errorf("shed request: %d body bytes read, want 0", read)
	}
	if rec, _ := serve(http.MethodGet, 0); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET under overload: %d, want 405", rec.Code)
	}
	if rec, read := serve(http.MethodPost, MaxBodyBytes+1); rec.Code != http.StatusRequestEntityTooLarge || read != 0 {
		t.Errorf("declared oversized body under overload: %d with %d bytes read, want 413 unread", rec.Code, read)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if status := <-codes; status != http.StatusOK {
			t.Errorf("held request: status %d, want 200", status)
		}
	}
	if n := srv.shed.Load(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}
}

// TestStalledBodyHoldsNoSlot: a request whose body has not arrived
// holds a place in admission but not the execution slot, so with one
// slot a complete request still runs while the stalled one waits.
func TestStalledBodyHoldsNoSlot(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	pr, pw := io.Pipe()
	stalled := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", pr)
		if err != nil {
			stalled <- 0
			return
		}
		resp.Body.Close()
		stalled <- resp.StatusCode
	}()
	waitPlaces(t, srv.lim, 1) // the stalled request is inside

	spec := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 3000}
	complete := make(chan int, 1)
	go func() {
		status, _, _ := postQuery(t, ts.URL, spec)
		complete <- status
	}()
	select {
	case status := <-complete:
		if status != http.StatusOK {
			t.Errorf("complete request beside a stalled body: status %d, want 200", status)
		}
	case <-time.After(10 * time.Second):
		t.Error("complete request still waiting behind a stalled body after 10s")
		defer func() { <-complete }()
	}
	pw.Close() // the stalled body ends empty
	if status := <-stalled; status != http.StatusBadRequest {
		t.Errorf("stalled request: status %d, want 400", status)
	}
	waitPlaces(t, srv.lim, 0)
}

// TestStalledBodyGivesBackItsPlace: a body that stalls past
// bodyReadTimeout is answered 400, counted as a bad request, and gives
// its admission place back, so stalled bodies holding every place
// (MaxInFlight + MaxQueue) shut complete requests out only until the
// deadline.
func TestStalledBodyGivesBackItsPlace(t *testing.T) {
	leakcheck.Check(t)
	old := bodyReadTimeout
	bodyReadTimeout = 500 * time.Millisecond
	t.Cleanup(func() { bodyReadTimeout = old })
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	const places = 2
	stalled := make(chan int, places)
	for i := 0; i < places; i++ {
		pr, pw := io.Pipe()
		t.Cleanup(func() { pw.Close() })
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json", pr)
			if err != nil {
				stalled <- 0
				return
			}
			resp.Body.Close()
			stalled <- resp.StatusCode
		}()
	}
	waitPlaces(t, srv.lim, places)
	for i := 0; i < places; i++ {
		select {
		case status := <-stalled:
			if status != http.StatusBadRequest {
				t.Errorf("stalled body: status %d, want 400", status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a stalled body still holds its place 10s past the body deadline")
		}
	}
	waitPlaces(t, srv.lim, 0)
	if n := srv.badRequest.Load(); n != places {
		t.Errorf("bad_request = %d, want %d", n, places)
	}
	spec := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 3000}
	if status, _, _ := postQuery(t, ts.URL, spec); status != http.StatusOK {
		t.Errorf("complete request after the stalled bodies timed out: status %d, want 200", status)
	}
}

// waitPlaces polls until n requests hold a place in the limiter.
func waitPlaces(t *testing.T, l *limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		places := l.places
		l.mu.Unlock()
		if places == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("limiter holds %d places, want %d", places, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueuedRequestTimesOut: a request whose own timeout_ms runs out
// while it waits in the queue is answered 504, and the request holding
// the slot still completes.
func TestQueuedRequestTimesOut(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: -1})
	gate := make(chan struct{})
	var gated atomic.Int32
	srv.testExecGate = func(ctx context.Context) {
		gated.Add(1)
		<-gate
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	spec := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 3000}
	held := make(chan int, 1)
	go func() {
		status, _, _ := postQuery(t, ts.URL, spec)
		held <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gated.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the first request never reached execution")
		}
		time.Sleep(time.Millisecond)
	}
	spec.TimeoutMS = 30
	if status, _, _ := postQuery(t, ts.URL, spec); status != http.StatusGatewayTimeout {
		t.Errorf("queued request past its timeout_ms: status %d, want 504", status)
	}
	close(gate)
	if status := <-held; status != http.StatusOK {
		t.Errorf("held request: status %d, want 200", status)
	}
}

// TestDrainShutdown verifies the lifecycle: during a drain, in-flight
// requests finish normally, new requests get 503, /healthz flips to
// draining, and nothing leaks.
func TestDrainShutdown(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 4})
	started := make(chan struct{}, 8)
	srv.testExecGate = func(ctx context.Context) { started <- struct{}{} }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 5000}
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			status, _, _ := postQuery(t, ts.URL, spec)
			codes <- status
		}()
	}
	for i := 0; i < 4; i++ {
		<-started // every request is past admission, executing
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for i := 0; i < 4; i++ {
		if status := <-codes; status != http.StatusOK {
			t.Errorf("in-flight request during drain: status %d, want 200", status)
		}
	}

	// After the drain: queries refused, health reports draining.
	status, _, _ := postQuery(t, ts.URL, spec)
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-drain query: status %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Errorf("healthz after drain: %d %q, want 503 draining", resp.StatusCode, hz.Status)
	}
}

// TestShutdownCancelsStragglers: when the drain deadline passes, the
// server cancels in-flight queries instead of hanging, and still exits
// leak-free.
func TestShutdownCancelsStragglers(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 2})
	started := make(chan struct{}, 2)
	srv.testExecGate = func(ctx context.Context) {
		started <- struct{}{}
		<-ctx.Done() // a straggler that only cancellation can move
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 2000}
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _ := postQuery(t, ts.URL, spec)
			codes <- status
		}()
	}
	<-started
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	for i := 0; i < 2; i++ {
		if status := <-codes; status == http.StatusOK {
			t.Error("cancelled straggler reported 200")
		}
	}
}

// TestHealthzReflectsDegradation injects storage-read faults so views
// quarantine, then checks /healthz surfaces the degraded state.
func TestHealthzReflectsDegradation(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t,
		deepsea.WithFaultInjection(deepsea.FaultConfig{Seed: 7, StorageRead: 1}),
		deepsea.WithFaultRetries(64))
	_, ts := newTestServer(t, sys, Config{MaxInFlight: 2})

	spec := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 4000}
	// First run materializes; the repeat must quarantine the unreadable
	// views and still answer.
	for i := 0; i < 2; i++ {
		if status, _, _ := postQuery(t, ts.URL, spec); status != http.StatusOK {
			t.Fatalf("query %d: status %d", i, status)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d, want 200 (degraded is alive)", resp.StatusCode)
	}
	if hz.Status != "degraded" {
		t.Errorf("healthz status %q, want degraded", hz.Status)
	}
	if len(hz.Health.Quarantined) == 0 {
		t.Error("healthz lists no quarantined files after injected read faults")
	}
}

// TestStatzAndPoolz sanity-checks the other observability endpoints.
func TestStatzAndPoolz(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	_, ts := newTestServer(t, sys, Config{})
	if status, _, _ := postQuery(t, ts.URL,
		QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 3000}); status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var sz statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sz.Health.Queries != 1 || sz.Serving.Served != 1 {
		t.Errorf("statz: %d queries / %d served, want 1/1", sz.Health.Queries, sz.Serving.Served)
	}

	resp, err = http.Get(ts.URL + "/poolz")
	if err != nil {
		t.Fatal(err)
	}
	var pz poolzResponse
	if err := json.NewDecoder(resp.Body).Decode(&pz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pz.Bytes <= 0 || len(pz.Contents) == 0 {
		t.Errorf("poolz empty after a materializing query: %d bytes, %d entries",
			pz.Bytes, len(pz.Contents))
	}
}

// TestQuerySpecValidation covers the API's client-error paths.
func TestQuerySpecValidation(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	for i, spec := range []QuerySpec{
		{Template: "Q99", Lo: 0, Hi: 1},
		{},
		{Scan: "no_such_table", Where: []WhereSpec{{Col: "x", Lo: 0, Hi: 1}}},
		{Scan: "store_sales", GroupBy: []string{"ss_item_sk"}},
	} {
		if status, _, _ := postQuery(t, ts.URL, spec); status != http.StatusBadRequest {
			t.Errorf("bad spec %d: status %d, want 400", i, status)
		}
	}
	if resp, err := http.Get(ts.URL + "/query"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
		}
	}

	// Builder form works end to end.
	status, qr, _ := postQuery(t, ts.URL, QuerySpec{
		Scan:    "store_sales",
		Join:    []JoinSpec{{Table: "item", Left: "ss_item_sk", Right: "i_item_sk"}},
		Select:  []string{"ss_item_sk", "i_category_id", "ss_sales_price"},
		Where:   []WhereSpec{{Col: "ss_item_sk", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 3000}},
		GroupBy: []string{"i_category_id"},
		Aggs:    []AggJSON{{Func: "sum", Col: "ss_sales_price", As: "revenue"}, {Func: "count", As: "n"}},
	})
	if status != http.StatusOK {
		t.Fatalf("builder-form query: status %d", status)
	}
	if len(qr.Rows) == 0 || len(qr.Columns) != 3 {
		t.Errorf("builder-form result: %d rows, columns %v", len(qr.Rows), qr.Columns)
	}
}

// TestRequestTimeout: a spec deadline that cannot be met maps to 504
// and the system stays healthy.
func TestRequestTimeout(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 1})
	var stall atomic.Bool
	stall.Store(true)
	srv.testExecGate = func(ctx context.Context) {
		if stall.Load() {
			<-ctx.Done()
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	status, _, _ := postQuery(t, ts.URL, QuerySpec{
		Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 1000,
		TimeoutMS: 30,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	stall.Store(false)
	// The slot was released; the server still serves.
	if status, _, _ := postQuery(t, ts.URL, QuerySpec{
		Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkLo + 1000,
	}); status != http.StatusOK {
		t.Fatalf("follow-up status %d, want 200", status)
	}
}

// postRange POSTs body to /admin/range and returns the status and the
// decoded answer (a rangeResponse or an ErrorResponse, by status).
func postRange(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/admin/range", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}

// TestOwnedRangeIsAssignedOnce pins set-once ownership: the first push
// sets the range; a push of the same range is a 200; a push of any other
// range — whatever else its body carries — is a 409 naming the owned
// range, which stays.
func TestOwnedRangeIsAssignedOnce(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, newTestSystem(t), Config{})

	if code, m := postRange(t, ts.URL, `{"lo":0,"hi":199999}`); code != http.StatusOK {
		t.Fatalf("first push: status %d: %v", code, m)
	}
	if code, m := postRange(t, ts.URL, `{"lo":0,"hi":199999}`); code != http.StatusOK {
		t.Fatalf("same range again: status %d: %v", code, m)
	}
	resp, err := http.Get(ts.URL + "/admin/range")
	if err != nil {
		t.Fatal(err)
	}
	var got keyRange
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != (keyRange{Lo: 0, Hi: 199999}) {
		t.Fatalf("GET /admin/range = %+v, want [0,199999]", got)
	}

	code, m := postRange(t, ts.URL, `{"lo":0,"hi":99999,"epoch":99}`)
	if code != http.StatusConflict {
		t.Fatalf("different range: status %d, want 409: %v", code, m)
	}
	if m["owned_lo"] != 0.0 || m["owned_hi"] != 199999.0 {
		t.Fatalf("409 does not name the owned range [0,199999]: %v", m)
	}
	if code, _, _ := postQuery(t, ts.URL, QuerySpec{Template: "Q1", Lo: 150000, Hi: 150100}); code != http.StatusOK {
		t.Fatalf("query inside the owned range after the refused push: status %d", code)
	}
}
