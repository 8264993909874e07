package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/server"
	"deepsea/internal/workload"
)

// --- merge-layer property tests ----------------------------------------

// wireRows round-trips a report's rows through JSON exactly as the
// coordinator receives them from a shard (numbers as json.Number).
func wireRows(t *testing.T, cols []string, rows [][]any) [][]any {
	t.Helper()
	body, err := json.Marshal(map[string]any{"columns": cols, "rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var wire struct {
		Rows [][]any `json:"rows"`
	}
	if err := dec.Decode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire.Rows
}

// fingerprint renders rows as sorted JSON lines — the byte-identity
// yardstick used across the shard tests.
func fingerprint(t *testing.T, cols []string, rows [][]any) string {
	t.Helper()
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	return strings.Join(append([]string{strings.Join(cols, ",")}, lines...), "\n")
}

// partitionSystem builds a System holding exactly the rows of the
// global test table whose index satisfies keep.
func partitionSystem(keep func(i int) bool) *deepsea.System {
	sys := deepsea.New()
	sys.MustCreateTable(deepsea.TableDef{
		Name: "t",
		Columns: []deepsea.ColumnDef{
			{Name: "item_sk", Kind: deepsea.Int, Ordered: true, Lo: 0, Hi: 9999},
			{Name: "grp", Kind: deepsea.String},
			{Name: "v", Kind: deepsea.Float},
			{Name: "q", Kind: deepsea.Int},
		},
	})
	rng := rand.New(rand.NewSource(99))
	groups := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 600; i++ {
		// Binary-exact values (quarter units) so the unsharded engine's
		// plain float fold is itself exact, making byte-equality against
		// it a fair demand (the cross-shard-count floor never needs this;
		// its reference is the 1-shard merge).
		v := float64(rng.Intn(4000)) * 0.25
		row := []any{int64(rng.Intn(10000)), groups[rng.Intn(len(groups))], v, int64(rng.Intn(9) + 1)}
		if keep(i) {
			sys.MustInsert("t", row)
		}
	}
	return sys
}

func partitionQuery(partial bool) *deepsea.Query {
	q := deepsea.Scan("t").Where("item_sk", 0, 9999).GroupBy("grp").Agg(
		deepsea.Count("n"),
		deepsea.Sum("v", "total"),
		deepsea.Avg("v", "mean"),
		deepsea.Min("q", "qmin"),
		deepsea.Max("q", "qmax"),
	)
	if partial {
		q = q.Partial()
	}
	return q
}

// TestAnyPartitionMergesIdentically is the merge determinism property:
// for k in {1, 2, 3, 7}, ANY assignment of the dataset's rows to k
// shards — including assignments that leave some shards empty — merges
// through MergePartials to a result byte-identical to the unsharded
// run. Row placement is randomized per trial, deliberately ignoring
// range ownership: the merge contract must not depend on how rows were
// partitioned, only on the multiset of rows.
func TestAnyPartitionMergesIdentically(t *testing.T) {
	whole := partitionSystem(func(int) bool { return true })
	rep, err := whole.Run(partitionQuery(false))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, rep.Columns(), wireRows(t, rep.Columns(), rep.Rows()))

	for _, k := range []int{1, 2, 3, 7} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(k*100 + trial)))
			assign := make([]int, 600)
			for i := range assign {
				assign[i] = rng.Intn(k)
			}
			if k >= 3 && trial == 0 {
				// Force an empty shard: everything assigned to shard 2
				// moves to shard 0.
				for i := range assign {
					if assign[i] == 2 {
						assign[i] = 0
					}
				}
			}
			var cols []string
			rowSets := make([][][]any, k)
			for s := 0; s < k; s++ {
				sys := partitionSystem(func(i int) bool { return assign[i] == s })
				prep, err := sys.Run(partitionQuery(true))
				if err != nil {
					t.Fatal(err)
				}
				cols = prep.Columns()
				rowSets[s] = wireRows(t, prep.Columns(), prep.Rows())
			}
			outCols, outRows, err := MergePartials(cols, rowSets)
			if err != nil {
				t.Fatalf("k=%d trial=%d: %v", k, trial, err)
			}
			got := fingerprint(t, outCols, outRows)
			if got != want {
				t.Fatalf("k=%d trial=%d: merged result differs from unsharded run\ngot:\n%s\nwant:\n%s",
					k, trial, got, want)
			}
		}
	}
}

// TestMergeSingleGroup covers the degenerate single-group (global
// aggregate) shape: no group-by columns at all.
func TestMergeSingleGroup(t *testing.T) {
	mkSys := func(keep func(i int) bool) *deepsea.System {
		sys := deepsea.New()
		sys.MustCreateTable(deepsea.TableDef{
			Name: "g",
			Columns: []deepsea.ColumnDef{
				{Name: "k", Kind: deepsea.Int, Ordered: true, Lo: 0, Hi: 99},
				{Name: "v", Kind: deepsea.Float},
			},
		})
		for i := 0; i < 100; i++ {
			if keep(i) {
				sys.MustInsert("g", []any{int64(i), float64(i) * 0.5})
			}
		}
		return sys
	}
	q := func(partial bool) *deepsea.Query {
		qq := deepsea.Scan("g").Where("k", 0, 99).GroupBy().Agg(
			deepsea.Count("n"), deepsea.Sum("v", "total"))
		if partial {
			qq = qq.Partial()
		}
		return qq
	}
	rep, err := mkSys(func(int) bool { return true }).Run(q(false))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, rep.Columns(), wireRows(t, rep.Columns(), rep.Rows()))

	var cols []string
	var rowSets [][][]any
	for s := 0; s < 3; s++ {
		prep, err := mkSys(func(i int) bool { return i%3 == s }).Run(q(true))
		if err != nil {
			t.Fatal(err)
		}
		cols = prep.Columns()
		rowSets = append(rowSets, wireRows(t, prep.Columns(), prep.Rows()))
	}
	outCols, outRows, err := MergePartials(cols, rowSets)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, outCols, outRows); got != want {
		t.Fatalf("global aggregate merge differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergePartialsRejectsMalformedSums: a replica partial whose sum
// state encode could not have emitted fails the merge with an error —
// the handler answers 500 — instead of panicking the handler goroutine
// (opposite infinities) or rounding into the answer (a mantissa longer
// than the exact accumulator holds).
func TestMergePartialsRejectsMalformedSums(t *testing.T) {
	cols := []string{"k", "total#sum"}
	for name, rows := range map[string][][][]any{
		"opposite infinities": {{{"a", "Inf"}}, {{"a", "-Inf"}}},
		"inexact mantissa":    {{{"a", "1023." + strings.Repeat("9", 759)}}, {{"a", "0"}}},
	} {
		if _, _, err := MergePartials(cols, rows); err == nil {
			t.Errorf("%s: merge succeeded", name)
		}
	}
}

// --- range unit tests --------------------------------------------------

func TestEvenSplitAndRoute(t *testing.T) {
	bounds := evenSplit(0, 99, 3)
	shards := make([]ShardInfo, len(bounds))
	next := int64(0) // the first key the ranges so far leave uncovered
	for i, b := range bounds {
		if b[0] != next || b[0] > b[1] {
			t.Fatalf("even split does not tile [0,99]: %v", bounds)
		}
		next = b[1] + 1
		shards[i] = ShardInfo{Lo: b[0], Hi: b[1]}
	}
	if next != 100 {
		t.Fatalf("even split does not tile [0,99]: %v", bounds)
	}
	if got := route(shards, 40, 99); len(got) != 2 {
		t.Fatalf("route(40,99) = %d slices, want 2", len(got))
	}
	one := route(shards, 5, 10)
	if len(one) != 1 || one[0].shard != 0 || one[0].lo != 5 || one[0].hi != 10 {
		t.Fatalf("route(5,10) = %+v", one)
	}
	// Slices must tile the query range exactly.
	all := route(shards, 0, 99)
	var covered int64
	for _, sl := range all {
		covered += sl.hi - sl.lo + 1
	}
	if covered != 100 {
		t.Fatalf("slices cover %d keys, want 100", covered)
	}
}

// --- in-process cluster tests ------------------------------------------

var (
	clusterDataOnce sync.Once
	clusterData     *workload.Data
)

// newCluster boots k shard servers (each a full System with the same
// workload data) plus a coordinator routing the item_sk domain across
// them. Returns the coordinator and a closer.
func newCluster(t *testing.T, k int) (*Coordinator, []*httptest.Server) {
	t.Helper()
	clusterDataOnce.Do(func() { clusterData = workload.Generate(1, 1, nil) })
	var servers []*httptest.Server
	var groups [][]string
	for i := 0; i < k; i++ {
		sys := deepsea.New()
		if err := workload.Load(sys, clusterData); err != nil {
			t.Fatal(err)
		}
		srv := server.New(sys, server.Config{MaxInFlight: 4})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		groups = append(groups, []string{ts.URL})
	}
	c, err := New(Config{
		Groups:         groups,
		DomainLo:       workload.ItemSkLo,
		DomainHi:       workload.ItemSkHi,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c, servers
}

func coordQuery(t *testing.T, c *Coordinator, spec string) (*http.Response, Response, server.ErrorResponse) {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	dec := json.NewDecoder(io2(&buf, resp))
	dec.UseNumber()
	var out Response
	var eresp server.ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("decode: %v (body %q)", err, buf.String())
		}
	} else {
		if err := dec.Decode(&eresp); err != nil {
			t.Fatalf("decode error body: %v (body %q)", err, buf.String())
		}
	}
	return resp, out, eresp
}

// io2 tees the response body so failures can show it.
func io2(buf *bytes.Buffer, resp *http.Response) *bytes.Buffer {
	buf.ReadFrom(resp.Body)
	return buf
}

// TestScatterGatherIdenticalAcrossShardCounts is the tentpole
// correctness claim, in process: the same spanning query answered by
// 1-, 2- and 3-shard clusters produces byte-identical merged results.
func TestScatterGatherIdenticalAcrossShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	specs := []string{
		fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`, workload.ItemSkLo, workload.ItemSkHi),
		`{"template":"Q30","lo":100000,"hi":300000}`,
		`{"template":"Q16","lo":0,"hi":250000}`,
	}
	var want []string
	for _, k := range []int{1, 2, 3} {
		c, _ := newCluster(t, k)
		for si, spec := range specs {
			resp, out, eresp := coordQuery(t, c, spec)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("k=%d spec %d: status %d: %s", k, si, resp.StatusCode, eresp.Error)
			}
			fp := fingerprint(t, out.Columns, out.Rows)
			if k == 1 {
				want = append(want, fp)
				continue
			}
			if fp != want[si] {
				t.Errorf("k=%d spec %d: result differs from 1-shard run", k, si)
			}
		}
	}
}

// TestSingleRangeRoutesToOneShard checks the router sends a query whose
// range lies inside one shard to that shard only.
func TestSingleRangeRoutesToOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, _ := newCluster(t, 3)
	resp, out, eresp := coordQuery(t, c, `{"template":"Q1","lo":1000,"hi":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, eresp.Error)
	}
	if out.ShardsContacted != 1 {
		t.Fatalf("shards contacted = %d, want 1", out.ShardsContacted)
	}
}

// TestCoordinatorNamesFailedRange kills one shard and checks a spanning
// query fails fast with a 503 naming the dead shard's range slice.
func TestCoordinatorNamesFailedRange(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, servers := newCluster(t, 3)
	dead := c.Shards()[1]
	servers[1].Close()

	spec := fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`, workload.ItemSkLo, workload.ItemSkHi)
	resp, _, eresp := coordQuery(t, c, spec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if eresp.FailedLo == nil || eresp.FailedHi == nil ||
		*eresp.FailedLo != dead.Lo || *eresp.FailedHi != dead.Hi {
		t.Fatalf("503 does not name the dead range [%d,%d]: %+v", dead.Lo, dead.Hi, eresp)
	}
	if !strings.Contains(eresp.Error, fmt.Sprintf("[%d,%d]", dead.Lo, dead.Hi)) {
		t.Fatalf("error text does not name the range: %q", eresp.Error)
	}

	// Queries inside surviving shards still work.
	resp, out, eresp := coordQuery(t, c, `{"template":"Q1","lo":1000,"hi":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving-shard query: status %d: %s", resp.StatusCode, eresp.Error)
	}
	if out.ShardsContacted != 1 {
		t.Fatalf("surviving-shard query contacted %d shards", out.ShardsContacted)
	}
}

// TestOutOfRangeQueryRejected: a shard refuses a query outside the
// range it owns with a 409 naming that range.
func TestOutOfRangeQueryRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, servers := newCluster(t, 2)
	own, other := c.Shards()[0], c.Shards()[1]
	body := fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`, other.Lo, other.Lo+100)
	resp, err := http.Post(servers[0].URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("query outside the owned range: status %d, want 409", resp.StatusCode)
	}
	var re server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&re); err != nil {
		t.Fatal(err)
	}
	if re.OwnedLo == nil || re.OwnedHi == nil || *re.OwnedLo != own.Lo || *re.OwnedHi != own.Hi {
		t.Fatalf("409 body does not name the owned range: %+v (want [%d,%d])", re, own.Lo, own.Hi)
	}
}

// oversizedBody streams a JSON document of server.MaxBodyBytes+1 bytes:
// prefix, then one string value long enough to cross the cap.
type oversizedBody struct {
	prefix string
	sent   int
}

func (b *oversizedBody) Read(p []byte) (int, error) {
	const size = server.MaxBodyBytes + 1
	if b.sent >= size {
		return 0, io.EOF
	}
	n := min(len(p), size-b.sent)
	for i := range p[:n] {
		if at := b.sent + i; at < len(b.prefix) {
			p[i] = b.prefix[at]
		} else {
			p[i] = 'a'
		}
	}
	b.sent += n
	return n, nil
}

// TestOversizedBodyIs413: a request streaming a body one byte over the
// cap is a 413 on both tiers' /query and /append, and each tier still
// answers after. The body declares its length, so neither tier reads it;
// server.TestReadRequestCapsUndeclaredBodies covers a body that does not.
func TestOversizedBodyIs413(t *testing.T) {
	c, servers := newKeyedCluster(t, 1)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	for _, base := range []string{servers[0].URL, front.URL} {
		for path, prefix := range map[string]string{"/query": `{"template":"`, "/append": `{"table":"`} {
			req, err := http.NewRequest(http.MethodPost, base+path, &oversizedBody{prefix: prefix})
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = server.MaxBodyBytes + 1
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s%s: %v", base, path, err)
			}
			var e server.ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
				t.Errorf("%s%s: status %d, body %+v (%v); want 413 with an error", base, path, resp.StatusCode, e, err)
			}
		}
		resp, err := http.Post(base+"/query", "application/json",
			strings.NewReader(`{"template":"Q1","lo":0,"hi":3000}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s/query after the oversized bodies: status %d", base, resp.StatusCode)
		}
	}
}
