package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/ingest"
	"deepsea/internal/server"
	"deepsea/internal/workload"
)

// testKeyIndex is the workload's routing-key map: fact tables split by
// their item_sk column; dimensions (absent) broadcast to every group.
var testKeyIndex = map[string]int{
	"store_sales":     0,
	"web_clickstream": 0,
	"product_reviews": 0,
}

// newKeyedCluster is newCluster plus the ingest routing-key config.
func newKeyedCluster(t *testing.T, k int) (*Coordinator, []*httptest.Server) {
	t.Helper()
	clusterDataOnce.Do(func() { clusterData = workload.Generate(1, 1, nil) })
	var servers []*httptest.Server
	var groups [][]string
	for i := 0; i < k; i++ {
		sys := deepsea.New()
		if err := workload.Load(sys, clusterData); err != nil {
			t.Fatal(err)
		}
		srv := server.New(sys, server.Config{MaxInFlight: 8})
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
		KeyIndex:       testKeyIndex,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c, servers
}

// salesBatch builds n valid store_sales rows whose item keys are spread
// over the whole domain (so a k>1 cluster must split the batch) and
// whose foreign keys land on existing dimension rows.
func salesBatch(seed int64, n int) [][]any {
	rng := rand.New(rand.NewSource(9000 + seed))
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []any{
			clusterData.ItemKeys[rng.Intn(len(clusterData.ItemKeys))],
			int64(rng.Intn(200)),
			int64(rng.Intn(20)),
			int64(rng.Intn(20) + 1),
			float64(rng.Intn(50000)) / 100,
			int64(rng.Intn(365)),
			"",
		})
	}
	return rows
}

// coordAppend posts one append spec to the coordinator.
func coordAppend(t *testing.T, c *Coordinator, sp ingest.Spec) (int, AppendResponse, server.ErrorResponse) {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	body, err := json.Marshal(&sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var out AppendResponse
	var eresp server.ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decode: %v (body %q)", err, buf.String())
		}
	} else {
		if err := json.Unmarshal(buf.Bytes(), &eresp); err != nil {
			t.Fatalf("decode error body: %v (body %q)", err, buf.String())
		}
	}
	return resp.StatusCode, out, eresp
}

func coordStatz(t *testing.T, c *Coordinator) map[string]any {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCoordinatorAppendRoutesAndMatches is the sharded half of the
// ingest identity claim: the same appends routed through 1- and 2-group
// clusters leave every template's full-domain result byte-identical.
// Keyed batches split per owning group; the keyless customer batch
// broadcasts to every group.
func TestCoordinatorAppendRoutesAndMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	specs := []string{
		fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`, workload.ItemSkLo, workload.ItemSkHi),
		fmt.Sprintf(`{"template":"Q7","lo":%d,"hi":%d}`, workload.ItemSkLo, workload.ItemSkHi),
		fmt.Sprintf(`{"template":"Q9","lo":%d,"hi":%d}`, workload.ItemSkLo, workload.ItemSkHi),
		fmt.Sprintf(`{"template":"Q16","lo":%d,"hi":%d}`, workload.ItemSkLo, workload.ItemSkHi),
	}
	var want []string
	for _, k := range []int{1, 2} {
		c, _ := newKeyedCluster(t, k)

		// Keyed fact append: item keys span the domain, so every group
		// owns a slice.
		sales := salesBatch(42, 150)
		status, out, eresp := coordAppend(t, c, ingest.Spec{Table: "store_sales", Rows: sales})
		if status != http.StatusOK {
			t.Fatalf("k=%d sales append: status %d: %s", k, status, eresp.Error)
		}
		if out.Rows != 150 || out.GroupsContacted != k || out.ReplicasAppended != k {
			t.Fatalf("k=%d sales append routing: %+v (want rows=150 groups=%d replicas=%d)", k, out, k, k)
		}

		// Keyless dimension append: broadcasts whole to every group. The
		// new customers join nothing yet, so results must not change —
		// but a group missing the broadcast would diverge later.
		cust := [][]any{
			{int64(5000), int64(41), 75000.0, ""},
			{int64(5001), int64(29), 52000.0, ""},
		}
		status, out, eresp = coordAppend(t, c, ingest.Spec{Table: "customer", Rows: cust})
		if status != http.StatusOK {
			t.Fatalf("k=%d customer append: status %d: %s", k, status, eresp.Error)
		}
		if out.GroupsContacted != k || out.ReplicasAppended != k {
			t.Fatalf("k=%d customer broadcast: %+v (want groups=%d)", k, out, k)
		}

		for si, spec := range specs {
			resp, qout, qerr := coordQuery(t, c, spec)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("k=%d spec %d: status %d: %s", k, si, resp.StatusCode, qerr.Error)
			}
			fp := fingerprint(t, qout.Columns, qout.Rows)
			if k == 1 {
				want = append(want, fp)
				continue
			}
			if fp != want[si] {
				t.Errorf("k=%d spec %d: post-append result differs from 1-group run", k, si)
			}
		}

		st := coordStatz(t, c)
		if got := st["appends_routed"].(float64); got != 2 {
			t.Fatalf("k=%d statz appends_routed = %v, want 2", k, got)
		}
		if got := st["append_rows"].(float64); got != 152 {
			t.Fatalf("k=%d statz append_rows = %v, want 152", k, got)
		}
	}
}

// TestCoordinatorAppendSplitLandsOnOwnersOnly checks a keyed batch whose
// keys all fall in one group's range contacts exactly that group.
func TestCoordinatorAppendSplitLandsOnOwnersOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, _ := newKeyedCluster(t, 3)
	sh := c.Shards()[1]
	rows := [][]any{
		{sh.Lo, int64(1), int64(1), int64(2), 9.75, int64(10), ""},
		{sh.Hi, int64(2), int64(2), int64(3), 4.25, int64(11), ""},
	}
	status, out, eresp := coordAppend(t, c, ingest.Spec{Table: "store_sales", Rows: rows})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, eresp.Error)
	}
	if out.GroupsContacted != 1 || out.ReplicasAppended != 1 {
		t.Fatalf("single-range batch contacted %d groups / %d replicas, want 1/1", out.GroupsContacted, out.ReplicasAppended)
	}
}

// TestCoordinatorAppendBadKeys covers the 400 paths: a routing key
// outside the domain, a non-integer key, and a row too narrow for the
// key index. None of them may land any rows.
func TestCoordinatorAppendBadKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, _ := newKeyedCluster(t, 1)
	cases := []ingest.Spec{
		{Table: "store_sales", Rows: [][]any{{workload.ItemSkHi + 1, int64(1), int64(1), int64(1), 1.0, int64(1), ""}}},
		{Table: "store_sales", Rows: [][]any{{"not-a-key", int64(1), int64(1), int64(1), 1.0, int64(1), ""}}},
		{Table: "store_sales", Rows: [][]any{{}}},
	}
	for i, sp := range cases {
		status, _, eresp := coordAppend(t, c, sp)
		if status != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400 (%s)", i, status, eresp.Error)
		}
	}
	st := coordStatz(t, c)
	if got := st["appends_routed"].(float64); got != 0 {
		t.Fatalf("bad appends counted as routed: %v", got)
	}
}

// TestCoordinatorAppendDeadGroupFails kills one group and checks a
// spanning append fails with 502 naming the dead range — writes have no
// routing-around — while a batch owned entirely by a live group still
// lands.
func TestCoordinatorAppendDeadGroupFails(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, servers := newKeyedCluster(t, 3)
	dead := c.Shards()[1]
	servers[1].Close()

	status, _, eresp := coordAppend(t, c, ingest.Spec{Table: "store_sales", Rows: salesBatch(77, 60)})
	if status != http.StatusBadGateway {
		t.Fatalf("spanning append with dead group: status %d, want 502", status)
	}
	if eresp.FailedLo == nil || eresp.FailedHi == nil ||
		*eresp.FailedLo != dead.Lo || *eresp.FailedHi != dead.Hi {
		t.Fatalf("502 does not name the dead range [%d,%d]: %+v", dead.Lo, dead.Hi, eresp)
	}

	live := c.Shards()[0]
	rows := [][]any{{live.Lo, int64(1), int64(1), int64(1), 1.0, int64(1), ""}}
	status, out, eresp := coordAppend(t, c, ingest.Spec{Table: "store_sales", Rows: rows})
	if status != http.StatusOK {
		t.Fatalf("live-group append: status %d: %s", status, eresp.Error)
	}
	if out.GroupsContacted != 1 {
		t.Fatalf("live-group append contacted %d groups", out.GroupsContacted)
	}
}

// TestCoordinatorAppendLandsOnEveryReplica checks the write policy on a
// replicated cluster: a spanning batch lands on both replicas of both
// groups, so with each group's primary closed a spanning query fails
// over to the followers and returns the bytes it returned before.
func TestCoordinatorAppendLandsOnEveryReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, groups := newReplicatedCluster(t, 2, 2, func(cfg *Config) { cfg.KeyIndex = testKeyIndex })

	status, out, eresp := coordAppend(t, c, ingest.Spec{Table: "store_sales", Rows: salesBatch(55, 64)})
	if status != http.StatusOK {
		t.Fatalf("spanning append: status %d: %s", status, eresp.Error)
	}
	if out.GroupsContacted != 2 || out.ReplicasAppended != 4 {
		t.Fatalf("spanning append contacted %d groups / %d replicas, want 2/4", out.GroupsContacted, out.ReplicasAppended)
	}

	resp, before, qerr := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query before close: status %d: %s", resp.StatusCode, qerr.Error)
	}
	groups[0][0].Close()
	groups[1][0].Close()
	resp, after, qerr := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query with both primaries closed: status %d: %s", resp.StatusCode, qerr.Error)
	}
	if after.Failovers < 2 {
		t.Fatalf("query reports %d failovers, want ≥2 (one per group)", after.Failovers)
	}
	if fingerprint(t, after.Columns, after.Rows) != fingerprint(t, before.Columns, before.Rows) {
		t.Fatal("followers answer differently from primaries: the append missed a replica")
	}
}

// TestCoordinatorAppendRetryDoesNotDuplicate: a client that retries a
// spanning append with the same token lands every row once. The ranges
// never change, so the retry slices the batch as the first attempt did,
// each slice carries the same per-range token, and each group answers it
// from its dedup window.
func TestCoordinatorAppendRetryDoesNotDuplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, servers := newKeyedCluster(t, 2)

	const n = 60
	sp := ingest.Spec{Table: "store_sales", Rows: salesBatch(21, n), Token: "batch-21"}
	for attempt := 0; attempt < 2; attempt++ {
		status, out, eresp := coordAppend(t, c, sp)
		if status != http.StatusOK {
			t.Fatalf("attempt %d: status %d: %s", attempt, status, eresp.Error)
		}
		if out.Rows != n || out.GroupsContacted != 2 || out.ReplicasAppended != 2 {
			t.Fatalf("attempt %d routing: %+v", attempt, out)
		}
		if out.Token != "batch-21" {
			t.Fatalf("attempt %d: response token = %q, want the client's batch-21", attempt, out.Token)
		}
	}

	// Every row exactly once: the per-server ingest counters sum to the
	// batch size (a duplicated slice would overshoot), and each group
	// answered the retry from its dedup window.
	var total uint64
	var dedups uint64
	for _, ts := range servers {
		var sz struct {
			Health  deepsea.Health `json:"health"`
			Serving struct {
				AppendDedups uint64 `json:"append_dedups"`
			} `json:"serving"`
		}
		r, err := http.Get(ts.URL + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&sz); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		total += sz.Health.IngestAppendedRows
		dedups += sz.Serving.AppendDedups
	}
	if total != n {
		t.Fatalf("cluster holds %d appended rows, want exactly %d (the retry duplicated a slice)", total, n)
	}
	if dedups != 2 {
		t.Fatalf("append_dedups across servers = %d, want 2 (one per group)", dedups)
	}
}

// TestRestartedCoordinatorServesTheSameCluster: a second coordinator
// over the same groups and config — a restarted one — computes the same
// routing table, passes Init on its first call, and serves the rows the
// first one appended.
func TestRestartedCoordinatorServesTheSameCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	c, servers := newKeyedCluster(t, 2)
	status, _, eresp := coordAppend(t, c, ingest.Spec{Table: "store_sales", Rows: salesBatch(42, 150)})
	if status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, eresp.Error)
	}
	resp, before, qerr := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, qerr.Error)
	}

	var groups [][]string
	for _, ts := range servers {
		groups = append(groups, []string{ts.URL})
	}
	c2, err := New(Config{
		Groups:         groups,
		DomainLo:       workload.ItemSkLo,
		DomainHi:       workload.ItemSkHi,
		RequestTimeout: 30 * time.Second,
		KeyIndex:       testKeyIndex,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Init(context.Background()); err != nil {
		t.Fatalf("restarted coordinator's first Init: %v", err)
	}
	resp, after, qerr := coordQuery(t, c2, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query through the restarted coordinator: status %d: %s", resp.StatusCode, qerr.Error)
	}
	if fingerprint(t, after.Columns, after.Rows) != fingerprint(t, before.Columns, before.Rows) {
		t.Fatal("restarted coordinator answers differently")
	}
	if status, _, eresp := coordAppend(t, c2, ingest.Spec{Table: "store_sales", Rows: salesBatch(43, 20)}); status != http.StatusOK {
		t.Fatalf("append through the restarted coordinator: status %d: %s", status, eresp.Error)
	}
}
