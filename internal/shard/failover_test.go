package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/ingest"
	"deepsea/internal/leakcheck"
	"deepsea/internal/server"
	"deepsea/internal/workload"
)

// newReplicatedCluster boots k replica groups of r shard servers each
// (every server a full System over the same dataset) behind a
// coordinator. mut, when non-nil, tweaks the coordinator config before
// New. Returns the coordinator and the backends as groups[gi][ri].
func newReplicatedCluster(t *testing.T, k, r int, mut func(*Config)) (*Coordinator, [][]*httptest.Server) {
	t.Helper()
	clusterDataOnce.Do(func() { clusterData = workload.Generate(1, 1, nil) })
	groups := make([][]*httptest.Server, k)
	addrGroups := make([][]string, k)
	for gi := 0; gi < k; gi++ {
		for ri := 0; ri < r; ri++ {
			sys := deepsea.New()
			if err := workload.Load(sys, clusterData); err != nil {
				t.Fatal(err)
			}
			srv := server.New(sys, server.Config{MaxInFlight: 4})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			groups[gi] = append(groups[gi], ts)
			addrGroups[gi] = append(addrGroups[gi], ts.URL)
		}
	}
	cfg := Config{
		Groups:         addrGroups,
		DomainLo:       workload.ItemSkLo,
		DomainHi:       workload.ItemSkHi,
		RequestTimeout: 30 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c, groups
}

func spanningSpec() string {
	return fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`, workload.ItemSkLo, workload.ItemSkHi)
}

// TestReplicatedInitPushesRoles verifies Init assigns every replica of
// a group the group's range, with primary/follower roles.
func TestReplicatedInitPushesRoles(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	leakcheck.Check(t)
	c, groups := newReplicatedCluster(t, 2, 2, nil)
	for gi, sh := range c.Shards() {
		if len(sh.Replicas) != 2 {
			t.Fatalf("group %d routing entry has %d replicas, want 2", gi, len(sh.Replicas))
		}
		for ri, ts := range groups[gi] {
			resp, err := http.Get(ts.URL + "/admin/range")
			if err != nil {
				t.Fatal(err)
			}
			var rr struct {
				Lo   int64  `json:"lo"`
				Hi   int64  `json:"hi"`
				Role string `json:"role"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if rr.Lo != sh.Lo || rr.Hi != sh.Hi {
				t.Fatalf("group %d replica %d owns [%d,%d], want [%d,%d]",
					gi, ri, rr.Lo, rr.Hi, sh.Lo, sh.Hi)
			}
			want := server.RoleFollower
			if ri == 0 {
				want = server.RolePrimary
			}
			if rr.Role != want {
				t.Fatalf("group %d replica %d role %q, want %q", gi, ri, rr.Role, want)
			}
		}
	}
}

// TestFailoverToFollower is the tentpole availability claim in process:
// with the primary of one group dead, a burst of spanning queries all
// succeed — answered by the follower — with merged bytes identical to
// the healthy run's. The dead primary costs at most one failed attempt
// per query already in flight: once the follower has answered,
// preference sends every later query straight to it.
func TestFailoverToFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	leakcheck.Check(t)
	c, groups := newReplicatedCluster(t, 2, 2, nil)

	resp, healthy, eresp := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy query: status %d: %s", resp.StatusCode, eresp.Error)
	}
	want := fingerprint(t, healthy.Columns, healthy.Rows)

	groups[0][0].Close() // kill group 0's primary

	const burst = 8
	type result struct {
		status int
		out    Response
		err    error
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	results := make([]result, burst)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[i]
			resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(spanningSpec()))
			if err != nil {
				r.err = err
				return
			}
			defer resp.Body.Close()
			r.status = resp.StatusCode
			dec := json.NewDecoder(resp.Body)
			dec.UseNumber()
			r.err = dec.Decode(&r.out)
		}()
	}
	wg.Wait()
	var failovers int
	for i, r := range results {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("burst query %d with dead primary: status %d, err %v", i, r.status, r.err)
		}
		if got := fingerprint(t, r.out.Columns, r.out.Rows); got != want {
			t.Fatalf("burst query %d diverges from healthy run:\n got %s\nwant %s", i, got, want)
		}
		failovers += r.out.Failovers
	}
	if failovers < 1 || c.failovers.Load() == 0 {
		t.Fatalf("burst reports %d failovers (counter %d), want ≥1", failovers, c.failovers.Load())
	}

	// Preference learning: the follower answered, so later queries go
	// straight to it — no failover, no error-path cost.
	for i := 0; i < 10; i++ {
		resp, out, eresp := coordQuery(t, c, spanningSpec())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential query %d: status %d: %s", i, resp.StatusCode, eresp.Error)
		}
		if out.Failovers != 0 {
			t.Fatalf("sequential query %d still paid %d failovers; preferred replica not updated", i, out.Failovers)
		}
	}
	st := coordStatz(t, c)
	if extra := st["attempts"].(float64) - st["scattered"].(float64); extra > burst {
		t.Fatalf("statz attempts − scattered = %v, want ≤ %d (one failed attempt per in-flight query)", extra, burst)
	}
}

// coordHealthz reads the coordinator's /healthz.
func coordHealthz(t *testing.T, c *Coordinator) healthzResponse {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	return hz
}

// replicaHealthOf finds one replica's entry on /healthz.
func replicaHealthOf(hz healthzResponse, addr string) (replicaHealth, bool) {
	for _, sh := range hz.Shards {
		for _, rh := range sh.ReplicaHealth {
			if rh.Addr == addr {
				return rh, true
			}
		}
	}
	return replicaHealth{}, false
}

// TestTransientErrorsDoNotCloseTheGroup: a burst of transient 503s from
// every replica of a group fails the queries it hits, and nothing more.
// The first query after the replicas recover is answered, with the same
// bytes as before the burst.
func TestTransientErrorsDoNotCloseTheGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	leakcheck.Check(t)
	var ct *ChaosTransport
	c, _ := newReplicatedCluster(t, 1, 2, func(cfg *Config) {
		ct = &ChaosTransport{Seed: 5, Err5xxProb: 1}
		ct.SetArmed(false) // keep Init's range pushes clean
		cfg.Transport = ct
	})

	resp, clean, eresp := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undisturbed query: status %d: %s", resp.StatusCode, eresp.Error)
	}
	want := fingerprint(t, clean.Columns, clean.Rows)

	ct.SetArmed(true)
	for i := 0; i < 3; i++ {
		resp, _, eresp := coordQuery(t, c, spanningSpec())
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("armed query %d: status %d, want 503 (%s)", i, resp.StatusCode, eresp.Error)
		}
	}
	if _, fives, _ := ct.Counters(); fives < 6 {
		t.Fatalf("chaos transport injected %d 503s, want ≥6 (both replicas, 3 queries)", fives)
	}

	ct.SetArmed(false)
	resp, out, eresp := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query after the 503s stopped: status %d: %s", resp.StatusCode, eresp.Error)
	}
	if got := fingerprint(t, out.Columns, out.Rows); got != want {
		t.Fatalf("post-recovery result diverges from undisturbed run:\n got %s\nwant %s", got, want)
	}
}

// TestAllReplicasDeadFailsNamingRange kills a whole group and checks the
// coordinator still fails fast with a 503 naming the dead range.
func TestAllReplicasDeadFailsNamingRange(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	leakcheck.Check(t)
	c, groups := newReplicatedCluster(t, 2, 2, nil)
	dead := c.Shards()[1]
	groups[1][0].Close()
	groups[1][1].Close()

	start := time.Now()
	resp, _, eresp := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if eresp.FailedLo == nil || eresp.FailedHi == nil ||
		*eresp.FailedLo != dead.Lo || *eresp.FailedHi != dead.Hi {
		t.Fatalf("503 does not name the dead range [%d,%d]: %+v", dead.Lo, dead.Hi, eresp)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("dead-group failure took %v; want prompt connection-refused failover", took)
	}
}

// TestStragglerIsWaitedOutNotRaced pins one attempt per subquery: a
// primary that answers slowly but within RequestTimeout is waited out,
// not raced against its follower. The answer is the undelayed one, and
// /statz counts exactly one replica attempt per range subquery.
func TestStragglerIsWaitedOutNotRaced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	leakcheck.Check(t)
	var ct *ChaosTransport
	c, _ := newReplicatedCluster(t, 1, 2, func(cfg *Config) {
		u, err := url.Parse(cfg.Groups[0][0])
		if err != nil {
			t.Fatal(err)
		}
		ct = &ChaosTransport{
			Seed:        3,
			LatencyProb: 1,
			Latency:     time.Second,
			Hosts:       map[string]bool{u.Host: true},
		}
		ct.SetArmed(false) // keep Init's range pushes clean
		cfg.RequestTimeout = 2 * time.Second
		cfg.Transport = ct
	})

	resp, fast, eresp := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undelayed query: status %d: %s", resp.StatusCode, eresp.Error)
	}
	want := fingerprint(t, fast.Columns, fast.Rows)

	ct.SetArmed(true)
	resp, out, eresp := coordQuery(t, c, spanningSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delayed query: status %d: %s", resp.StatusCode, eresp.Error)
	}
	if got := fingerprint(t, out.Columns, out.Rows); got != want {
		t.Fatalf("delayed result diverges from undelayed run:\n got %s\nwant %s", got, want)
	}
	if _, _, slows := ct.Counters(); slows == 0 {
		t.Fatal("chaos transport delayed nothing; the primary was not the replica asked")
	}

	if st := coordStatz(t, c); st["attempts"] != st["scattered"] {
		t.Fatalf("statz attempts %v != scattered %v: a subquery was sent to more than one replica",
			st["attempts"], st["scattered"])
	}
}

// TestProberRevivesReplica checks the background prober hands a
// group's preference back to its healthy primary even when no query
// touches the group, and that its observation reaches /healthz.
func TestProberRevivesReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	leakcheck.Check(t)
	c, _ := newReplicatedCluster(t, 1, 2, func(cfg *Config) {
		cfg.ProbeInterval = 25 * time.Millisecond
	})
	follower := c.Shards()[0].Replicas[1]

	c.preferred[0].Store(1) // as if failover had moved preference to the follower
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.preferred[0].Load() != 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if p := c.preferred[0].Load(); p != 0 {
		t.Fatalf("prober did not restore the healthy primary as preferred (preferred=%d)", p)
	}
	// And the probe observation reaches /healthz: the follower reports
	// owning its group's range once its ownership fetch has run.
	var owns bool
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		rh, _ := replicaHealthOf(coordHealthz(t, c), follower)
		if owns = rh.OwnsRange; owns {
			break
		}
	}
	if !owns {
		t.Fatal("healthz owns_range is false for the follower")
	}
}

// TestProberAssignsRangeToLateReplica: a follower unreachable during
// Init misses its range push; Init still succeeds because the group's
// primary accepts. Once the follower is reachable the prober assigns it
// the range, and appends to its group — which must land on every
// replica — succeed again.
func TestProberAssignsRangeToLateReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	leakcheck.Check(t)
	var ct *ChaosTransport
	c, groups := newReplicatedCluster(t, 2, 2, func(cfg *Config) {
		u, err := url.Parse(cfg.Groups[0][1])
		if err != nil {
			t.Fatal(err)
		}
		// Armed from the start: group 0's follower is unreachable from the
		// coordinator during Init.
		ct = &ChaosTransport{Seed: 7, DropProb: 1, Hosts: map[string]bool{u.Host: true}}
		cfg.Transport = ct
		cfg.ProbeInterval = 25 * time.Millisecond
		cfg.KeyIndex = testKeyIndex
	})
	follower := groups[0][1].URL
	if drops, _, _ := ct.Counters(); drops == 0 {
		t.Fatal("chaos transport dropped nothing; the follower did not miss its range push")
	}
	ct.SetArmed(false)

	sh := c.Shards()[0]
	var got struct {
		Lo int64 `json:"lo"`
		Hi int64 `json:"hi"`
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(follower + "/admin/range")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Lo == sh.Lo && got.Hi == sh.Hi {
			break
		}
	}
	if got.Lo != sh.Lo || got.Hi != sh.Hi {
		t.Fatalf("follower owns [%d,%d], want its group's [%d,%d]", got.Lo, got.Hi, sh.Lo, sh.Hi)
	}
	var rh replicaHealth
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if rh, _ = replicaHealthOf(coordHealthz(t, c), follower); rh.Repushes >= 1 && rh.OwnsRange {
			break
		}
	}
	if rh.Repushes < 1 || !rh.OwnsRange {
		t.Fatalf("healthz for the follower: repushes = %d, owns_range = %v; want ≥1 and true", rh.Repushes, rh.OwnsRange)
	}

	rows := [][]any{{sh.Lo, int64(1), int64(1), int64(1), 1.0, int64(1), ""}}
	status, out, eresp := coordAppend(t, c, ingest.Spec{Table: "store_sales", Rows: rows})
	if status != http.StatusOK {
		t.Fatalf("append to the late replica's group: status %d: %s", status, eresp.Error)
	}
	if out.ReplicasAppended != 2 {
		t.Fatalf("append landed on %d replicas, want 2", out.ReplicasAppended)
	}
}

// TestProberTreatsUnhealthyHealthzAsFailure: a primary that is
// reachable but reports itself unhealthy (non-2xx /healthz, e.g.
// draining) must not get its group's preference back from the prober.
func TestProberTreatsUnhealthyHealthzAsFailure(t *testing.T) {
	leakcheck.Check(t)
	unhealthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
	}))
	defer unhealthy.Close()
	c, err := New(Config{
		Groups:   [][]string{{unhealthy.URL, "http://127.0.0.1:0"}},
		DomainLo: 0, DomainHi: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.preferred[0].Store(1) // failover moved preference to the follower

	c.probeOne(0, 0)

	if p := c.preferred[0].Load(); p != 1 {
		t.Fatalf("unhealthy primary restored as preferred (preferred=%d)", p)
	}
}

// TestHealthzReportsDeadReplica checks the operational surface: a dead
// replica shows up on /healthz as unreachable, the coordinator degrades
// instead of lying, and /statz counts the failover around it.
func TestHealthzReportsDeadReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system cluster test")
	}
	leakcheck.Check(t)
	c, groups := newReplicatedCluster(t, 2, 2, nil)
	groups[0][0].Close()
	if resp, _, eresp := coordQuery(t, c, spanningSpec()); resp.StatusCode != http.StatusOK {
		t.Fatalf("query with dead primary: status %d: %s", resp.StatusCode, eresp.Error)
	}

	hz := coordHealthz(t, c)
	if hz.Status != "degraded" {
		t.Fatalf("healthz status %q with a dead replica, want degraded", hz.Status)
	}
	if rh, ok := replicaHealthOf(hz, groups[0][0].URL); !ok || rh.Reachable {
		t.Fatalf("healthz does not mark the dead replica unreachable: %+v", rh)
	}
	if st := coordStatz(t, c); st["failovers"].(float64) == 0 {
		t.Fatal("statz failovers counter is zero after routing around a dead replica")
	}
}
