package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/server"
	"deepsea/internal/workload"
)

// TestHelperShardProcess is not a test: it is the subprocess body of
// the multi-process cluster smoke below. It boots a full System over
// the standard dataset, serves the shard HTTP API on an ephemeral
// port, publishes the address into the smoke directory and serves
// until killed — there is no clean shutdown path, by design.
func TestHelperShardProcess(t *testing.T) {
	dir := os.Getenv("DEEPSEA_SHARD_SMOKE_DIR")
	id := os.Getenv("DEEPSEA_SHARD_SMOKE_ID")
	if os.Getenv("DEEPSEA_SHARD_SMOKE_HELPER") != "1" || dir == "" || id == "" {
		t.Skip("shard-smoke helper process only")
	}
	sys := deepsea.New()
	if err := workload.Load(sys, workload.Generate(1, 1, nil)); err != nil {
		t.Fatalf("helper: load: %v", err)
	}
	srv := server.New(sys, server.Config{MaxInFlight: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("helper: listen: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "addr."+id),
		[]byte("http://"+ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("helper: write addr: %v", err)
	}
	// Serve until SIGKILL.
	_ = http.Serve(ln, srv.Handler())
}

// startShardProcess launches one shard helper subprocess and waits for
// it to publish its base URL.
func startShardProcess(t *testing.T, dir string, id int) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(dir, fmt.Sprintf("addr.%d", id))
	_ = os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperShardProcess$")
	cmd.Env = append(os.Environ(),
		"DEEPSEA_SHARD_SMOKE_HELPER=1",
		"DEEPSEA_SHARD_SMOKE_DIR="+dir,
		fmt.Sprintf("DEEPSEA_SHARD_SMOKE_ID=%d", id))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start shard %d: %v", id, err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			return cmd, string(raw)
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatalf("shard %d never published an address; output:\n%s", id, out.String())
	return nil, ""
}

// smokePost runs one query against a coordinator URL and returns the
// status plus a canonical rendering of the merged result (columns
// header, then rows in coordinator order — the merge sorts
// deterministically, so order is part of the byte contract).
func smokePost(t *testing.T, url, spec string) (int, string, errResponse) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decode error body (HTTP %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, "", e
	}
	var qr Response
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	lines := make([]string, 0, len(qr.Rows)+1)
	lines = append(lines, strings.Join(qr.Columns, ","))
	for _, row := range qr.Rows {
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	return resp.StatusCode, strings.Join(lines, "\n"), errResponse{}
}

// TestShardClusterSmoke is the CI multi-process acceptance test: a
// coordinator over three real shard subprocesses answers a mixed-range
// trace byte-identically to a single-shard in-process cluster, and when
// one shard is killed with SIGKILL the coordinator keeps serving the
// surviving ranges while failing queries that need the dead shard with
// a 503 naming exactly the range that is down — promptly, not by
// hanging until the test times out.
func TestShardClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()

	// Three real OS processes, each a full shard server.
	cmds := make([]*exec.Cmd, 3)
	addrs := make([]string, 3)
	for i := range cmds {
		cmds[i], addrs[i] = startShardProcess(t, dir, i)
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd != nil && cmd.ProcessState == nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		}
	})

	coord, err := New(Config{
		Groups:         [][]string{{addrs[0]}, {addrs[1]}, {addrs[2]}},
		DomainLo:       workload.ItemSkLo,
		DomainHi:       workload.ItemSkHi,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	// The byte reference: a 1-shard in-process cluster over the same
	// dataset — the same merge path, so any divergence is a real bug.
	ref, _ := newCluster(t, 1)
	refFront := httptest.NewServer(ref.Handler())
	defer refFront.Close()

	// A mixed-range trace: single-shard ranges, spanning ranges, and the
	// full domain, across two templates.
	var specs []string
	trace := workload.MixedTrace(12, 3, workload.Q1, 0.1, 7)
	for i, tq := range trace {
		tpl := tq.Template
		if i%3 == 1 {
			tpl = workload.Q16
		}
		specs = append(specs, fmt.Sprintf(`{"template":%q,"lo":%d,"hi":%d}`, tpl, tq.Lo, tq.Hi))
	}
	specs = append(specs, fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`,
		workload.ItemSkLo, workload.ItemSkHi))

	for i, spec := range specs {
		status, got, _ := smokePost(t, front.URL, spec)
		if status != http.StatusOK {
			t.Fatalf("3-process query %d (%s): HTTP %d", i, spec, status)
		}
		refStatus, want, _ := smokePost(t, refFront.URL, spec)
		if refStatus != http.StatusOK {
			t.Fatalf("reference query %d (%s): HTTP %d", i, spec, refStatus)
		}
		if got != want {
			t.Errorf("query %d (%s): 3-process result diverges from 1-shard reference:\n got %s\nwant %s",
				i, spec, got, want)
		}
	}

	// kill -9 the middle shard: no drain, no goodbye.
	dead := coord.Shards()[1] // group i is the shard at addrs[i]
	if err := cmds[1].Process.Kill(); err != nil {
		t.Fatalf("SIGKILL shard 1: %v", err)
	}
	_ = cmds[1].Wait()
	cmds[1] = nil

	// A query needing the dead shard fails promptly with a 503 that
	// names exactly the failed range.
	start := time.Now()
	status, _, e := smokePost(t, front.URL,
		fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`, workload.ItemSkLo, workload.ItemSkHi))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("spanning query after kill: HTTP %d, want 503", status)
	}
	if e.FailedLo == nil || e.FailedHi == nil || *e.FailedLo != dead.Lo || *e.FailedHi != dead.Hi {
		t.Errorf("503 does not name the dead range: %+v, want [%d,%d]", e, dead.Lo, dead.Hi)
	}
	if want := fmt.Sprintf("[%d,%d]", dead.Lo, dead.Hi); !strings.Contains(e.Error, want) {
		t.Errorf("503 error %q does not mention the dead range %s", e.Error, want)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("failed query took %v — the coordinator hung instead of failing fast", took)
	}

	// The surviving shards keep answering their own ranges.
	for gi, sh := range coord.Shards() {
		if gi == 1 {
			continue
		}
		status, got, _ := smokePost(t, front.URL,
			fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`, sh.Lo, sh.Hi))
		if status != http.StatusOK {
			t.Fatalf("surviving shard %s query: HTTP %d, want 200", addrs[gi], status)
		}
		if got == "" {
			t.Errorf("surviving shard %s returned an empty result", addrs[gi])
		}
	}
}

// TestReplicatedClusterSmoke is the replicated CI acceptance test: two
// replica groups of two real shard subprocesses each, a healthy burst
// collecting per-query reference bytes, then kill -9 of one group's
// primary MID-burst — and the rest of the burst must see zero
// client-visible failures with byte-identical results, the coordinator
// failing over to the surviving follower.
func TestReplicatedClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()

	// Four real OS processes: groups[g][r].
	cmds := make([]*exec.Cmd, 4)
	addrs := make([]string, 4)
	for i := range cmds {
		cmds[i], addrs[i] = startShardProcess(t, dir, i)
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd != nil && cmd.ProcessState == nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		}
	})

	coord, err := New(Config{
		Groups:         [][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}},
		DomainLo:       workload.ItemSkLo,
		DomainHi:       workload.ItemSkHi,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	// The burst: single-group ranges, spanning ranges and the full
	// domain, across two templates.
	var specs []string
	trace := workload.MixedTrace(12, 2, workload.Q1, 0.1, 11)
	for i, tq := range trace {
		tpl := tq.Template
		if i%3 == 1 {
			tpl = workload.Q16
		}
		specs = append(specs, fmt.Sprintf(`{"template":%q,"lo":%d,"hi":%d}`, tpl, tq.Lo, tq.Hi))
	}
	specs = append(specs, fmt.Sprintf(`{"template":"Q1","lo":%d,"hi":%d}`,
		workload.ItemSkLo, workload.ItemSkHi))

	// Healthy pass: collect the per-query reference bytes.
	want := make([]string, len(specs))
	for i, spec := range specs {
		status, got, e := smokePost(t, front.URL, spec)
		if status != http.StatusOK {
			t.Fatalf("healthy query %d (%s): HTTP %d: %s", i, spec, status, e.Error)
		}
		want[i] = got
	}

	// Failure pass: kill -9 group 0's primary after the first query, then
	// keep going. Every query must still succeed, byte-identically.
	killed := false
	for i, spec := range specs {
		if i == 1 && !killed {
			if err := cmds[0].Process.Kill(); err != nil {
				t.Fatalf("SIGKILL replica 0: %v", err)
			}
			_ = cmds[0].Wait()
			cmds[0] = nil
			killed = true
		}
		status, got, e := smokePost(t, front.URL, spec)
		if status != http.StatusOK {
			t.Fatalf("mid-burst query %d (%s) after primary kill: HTTP %d: %s — client-visible failure",
				i, spec, status, e.Error)
		}
		if got != want[i] {
			t.Errorf("query %d (%s): result with dead primary diverges from healthy reference:\n got %s\nwant %s",
				i, spec, got, want[i])
		}
	}
	if coord.failovers.Load() == 0 {
		t.Error("no failover recorded despite a dead primary — the kill did not exercise the path")
	}

	// The coordinator's health surface reflects the loss.
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" {
		t.Errorf("healthz status %q with a dead replica, want degraded", hz.Status)
	}
}
