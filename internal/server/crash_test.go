package server

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/workload"
)

// TestHelperCrashServer is not a test: it is the subprocess body of the
// kill -9 chaos test below. It mounts a journal, recovers, loads the
// dataset, writes its listen address into the journal directory and
// serves until killed.
func TestHelperCrashServer(t *testing.T) {
	dir := os.Getenv("DEEPSEA_CRASH_DIR")
	if os.Getenv("DEEPSEA_CRASH_HELPER") != "1" || dir == "" {
		t.Skip("crash-test helper process only")
	}
	store, err := deepsea.OpenJournal(dir)
	if err != nil {
		t.Fatalf("helper: OpenJournal: %v", err)
	}
	sys := deepsea.New(deepsea.WithDatastore(store))
	if err := workload.Load(sys, workload.Generate(1, 1, nil)); err != nil {
		t.Fatalf("helper: load: %v", err)
	}
	srv := New(sys, Config{SnapshotEvery: 150 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("helper: listen: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "addr"),
		[]byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("helper: write addr: %v", err)
	}
	// Serve until SIGKILL. This never returns cleanly — that is the point.
	_ = http.Serve(ln, srv.Handler())
}

// startCrashHelper launches the helper subprocess over dir and waits for
// it to publish its listen address.
func startCrashHelper(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperCrashServer$")
	cmd.Env = append(os.Environ(),
		"DEEPSEA_CRASH_HELPER=1", "DEEPSEA_CRASH_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
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
	t.Fatalf("helper never published an address; output:\n%s", out.String())
	return nil, ""
}

func crashGet(t *testing.T, addr, path string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

func crashPost(t *testing.T, addr string, spec QuerySpec) QueryResponse {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/query", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /query: status %d: %s", resp.StatusCode, e.Error)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

// crashPoolz fetches /poolz with the contents canonicalized (the pool
// walk emits partition attributes in map order).
func crashPoolz(t *testing.T, addr string) string {
	t.Helper()
	var pz struct {
		Bytes     int64    `json:"bytes"`
		Views     int      `json:"views"`
		ViewFiles int      `json:"view_files"`
		Fragments int      `json:"fragments"`
		Contents  []string `json:"contents"`
	}
	crashGet(t, addr, "/poolz", &pz)
	sort.Strings(pz.Contents)
	b, _ := json.Marshal(pz)
	return string(b)
}

// TestCrashRecoveryWarmRestart is the acceptance chaos test: a serving
// process is warmed over a journal, killed with SIGKILL (no drain, no
// final snapshot), and restarted over the same directory. The restarted
// server must resume with byte-identical pool contents, report a clean
// recovery, and answer the previously hot template from views — with
// the same rows — on its very first query.
func TestCrashRecoveryWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()

	cmd1, addr1 := startCrashHelper(t, dir)
	// Warm the pool: three templates, each range repeated so views
	// materialize and then get hit.
	var specs []QuerySpec
	for round := 0; round < 3; round++ {
		for i, tpl := range []string{"Q1", "Q7", "Q16"} {
			lo := workload.ItemSkLo + int64(i)*1500
			specs = append(specs, QuerySpec{Template: tpl, Lo: lo, Hi: lo + 3000})
		}
	}
	var lastPre QueryResponse
	for _, sp := range specs {
		lastPre = crashPost(t, addr1, sp)
	}
	hotSpec := specs[len(specs)-1]
	if !lastPre.Rewritten && !lastPre.CacheHit {
		t.Fatalf("pre-crash workload never warmed up: %+v", lastPre)
	}
	preRows := canonRows(lastPre.Rows)
	prePool := crashPoolz(t, addr1)

	// kill -9: no drain, no flush, no final snapshot.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL helper: %v", err)
	}
	_ = cmd1.Wait()

	cmd2, addr2 := startCrashHelper(t, dir)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()

	// Recovery ran cleanly and the journal is live again.
	var statz struct {
		Health deepsea.Health `json:"health"`
	}
	crashGet(t, addr2, "/statz", &statz)
	h := statz.Health
	if !h.Recovered || h.RecoveryError != "" {
		t.Fatalf("restart did not recover: Recovered=%v err=%q", h.Recovered, h.RecoveryError)
	}
	if !h.JournalEnabled {
		t.Error("journal not enabled after restart")
	}

	// The pool survived byte-identically.
	if postPool := crashPoolz(t, addr2); postPool != prePool {
		t.Errorf("pool diverged across crash:\n pre %s\npost %s", prePool, postPool)
	}

	// Warm hit-rate within one replay: the very first query after
	// restart answers the hot template from the recovered pool, with the
	// same rows.
	first := crashPost(t, addr2, hotSpec)
	if !first.Rewritten && !first.CacheHit {
		t.Errorf("first post-restart query ran cold: %+v", first)
	}
	if got := canonRows(first.Rows); got != preRows {
		t.Errorf("post-restart rows diverge:\n pre %s\npost %s", preRows, got)
	}

	var hz struct {
		Status string `json:"status"`
	}
	crashGet(t, addr2, "/healthz", &hz)
	if hz.Status != "ok" {
		t.Errorf("healthz after recovery = %q, want ok", hz.Status)
	}
}
