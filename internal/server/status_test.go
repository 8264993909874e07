package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/leakcheck"
)

// getBody GETs url and returns the status code and the raw body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestStatzAndHealthzServeOneDocument: /statz and /healthz answer the
// same bytes. Both are 200 while serving; once a drain began /healthz is
// 503, and both read status "draining".
func TestStatzAndHealthzServeOneDocument(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, newTestSystem(t), Config{})
	if status, _, _ := postQuery(t, ts.URL, QuerySpec{Template: "Q1", Lo: 0, Hi: 3000}); status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}
	for _, draining := range []bool{false, true} {
		if draining {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
		}
		statzCode, statz := getBody(t, ts.URL+"/statz")
		healthzCode, healthz := getBody(t, ts.URL+"/healthz")
		if statz != healthz {
			t.Fatalf("draining=%v: /statz and /healthz differ:\n statz %s\nhealthz %s", draining, statz, healthz)
		}
		wantHealthz := http.StatusOK
		if draining {
			wantHealthz = http.StatusServiceUnavailable
		}
		if statzCode != http.StatusOK || healthzCode != wantHealthz {
			t.Errorf("draining=%v: /statz %d, /healthz %d; want 200, %d", draining, statzCode, healthzCode, wantHealthz)
		}
		if doc := srv.status(); doc.Status != verdict(doc.Health, draining) || doc.Serving.Served != 1 {
			t.Errorf("draining=%v: status %q, served %d", draining, doc.Status, doc.Serving.Served)
		}
	}
}

// TestStatzReportsOwnedRange: the status document carries no range
// while the server is standalone, and the owned range once one was
// pushed.
func TestStatzReportsOwnedRange(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, newTestSystem(t), Config{})
	statzRange := func() *keyRange {
		t.Helper()
		_, body := getBody(t, ts.URL+"/statz")
		var doc struct {
			Status string    `json:"status"`
			Range  *keyRange `json:"range"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Status != "ok" {
			t.Fatalf("status %q, want ok", doc.Status)
		}
		return doc.Range
	}
	if got := statzRange(); got != nil {
		t.Fatalf("standalone /statz reports range %+v, want none", *got)
	}
	if code, m := postRange(t, ts.URL, `{"lo":100,"hi":199999}`); code != http.StatusOK {
		t.Fatalf("push: status %d: %v", code, m)
	}
	if got := statzRange(); got == nil || *got != (keyRange{Lo: 100, Hi: 199999}) {
		t.Fatalf("/statz range %v after the push, want [100,199999]", got)
	}
}

// TestEachDegradedCauseDegrades: every degraded signal of a health
// snapshot, alone, turns the verdict to "degraded"; none is "ok"; a
// drain overrides them all.
func TestEachDegradedCauseDegrades(t *testing.T) {
	for name, h := range map[string]deepsea.Health{
		"quarantine":            {Quarantined: []string{"v1/f0"}},
		"blacklist":             {Blacklisted: []string{"v1"}},
		"journal append errors": {JournalAppendErrors: 1},
		"recovery error":        {RecoveryError: "snapshot: bad checksum"},
		"saturated queue":       {MaintSaturated: true},
		"retry backlog":         {IngestRetryBacklog: 1},
	} {
		if got := verdict(h, false); got != "degraded" {
			t.Errorf("%s: verdict %q, want degraded", name, got)
		}
		if got := verdict(h, true); got != "draining" {
			t.Errorf("%s while draining: verdict %q, want draining", name, got)
		}
	}
	if got := verdict(deepsea.Health{QuarantinedTotal: 3, Backoff: []string{"v2"}, MaintQueueDepth: 9}, false); got != "ok" {
		t.Errorf("no degraded cause: verdict %q, want ok", got)
	}
}

func TestParseBytes(t *testing.T) {
	for in, want := range map[string]int64{
		"1GB": 1 << 30, "1.5gb": 3 << 29, " 256MB ": 256 << 20, "0.5MB": 1 << 19,
		"4096": 4096, "0": 0,
	} {
		if got, err := ParseBytes(in); err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "GB", "1TB", "ten MB", "-1GB", "NaN", "Inf", "1e30GB"} {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an error", in, got)
		}
	}
}

// TestReadRequestCapsUndeclaredBodies: a body that declares no length is
// cut off at the cap — a 413 once decode reads past it — and one at the
// cap reads whole.
func TestReadRequestCapsUndeclaredBodies(t *testing.T) {
	for size, want := range map[int64]int{MaxBodyBytes: http.StatusOK, MaxBodyBytes + 1: http.StatusRequestEntityTooLarge} {
		r := httptest.NewRequest(http.MethodPost, "/append", io.LimitReader(zeros{}, size))
		r.ContentLength = -1
		w := httptest.NewRecorder()
		var read int64
		if ReadRequest(w, r, func(body io.Reader) (err error) {
			read, err = io.Copy(io.Discard, body)
			return err
		}) {
			w.WriteHeader(http.StatusOK)
		}
		if w.Code != want || (want == http.StatusOK && read != size) {
			t.Errorf("%d-byte body: status %d after reading %d bytes, want %d", size, w.Code, read, want)
		}
	}
}

// zeros is an endless reader of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
