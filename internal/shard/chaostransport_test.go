package shard

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestChaosRollDeterminism pins the determinism contract: the fault
// decision for the n-th request to a host is a pure function of
// (seed, host, n, site), rolls are uniform enough to honor configured
// probabilities, and the per-site streams are independent.
func TestChaosRollDeterminism(t *testing.T) {
	for n := uint64(1); n <= 64; n++ {
		for site := uint64(1); site <= 3; site++ {
			a := chaosRoll(7, "h1:80", n, site)
			b := chaosRoll(7, "h1:80", n, site)
			if a != b {
				t.Fatalf("chaosRoll not deterministic at n=%d site=%d: %v vs %v", n, site, a, b)
			}
			if a < 0 || a >= 1 {
				t.Fatalf("chaosRoll out of [0,1): %v", a)
			}
		}
	}
	// Different seeds, hosts and sites must decorrelate the streams.
	var diffSeed, diffHost, diffSite int
	for n := uint64(1); n <= 256; n++ {
		base := chaosRoll(7, "h1:80", n, 1)
		if (base < 0.5) != (chaosRoll(8, "h1:80", n, 1) < 0.5) {
			diffSeed++
		}
		if (base < 0.5) != (chaosRoll(7, "h2:80", n, 1) < 0.5) {
			diffHost++
		}
		if (base < 0.5) != (chaosRoll(7, "h1:80", n, 2) < 0.5) {
			diffSite++
		}
	}
	for name, n := range map[string]int{"seed": diffSeed, "host": diffHost, "site": diffSite} {
		if n < 64 || n > 192 {
			t.Errorf("streams differing by %s disagree on %d/256 draws; want roughly half", name, n)
		}
	}
	// An honest roll rate: at DropProb 0.25, 256 draws should land near
	// 64 hits (loose 3-sigma-ish band).
	hits := 0
	for n := uint64(1); n <= 256; n++ {
		if chaosRoll(99, "h3:80", n, 1) < 0.25 {
			hits++
		}
	}
	if hits < 40 || hits > 90 {
		t.Errorf("0.25-probability stream hit %d/256 draws", hits)
	}
}

// TestChaosTransportInjectsFaults exercises all three fault kinds
// against a live backend and checks the schedule reproduces run to run.
func TestChaosTransportInjectsFaults(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	run := func() (statuses []int, drops, fives, slows uint64) {
		ct := &ChaosTransport{Seed: 42, DropProb: 0.3, Err5xxProb: 0.3}
		client := &http.Client{Transport: ct}
		for i := 0; i < 40; i++ {
			resp, err := client.Get(ts.URL)
			if err != nil {
				var ce *chaosErr
				if !errors.As(err, &ce) {
					t.Fatalf("request %d: non-chaos error %v", i, err)
				}
				var nerr net.Error
				if !errors.As(err, &nerr) || !nerr.Timeout() {
					t.Fatalf("chaos drop does not present as a net timeout: %v", err)
				}
				statuses = append(statuses, -1)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses = append(statuses, resp.StatusCode)
		}
		drops, fives, slows = ct.Counters()
		return
	}

	s1, d1, f1, _ := run()
	s2, d2, f2, _ := run()
	if d1 == 0 || f1 == 0 {
		t.Fatalf("no faults injected in 40 requests (drops %d, 5xx %d)", d1, f1)
	}
	if d1 != d2 || f1 != f2 {
		t.Fatalf("fault counts not reproducible: (%d,%d) vs (%d,%d)", d1, f1, d2, f2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("request %d outcome differs across runs: %d vs %d", i, s1[i], s2[i])
		}
	}

	// Hosts scoping: a transport aimed at another host passes through.
	ct := &ChaosTransport{Seed: 42, DropProb: 1, Hosts: map[string]bool{"elsewhere:1": true}}
	client := &http.Client{Transport: ct}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("scoped transport disturbed an excluded host: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if d, _, _ := ct.Counters(); d != 0 {
		t.Fatalf("scoped transport counted %d drops on an excluded host", d)
	}
}

// TestChaosLatencyHonorsCancellation verifies an injected delay unwinds
// promptly when the request context is cancelled — the property a
// cancelled query or an expired attempt timeout relies on to end a
// straggling attempt.
func TestChaosLatencyHonorsCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	ct := &ChaosTransport{Seed: 1, LatencyProb: 1, Latency: time.Minute}
	client := &http.Client{Transport: ct}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	done := make(chan error, 1)
	go func() {
		_, err := client.Do(req)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled delayed request returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled delayed request did not unwind")
	}
}
