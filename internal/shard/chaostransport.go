package shard

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosTransport is a deterministic fault-injecting http.RoundTripper —
// the network-layer sibling of internal/faults. Wrapped around the
// coordinator's real transport it simulates the failure modes a
// scatter-gather tier must survive: dropped connections, injected
// straggler latency, and spurious 5xx responses.
//
// Determinism: whether the n-th request to a given host is disturbed —
// and how — is a pure function of (Seed, host, n). The schedule for any
// one host therefore reproduces across runs regardless of goroutine
// interleaving; only the assignment of concurrent requests to positions
// in a host's sequence can vary, exactly as with internal/faults
// anonymous keys.
//
// Hosts, when non-nil, restricts injection to the named hosts
// ("host:port" as in URL.Host); requests to other hosts pass through
// untouched. Probabilities are independent per request in the order
// drop, 5xx, latency: an injected latency delays the request and then
// lets it proceed (a straggler, not a failure).
type ChaosTransport struct {
	// Base performs real round trips (default http.DefaultTransport).
	Base http.RoundTripper
	// Seed drives every injection decision.
	Seed int64
	// DropProb returns a synthetic connection error without touching the
	// network — a died-mid-dial peer.
	DropProb float64
	// Err5xxProb returns a synthetic 503 body without touching the
	// network — an overloaded or misrouted peer.
	Err5xxProb float64
	// LatencyProb delays the request by Latency before sending it — a
	// straggling peer. The delay honors request-context cancellation, so
	// a cancelled query or an expired attempt timeout ends it promptly.
	LatencyProb float64
	Latency     time.Duration
	// Hosts, when non-nil, limits injection to these URL hosts.
	Hosts map[string]bool

	// disarmed suspends all injection (SetArmed(false)); the zero value
	// is armed. Tests disarm during cluster setup so range pushes stay
	// clean, then arm for the measured phase.
	disarmed atomic.Bool

	mu    sync.Mutex
	seq   map[string]uint64 // per-host request counter
	drops atomic.Uint64
	fives atomic.Uint64
	slows atomic.Uint64
}

// SetArmed enables or disables injection. A disarmed transport passes
// everything through (and does not advance per-host sequences, so the
// armed schedule stays deterministic regardless of setup traffic).
func (t *ChaosTransport) SetArmed(armed bool) { t.disarmed.Store(!armed) }

// chaosErr is the synthetic connection error, distinguishable in logs
// from a real one.
type chaosErr struct {
	host string
	n    uint64
}

func (e *chaosErr) Error() string {
	return fmt.Sprintf("chaos: injected connection drop to %s (request %d)", e.host, e.n)
}

// Timeout and Temporary make the injected error look like a transient
// net error to any classifier that asks.
func (e *chaosErr) Timeout() bool   { return true }
func (e *chaosErr) Temporary() bool { return true }

// roll returns a uniform [0,1) draw that is a pure function of
// (seed, host, n, site). site separates the drop/5xx/latency decisions
// so they are independent.
func chaosRoll(seed int64, host string, n uint64, site uint64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", seed, host, n, site)
	x := h.Sum64()
	// splitmix64 finalizer for good low-bit avalanche.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// next returns this request's position in its host's sequence.
func (t *ChaosTransport) next(host string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq == nil {
		t.seq = make(map[string]uint64)
	}
	t.seq[host]++
	return t.seq[host]
}

// Counters reports how many faults were injected (drops, 5xx, delays).
func (t *ChaosTransport) Counters() (drops, fives, slows uint64) {
	return t.drops.Load(), t.fives.Load(), t.slows.Load()
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if t.disarmed.Load() {
		return base.RoundTrip(req)
	}
	host := req.URL.Host
	if t.Hosts != nil && !t.Hosts[host] {
		return base.RoundTrip(req)
	}
	n := t.next(host)
	if t.DropProb > 0 && chaosRoll(t.Seed, host, n, 1) < t.DropProb {
		t.drops.Add(1)
		// The request body (if any) must be closed on error, per the
		// RoundTripper contract.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &url.Error{Op: req.Method, URL: req.URL.String(), Err: &chaosErr{host: host, n: n}}
	}
	if t.Err5xxProb > 0 && chaosRoll(t.Seed, host, n, 2) < t.Err5xxProb {
		t.fives.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		body := fmt.Sprintf(`{"error":"chaos: injected 503 from %s (request %d)"}`, host, n)
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	if t.LatencyProb > 0 && t.Latency > 0 && chaosRoll(t.Seed, host, n, 3) < t.LatencyProb {
		t.slows.Add(1)
		timer := time.NewTimer(t.Latency)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, &url.Error{Op: req.Method, URL: req.URL.String(), Err: req.Context().Err()}
		}
	}
	return base.RoundTrip(req)
}
