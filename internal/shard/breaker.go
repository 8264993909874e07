package shard

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker machine. The
// coordinator keeps one breaker per replica address, so a dead replica
// costs the cluster one detection (a timeout or connection error per
// threshold window), not one per query: once the breaker opens, queries
// skip the replica outright until a cooldown-spaced probe succeeds.
type breakerState int

const (
	breakerClosed   breakerState = iota // normal: requests flow, failures counted
	breakerOpen                         // tripped: requests refused until cooldown passes
	breakerHalfOpen                     // cooldown elapsed: exactly one probe in flight
)

// String names the state for health surfaces.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is one replica's circuit breaker. All methods are safe for
// concurrent use; the zero value needs threshold and cooldown set (see
// newBreaker).
//
// State machine:
//
//	closed --(threshold consecutive failures)--> open
//	open --(cooldown elapsed, next Allow)--> half-open (that caller probes)
//	half-open --(probe succeeds)--> closed
//	half-open --(probe fails)--> open (cooldown restarts)
//	half-open --(probe abandoned, or outcome lost for a cooldown)--> re-probe
//
// The last transition is the liveness guarantee: a probe whose outcome
// never arrives (the caller's context died before or during the attempt
// carrying it) must not exclude the replica forever, so Abandon releases it explicitly and Allow treats a probe
// older than the cooldown as lost and admits a fresh one.
type breaker struct {
	mu         sync.Mutex
	state      breakerState
	fails      int       // consecutive failures while closed
	openedAt   time.Time // when the breaker last tripped
	probing    bool      // half-open: a probe request is in flight
	probeStart time.Time // when the in-flight probe was admitted
	threshold  int
	cooldown   time.Duration

	// Counters, read by the coordinator's statz.
	opens         uint64 // closed/half-open -> open transitions
	shortCircuits uint64 // requests refused while open
	probes        uint64 // half-open trial requests admitted
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a request may be sent to the replica now.
// probe is true when the request is the half-open trial: the caller
// should report its outcome via Success, Failure or Abandon, or the
// breaker stays half-open until another Allow re-probes after the
// cooldown.
func (b *breaker) Allow(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			b.shortCircuits++
			return false, false
		}
		b.state = breakerHalfOpen
		b.startProbe(now)
		return true, true
	case breakerHalfOpen:
		if b.probing && now.Sub(b.probeStart) < b.cooldown {
			b.shortCircuits++
			return false, false
		}
		// No probe in flight, or the in-flight probe is older than the
		// cooldown — its outcome was evidently lost. Treat it as
		// abandoned and admit a fresh probe rather than excluding the
		// replica forever.
		b.startProbe(now)
		return true, true
	}
	return false, false
}

// startProbe admits a half-open trial request. Caller holds mu.
func (b *breaker) startProbe(now time.Time) {
	b.probing = true
	b.probeStart = now
	b.probes++
}

// Abandon releases a half-open probe without judging the replica: the
// attempt carrying it was cancelled before producing evidence (the
// client went away mid-query). The breaker stays half-open
// and the next Allow re-probes immediately instead of waiting out the
// lost-probe cooldown.
func (b *breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// Success records a successful request: it closes a half-open breaker
// and resets the consecutive-failure count.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// Failure records a failed request (connection error, timeout or 5xx).
// A closed breaker trips after threshold consecutive failures; a
// half-open probe failure re-opens immediately and restarts cooldown.
func (b *breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip(now)
		}
	case breakerHalfOpen:
		b.trip(now)
	case breakerOpen:
		// A straggling failure from before the trip: nothing to do.
	}
}

// trip moves to open. Caller holds mu.
func (b *breaker) trip(now time.Time) {
	b.state = breakerOpen
	b.openedAt = now
	b.fails = 0
	b.probing = false
	b.opens++
}

// State returns the current state for health reporting.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Counters returns the lifetime transition counters.
func (b *breaker) Counters() (opens, shortCircuits, probes uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.shortCircuits, b.probes
}
