package shard

import (
	"math/rand"
	"sync"
	"time"
)

// replicaState is the coordinator's per-replica bookkeeping: the
// circuit breaker plus what the prober last saw, both reported on
// /healthz. Replica membership is static for the life of a coordinator
// (ranges move between groups; replicas do not move between groups), so
// the map of replicaStates is built once at New and read without
// locking.
type replicaState struct {
	br *breaker

	mu         sync.Mutex
	probeEpoch uint64 // epoch the replica last reported owning (0 = none)
	repushes   uint64 // stale-epoch re-pushes the prober performed
}

func (r *replicaState) noteProbe(epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probeEpoch = epoch
}

func (r *replicaState) probeSnapshot() (epoch, repushes uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.probeEpoch, r.repushes
}

// failoverBackoff returns the jittered failover backoff for the given retry
// attempt (0-based): base·2^attempt, capped, with ±50% jitter — enough
// spread that a burst of queries failing over together does not
// re-stampede the next replica in lockstep.
func failoverBackoff(rng *lockedRand, base, cap time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > cap || d <= 0 {
		d = cap
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(d-half)+1))
}

// lockedRand is a mutex-guarded rand.Rand: jitter draws come from every
// scatter goroutine.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Int63n(n)
}
