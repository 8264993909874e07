package shard

import "sync"

// replicaState is what the prober last saw of one replica, reported on
// /healthz. Replica membership is static for the life of a coordinator
// (ranges move between groups; replicas do not move between groups), so
// the map of replicaStates is built once at New and read without
// locking.
type replicaState struct {
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
