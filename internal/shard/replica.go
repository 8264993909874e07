package shard

import "sync"

// replicaState is what the prober last saw of one replica, reported on
// /healthz. Replica membership is static for the life of a coordinator,
// so the map of replicaStates is built once at New and read without
// locking.
type replicaState struct {
	mu        sync.Mutex
	ownsRange bool   // the replica last reported owning its group's range
	repushes  uint64 // range pushes the prober performed
}

func (r *replicaState) noteProbe(ownsRange bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ownsRange = ownsRange
}

func (r *replicaState) probeSnapshot() (ownsRange bool, repushes uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ownsRange, r.repushes
}
