package shard

import "sync/atomic"

// replicaState is what the prober last saw of one replica, reported in
// the status document. Replica membership is static for the life of a
// coordinator, so the map of replicaStates is built once at New and read
// without locking.
type replicaState struct {
	ownsRange atomic.Bool   // the replica last reported owning its group's range
	repushes  atomic.Uint64 // range pushes the prober performed
}
