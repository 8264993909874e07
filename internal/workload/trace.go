package workload

import (
	"math/rand"

	"deepsea/internal/interval"
)

// TraceQuery is one query of a range-tagged trace: a template plus its
// selection range. Traces are what the sharded serving experiments
// replay — the range tag is the routing key, so a trace fully
// determines which shards each query touches.
type TraceQuery struct {
	Template Template
	Lo, Hi   int64
}

// DisjointTrace generates n queries whose ranges each fall entirely
// inside one of k equal slices of the domain, round-robin across
// slices. Every query routes to exactly one shard of a k-shard cluster
// with even boundaries — the zero-coordination workload that exposes a
// cluster's best-case scaling.
func DisjointTrace(n, k int, t Template, selectivity float64, seed int64) []TraceQuery {
	rng := rand.New(rand.NewSource(seed))
	dom := ItemSkDomain()
	width := dom.Len() / int64(k)
	out := make([]TraceQuery, 0, n)
	for i := 0; i < n; i++ {
		s := int64(i % k)
		sliceLo := dom.Lo + s*width
		sliceHi := sliceLo + width - 1
		if s == int64(k-1) {
			sliceHi = dom.Hi
		}
		sliceDom := interval.New(sliceLo, sliceHi)
		iv := RangesAround(1, selectivity, Uniform, sliceDom, 0, rng)[0]
		out = append(out, TraceQuery{Template: t, Lo: iv.Lo, Hi: iv.Hi})
	}
	return out
}

// UniformTrace generates n queries with uniformly placed midpoints over
// the whole domain — ranges land anywhere and may span shard
// boundaries.
func UniformTrace(n int, t Template, selectivity float64, seed int64) []TraceQuery {
	rng := rand.New(rand.NewSource(seed))
	ivs := Ranges(n, selectivity, Uniform, ItemSkDomain(), rng)
	out := make([]TraceQuery, n)
	for i, iv := range ivs {
		out[i] = TraceQuery{Template: t, Lo: iv.Lo, Hi: iv.Hi}
	}
	return out
}

// SpanningTrace generates n queries that each cover (nearly) the whole
// domain: every query scatters to every shard of any cluster. The
// worst-case fan-out workload — exactly what failover experiments
// need, since every query touches the failing replica
// group. Selectivity trims a random sliver off each end so queries are
// not all literally identical (they still span all even boundaries for
// any k up to ~1/selectivity).
func SpanningTrace(n int, t Template, selectivity float64, seed int64) []TraceQuery {
	rng := rand.New(rand.NewSource(seed))
	dom := ItemSkDomain()
	trim := int64(selectivity * float64(dom.Len()))
	if trim < 1 {
		trim = 1
	}
	out := make([]TraceQuery, n)
	for i := 0; i < n; i++ {
		lo := dom.Lo + rng.Int63n(trim)
		hi := dom.Hi - rng.Int63n(trim)
		out[i] = TraceQuery{Template: t, Lo: lo, Hi: hi}
	}
	return out
}

// MixedTrace interleaves single-shard and spanning work: a DisjointTrace
// backbone with every fourth query replaced by a uniform (potentially
// boundary-crossing) range — the CI smoke workload, exercising both the
// direct-route and scatter-gather paths in one run.
func MixedTrace(n, k int, t Template, selectivity float64, seed int64) []TraceQuery {
	disjoint := DisjointTrace(n, k, t, selectivity, seed)
	uniform := UniformTrace(n, t, 4*selectivity, seed+1)
	for i := 3; i < n; i += 4 {
		disjoint[i] = uniform[i]
	}
	return disjoint
}
