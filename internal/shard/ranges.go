package shard

import (
	"fmt"
	"sort"
)

// ShardInfo is one shard's routing entry: its address and the
// contiguous partition-key range it owns, with the epoch of the handoff
// that assigned it. Shards jointly cover the domain with no gaps or
// overlaps.
type ShardInfo struct {
	// Addr is the group's primary replica — the label used in routing
	// errors and the first-choice target for the group's subqueries.
	Addr string `json:"addr"`
	// Replicas is the full replica group (Addr first). Any live replica
	// can answer for the range: base tables are static and fully
	// replicated, and partial aggregation keeps merged bytes identical
	// regardless of which replica answered. Empty means {Addr}.
	Replicas []string `json:"replicas,omitempty"`
	Lo       int64    `json:"lo"`
	Hi       int64    `json:"hi"`
	Epoch    uint64   `json:"epoch"`
}

// evenSplit cuts [lo, hi] into n contiguous ranges of near-equal width
// (the boot-time assignment, before any heat is observed).
func evenSplit(lo, hi int64, n int) [][2]int64 {
	width := hi - lo + 1
	out := make([][2]int64, n)
	for i := 0; i < n; i++ {
		a := lo + width*int64(i)/int64(n)
		b := lo + width*int64(i+1)/int64(n) - 1
		out[i] = [2]int64{a, b}
	}
	return out
}

// route cuts [lo, hi] into parts by shard ownership, in shard order,
// each clamped to its shard's range and without a body yet. Shards are
// kept sorted by Lo, so the parts tile the query range left to right.
func route(shards []ShardInfo, lo, hi int64) []part {
	var out []part
	for i, sh := range shards {
		a, b := max(lo, sh.Lo), min(hi, sh.Hi)
		if a <= b {
			out = append(out, part{shard: i, lo: a, hi: b})
		}
	}
	return out
}

// heatBuckets is the resolution of the coordinator's workload
// histogram. Fine enough that one bucket (~1/256 of the domain) bounds
// how far an equi-heat boundary can sit from the ideal cut.
const heatBuckets = 256

// heatMap tracks where queries land on the partition-key domain. Not
// goroutine-safe; the coordinator guards it with its routing lock.
type heatMap struct {
	lo, hi  int64
	buckets [heatBuckets]uint64
	total   uint64
}

func newHeatMap(lo, hi int64) *heatMap {
	return &heatMap{lo: lo, hi: hi}
}

func (h *heatMap) bucketOf(v int64) int {
	if v < h.lo {
		v = h.lo
	}
	if v > h.hi {
		v = h.hi
	}
	i := int((v - h.lo) * heatBuckets / (h.hi - h.lo + 1))
	if i >= heatBuckets {
		i = heatBuckets - 1
	}
	return i
}

// record charges one query touching [lo, hi]: +1 to every bucket the
// range overlaps. A narrow hotspot query concentrates all its heat in
// one bucket; a domain-wide scan spreads it thin — exactly the signal
// equi-heat cuts need.
func (h *heatMap) record(lo, hi int64) {
	a, b := h.bucketOf(lo), h.bucketOf(hi)
	for i := a; i <= b; i++ {
		h.buckets[i]++
		h.total++
	}
}

// boundaries proposes n contiguous ranges covering the domain with
// near-equal accumulated heat: the prefix-sum of the histogram is cut
// at each multiple of total/n. Cold buckets make the cuts fall back
// toward even width (every bucket gets a +1 floor), so an idle cluster
// never collapses all ranges onto one shard.
func (h *heatMap) boundaries(n int) [][2]int64 {
	if n <= 1 {
		return [][2]int64{{h.lo, h.hi}}
	}
	var weights [heatBuckets]uint64
	var total uint64
	for i, b := range h.buckets {
		weights[i] = b + 1
		total += weights[i]
	}
	bounds := make([][2]int64, 0, n)
	domain := h.hi - h.lo + 1
	bucketLo := func(i int) int64 { return h.lo + domain*int64(i)/heatBuckets }
	cut := 0 // first bucket of the current range
	var acc uint64
	for i := 0; i < heatBuckets && len(bounds) < n-1; i++ {
		acc += weights[i]
		// Close the range once it holds its fair share of the remaining
		// heat across the remaining shards.
		remainShards := uint64(n - len(bounds))
		if acc*remainShards >= total && i+1 < heatBuckets {
			bounds = append(bounds, [2]int64{bucketLo(cut), bucketLo(i+1) - 1})
			total -= acc
			acc = 0
			cut = i + 1
		}
	}
	bounds = append(bounds, [2]int64{bucketLo(cut), h.hi})
	return bounds
}

// validate checks that shards tile [lo, hi] exactly: sorted, no gaps,
// no overlaps. The coordinator refuses to install a routing table that
// fails this — a gap drops rows, an overlap double-counts them.
func validate(shards []ShardInfo, lo, hi int64) error {
	if len(shards) == 0 {
		return fmt.Errorf("shard: no shards")
	}
	s := append([]ShardInfo(nil), shards...)
	sort.Slice(s, func(i, j int) bool { return s[i].Lo < s[j].Lo })
	if s[0].Lo != lo {
		return fmt.Errorf("shard: domain starts at %d but first range starts at %d", lo, s[0].Lo)
	}
	for i := 0; i < len(s); i++ {
		if s[i].Lo > s[i].Hi {
			return fmt.Errorf("shard: %s owns empty range [%d,%d]", s[i].Addr, s[i].Lo, s[i].Hi)
		}
		if i > 0 && s[i].Lo != s[i-1].Hi+1 {
			return fmt.Errorf("shard: ranges [%d,%d] and [%d,%d] do not tile",
				s[i-1].Lo, s[i-1].Hi, s[i].Lo, s[i].Hi)
		}
	}
	if s[len(s)-1].Hi != hi {
		return fmt.Errorf("shard: domain ends at %d but last range ends at %d", hi, s[len(s)-1].Hi)
	}
	return nil
}
