package shard

// ShardInfo is one replica group's routing entry: its replicas and the
// contiguous partition-key range the group owns. The groups jointly
// cover the domain with no gaps or overlaps, and the table never
// changes after New.
type ShardInfo struct {
	// Replicas is the replica group, primary first: the primary labels
	// the group in routing errors and is the first-choice target for its
	// subqueries. Any live replica can answer for the range: base tables
	// are static and fully replicated, and partial aggregation keeps
	// merged bytes identical regardless of which replica answered.
	Replicas []string `json:"replicas"`
	Lo       int64    `json:"lo"`
	Hi       int64    `json:"hi"`
}

// evenSplit cuts [lo, hi] into n contiguous ranges of near-equal width.
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
// sorted by Lo, so the parts tile the query range left to right.
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
