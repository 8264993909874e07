package interval

// GreedyCover implements the paper's Algorithm 2 (PartitionMatching): it
// greedily selects fragments from candidates whose union covers the query
// selection range want. At each step it picks, among the fragments whose
// interval starts at or before the first uncovered point and ends after
// it, the one with the largest lower bound. The returned indices refer to
// candidates and are in cover order (increasing upper bound).
//
// The second return value reports whether a full cover was found. When it
// is false, the indices cover a prefix of want and Set.Gaps can compute
// the remainder.
func GreedyCover(want Interval, candidates Set) (indices []int, full bool) {
	covered := want.Lo // first uncovered point
	for covered <= want.Hi {
		best := -1
		for k, iv := range candidates {
			if iv.Lo > covered || iv.Hi < covered {
				continue
			}
			// Argmax lower bound (Algorithm 2); ties prefer the SMALLER
			// fragment — overlapping partitionings routinely hold a
			// small refined fragment inside a large stale one, and
			// reading the small file costs proportionally less.
			if best == -1 || iv.Lo > candidates[best].Lo ||
				(iv.Lo == candidates[best].Lo && iv.Hi < candidates[best].Hi) {
				best = k
			}
		}
		if best == -1 {
			return indices, false
		}
		indices = append(indices, best)
		covered = candidates[best].Hi + 1
	}
	return indices, true
}

// ClippedCover returns, for each fragment chosen by GreedyCover, the
// subrange of want that the fragment should actually contribute so that
// every point of the covered region is produced exactly once even when
// fragments overlap. The i-th returned read range corresponds to
// indices[i]. Query execution over overlapping partitionings relies on
// this clipping for correctness.
func ClippedCover(want Interval, candidates Set) (indices []int, reads []Interval, full bool) {
	indices, full = GreedyCover(want, candidates)
	next := want.Lo
	for _, idx := range indices {
		iv := candidates[idx]
		hi := min(iv.Hi, want.Hi)
		reads = append(reads, Interval{Lo: next, Hi: hi})
		next = hi + 1
	}
	return indices, reads, full
}
