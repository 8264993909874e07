// Package interval implements the closed integer-interval algebra that
// underlies DeepSea's horizontal and overlapping partitionings.
//
// Partition keys in DeepSea are ordered attributes. This reproduction
// restricts key domains to int64, which makes every split in the paper
// exact: the half-open interval [l', l) over an integer domain is the
// closed interval [l', l-1]. All intervals in this package are closed on
// both ends and non-empty, and end below math.MaxInt64: Lo <= Hi <
// MaxInt64. The algebra steps past an interval to Hi+1, which would wrap
// at MaxInt64, so a key domain must end before it (deepsea.CreateTable
// rejects one that does), and query ranges are clipped to their key's
// domain before they reach the algebra.
package interval

import (
	"fmt"
	"sort"
)

// Interval is a closed, non-empty integer interval [Lo, Hi].
type Interval struct {
	Lo int64
	Hi int64
}

// New returns the closed interval [lo, hi]. It panics if lo > hi; callers
// construct intervals from validated query predicates and fragment
// boundaries, so an inverted interval is a programming error.
func New(lo, hi int64) Interval {
	if lo > hi {
		panic(fmt.Sprintf("interval: inverted bounds [%d, %d]", lo, hi))
	}
	return Interval{Lo: lo, Hi: hi}
}

// String renders the interval in the paper's closed-interval notation.
func (i Interval) String() string {
	return fmt.Sprintf("[%d,%d]", i.Lo, i.Hi)
}

// Len is the number of integer points covered by the interval.
func (i Interval) Len() int64 {
	return i.Hi - i.Lo + 1
}

// Contains reports whether point v lies in the interval.
func (i Interval) Contains(v int64) bool {
	return i.Lo <= v && v <= i.Hi
}

// ContainsInterval reports whether o is a (not necessarily proper)
// subinterval of i.
func (i Interval) ContainsInterval(o Interval) bool {
	return i.Lo <= o.Lo && o.Hi <= i.Hi
}

// Overlaps reports whether the two intervals share at least one point.
func (i Interval) Overlaps(o Interval) bool {
	return i.Lo <= o.Hi && o.Lo <= i.Hi
}

// Intersect returns the common subinterval and whether it is non-empty.
func (i Interval) Intersect(o Interval) (Interval, bool) {
	lo := max(i.Lo, o.Lo)
	hi := min(i.Hi, o.Hi)
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}

// OverlapLen is the number of points shared by i and o (zero if disjoint).
func (i Interval) OverlapLen(o Interval) int64 {
	x, ok := i.Intersect(o)
	if !ok {
		return 0
	}
	return x.Len()
}

// Equal reports whether the two intervals cover exactly the same points.
func (i Interval) Equal(o Interval) bool { return i == o }

// SplitAt splits i at the given cut points (which must lie strictly inside
// i) into consecutive closed subintervals. Cuts mark the first point of a
// new subinterval: SplitAt([0,10], 4) = [0,3], [4,10]. Cut points outside
// (Lo, Hi] or duplicates are ignored. The result always covers i exactly.
func (i Interval) SplitAt(cuts ...int64) []Interval {
	pts := make([]int64, 0, len(cuts))
	for _, c := range cuts {
		if c > i.Lo && c <= i.Hi {
			pts = append(pts, c)
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a] < pts[b] })
	out := make([]Interval, 0, len(pts)+1)
	lo := i.Lo
	for _, c := range pts {
		if c == lo { // duplicate cut
			continue
		}
		out = append(out, Interval{Lo: lo, Hi: c - 1})
		lo = c
	}
	out = append(out, Interval{Lo: lo, Hi: i.Hi})
	return out
}

// Set is an ordered collection of intervals. Sets are used both for
// horizontal partitions (disjoint, covering) and overlapping
// partitionings (covering only).
type Set []Interval

// Sort orders the set by lower bound, breaking ties by upper bound.
func (s Set) Sort() {
	sort.Slice(s, func(a, b int) bool {
		if s[a].Lo != s[b].Lo {
			return s[a].Lo < s[b].Lo
		}
		return s[a].Hi < s[b].Hi
	})
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Covers reports whether the union of the set's intervals contains every
// point of dom (Definition 2's covering requirement).
func (s Set) Covers(dom Interval) bool {
	c := s.Clone()
	c.Sort()
	next := dom.Lo
	for _, iv := range c {
		if iv.Lo > next {
			return false
		}
		if iv.Hi >= next {
			next = iv.Hi + 1
		}
		if next > dom.Hi {
			return true
		}
	}
	return next > dom.Hi
}

// Disjoint reports whether no two intervals in the set share a point.
func (s Set) Disjoint() bool {
	c := s.Clone()
	c.Sort()
	for k := 1; k < len(c); k++ {
		if c[k].Lo <= c[k-1].Hi {
			return false
		}
	}
	return true
}

// IsHorizontalPartition reports whether the set is a horizontal partition
// of dom per Definition 1: disjoint and covering.
func (s Set) IsHorizontalPartition(dom Interval) bool {
	return s.Disjoint() && s.Covers(dom)
}

// IsOverlappingPartitioning reports whether the set covers dom
// (Definition 2); overlap is permitted.
func (s Set) IsOverlappingPartitioning(dom Interval) bool {
	return s.Covers(dom)
}

// Gaps returns the maximal subintervals of want that are not covered by
// any interval in the set, in increasing order. It is the remainder
// computation used when the pool holds only a partial cover of a query's
// selection range.
func (s Set) Gaps(want Interval) []Interval {
	c := s.Clone()
	c.Sort()
	var gaps []Interval
	next := want.Lo
	for _, iv := range c {
		if next > want.Hi {
			break
		}
		if iv.Hi < next {
			continue
		}
		if iv.Lo > next {
			hi := min(iv.Lo-1, want.Hi)
			if next <= hi {
				gaps = append(gaps, Interval{Lo: next, Hi: hi})
			}
		}
		if iv.Hi >= next {
			next = iv.Hi + 1
		}
	}
	if next <= want.Hi {
		gaps = append(gaps, Interval{Lo: next, Hi: want.Hi})
	}
	return gaps
}

// EquiDepth splits dom into n consecutive intervals whose lengths differ
// by at most one point. It is the non-adaptive baseline partitioning
// ("E-n" in the paper's evaluation). n must be >= 1 and is clamped to the
// number of points in dom.
func EquiDepth(dom Interval, n int) Set {
	if n < 1 {
		n = 1
	}
	if int64(n) > dom.Len() {
		n = int(dom.Len())
	}
	out := make(Set, 0, n)
	total := dom.Len()
	lo := dom.Lo
	for k := 0; k < n; k++ {
		size := total / int64(n)
		if int64(k) < total%int64(n) {
			size++
		}
		out = append(out, Interval{Lo: lo, Hi: lo + size - 1})
		lo += size
	}
	return out
}

// Union returns the set's point set as sorted, disjoint, non-adjacent
// intervals: overlapping and adjacent members are merged.
func (s Set) Union() Set {
	c := s.Clone()
	c.Sort()
	out := c[:0]
	for _, iv := range c {
		if n := len(out); n > 0 && iv.Lo <= out[n-1].Hi+1 {
			out[n-1].Hi = max(out[n-1].Hi, iv.Hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}
