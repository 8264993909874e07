package interval

import (
	"math"
	"slices"
	"testing"
)

// fuzzBases are the window origins FuzzAlgebra places its intervals in:
// both ends of the int64 range the algebra admits, and around zero.
var fuzzBases = [4]int64{math.MinInt64, -32, 0, math.MaxInt64 - 65}

// fuzzWindow is the number of points in a window: offsets 0..64, so the
// top window ends at MaxInt64-1, the largest Hi the algebra admits.
const fuzzWindow = 65

// fuzzSeed encodes a window base, a want interval and up to eight member
// intervals as offsets into the window, the layout FuzzAlgebra decodes.
func fuzzSeed(base byte, want [2]byte, members ...[2]byte) []byte {
	out := []byte{base, want[0], want[1]}
	for _, m := range members {
		out = append(out, m[0], m[1])
	}
	return out
}

// runs returns the maximal runs of offsets in [lo, hi] where in holds,
// as intervals of the window starting at base.
func runs(base int64, lo, hi int, in func(int) bool) []Interval {
	var out []Interval
	for p := lo; p <= hi; p++ {
		if !in(p) {
			continue
		}
		q := p
		for q < hi && in(q+1) {
			q++
		}
		out = append(out, Interval{Lo: base + int64(p), Hi: base + int64(q)})
		p = q
	}
	return out
}

// FuzzAlgebra checks Covers, Gaps, Union, Disjoint, SplitAt and
// ClippedCover against a brute-force point set. The input picks a
// 65-point window — at either end of the admitted range or around zero —
// a want interval and up to eight member intervals inside it; bytes past
// the eighth member are extra SplitAt cuts. ClippedCover reporting a
// full cover exactly when Gaps finds none is the agreement partition's
// Cover relies on.
//
//	go test -run '^$' -fuzz FuzzAlgebra -fuzztime 5s ./internal/interval
func FuzzAlgebra(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzSeed(0, [2]byte{0, 64}))
	for base := byte(0); base < 4; base++ {
		f.Add(fuzzSeed(base, [2]byte{0, 64}, [2]byte{0, 64}))
		f.Add(fuzzSeed(base, [2]byte{64, 64}, [2]byte{0, 63}, [2]byte{64, 64}))
		f.Add(fuzzSeed(base, [2]byte{0, 0}, [2]byte{1, 64}))
	}
	// A view domain ending at MaxInt64-1 (one point below a domain that
	// wrapped): a query reaching its top, covered by overlapping
	// fragments, by a horizontal partition, and with the top point or the
	// bottom point uncovered.
	f.Add(fuzzSeed(3, [2]byte{10, 64}, [2]byte{0, 40}, [2]byte{30, 64}, [2]byte{50, 60}))
	f.Add(fuzzSeed(3, [2]byte{0, 64}, [2]byte{0, 15}, [2]byte{16, 31}, [2]byte{32, 47}, [2]byte{48, 64}))
	f.Add(fuzzSeed(3, [2]byte{40, 64}, [2]byte{0, 63}, [2]byte{20, 50}))
	f.Add(fuzzSeed(3, [2]byte{0, 64}, [2]byte{10, 64}, [2]byte{0, 5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		base := fuzzBases[data[0]%4]
		iv := func(a, b byte) (Interval, int, int) {
			lo, hi := int(a)%fuzzWindow, int(b)%fuzzWindow
			if lo > hi {
				lo, hi = hi, lo
			}
			return Interval{Lo: base + int64(lo), Hi: base + int64(hi)}, lo, hi
		}
		want, wLo, wHi := iv(data[1], data[2])
		var set Set
		var cover [fuzzWindow]int
		rest := data[3:]
		for len(rest) >= 2 && len(set) < 8 {
			m, lo, hi := iv(rest[0], rest[1])
			set = append(set, m)
			for p := lo; p <= hi; p++ {
				cover[p]++
			}
			rest = rest[2:]
		}
		covered := func(p int) bool { return cover[p] > 0 }
		orig := set.Clone()

		gaps := runs(base, wLo, wHi, func(p int) bool { return !covered(p) })
		if got := set.Gaps(want); !slices.Equal(got, gaps) {
			t.Fatalf("%v.Gaps(%v) = %v, want %v", set, want, got, gaps)
		}
		if got := set.Covers(want); got != (len(gaps) == 0) {
			t.Fatalf("%v.Covers(%v) = %v, but the uncovered runs are %v", set, want, got, gaps)
		}
		if got, union := set.Union(), runs(base, 0, fuzzWindow-1, covered); !slices.Equal(got, union) {
			t.Fatalf("%v.Union() = %v, want %v", set, got, union)
		}
		disjoint := !slices.ContainsFunc(cover[:], func(n int) bool { return n > 1 })
		if got := set.Disjoint(); got != disjoint {
			t.Fatalf("%v.Disjoint() = %v, want %v", set, got, disjoint)
		}

		var cuts []int64
		for _, m := range set {
			cuts = append(cuts, m.Lo, m.Hi+1)
		}
		for _, b := range rest {
			cuts = append(cuts, base+int64(b)-96) // may wrap: an out-of-range cut
		}
		pieces := want.SplitAt(cuts...)
		next := want.Lo
		for k, p := range pieces {
			if p.Lo != next || p.Hi < p.Lo || p.Hi > want.Hi {
				t.Fatalf("%v.SplitAt(%v) = %v: piece %d does not continue at %d", want, cuts, pieces, k, next)
			}
			if k > 0 && !slices.Contains(cuts, p.Lo) {
				t.Fatalf("%v.SplitAt(%v) = %v: piece %d starts at no cut", want, cuts, pieces, k)
			}
			next = p.Hi + 1
		}
		if pieces[len(pieces)-1].Hi != want.Hi {
			t.Fatalf("%v.SplitAt(%v) = %v does not reach %d", want, cuts, pieces, want.Hi)
		}
		for _, c := range cuts {
			if c > want.Lo && c <= want.Hi && !slices.ContainsFunc(pieces, func(p Interval) bool { return p.Lo == c }) {
				t.Fatalf("%v.SplitAt(%v) = %v: cut %d starts no piece", want, cuts, pieces, c)
			}
		}

		indices, reads, full := ClippedCover(want, set)
		if full != (len(gaps) == 0) {
			t.Fatalf("ClippedCover(%v, %v) full = %v, but the uncovered runs are %v", want, set, full, gaps)
		}
		if len(reads) != len(indices) {
			t.Fatalf("ClippedCover(%v, %v): %d reads for %d indices", want, set, len(reads), len(indices))
		}
		next = want.Lo
		for k, r := range reads {
			if r.Lo != next || r.Hi < r.Lo || !set[indices[k]].ContainsInterval(r) {
				t.Fatalf("ClippedCover(%v, %v) = %v %v: read %d is not consecutive inside its candidate", want, set, indices, reads, k)
			}
			next = r.Hi + 1
		}
		if full && (len(reads) == 0 || reads[len(reads)-1].Hi != want.Hi) {
			t.Fatalf("ClippedCover(%v, %v) = %v %v: a full cover that stops short of %d", want, set, indices, reads, want.Hi)
		}
		if !slices.Equal(set, orig) {
			t.Fatalf("the algebra reordered its receiver: %v, was %v", set, orig)
		}
	})
}
