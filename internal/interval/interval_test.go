package interval

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(5, 3) did not panic")
		}
	}()
	New(5, 3)
}

func TestLen(t *testing.T) {
	tests := []struct {
		iv   Interval
		want int64
	}{
		{New(0, 0), 1},
		{New(0, 9), 10},
		{New(-5, 5), 11},
	}
	for _, tt := range tests {
		if got := tt.iv.Len(); got != tt.want {
			t.Errorf("%v.Len() = %d, want %d", tt.iv, got, tt.want)
		}
	}
}

func TestContains(t *testing.T) {
	iv := New(10, 20)
	for _, v := range []int64{10, 15, 20} {
		if !iv.Contains(v) {
			t.Errorf("%v.Contains(%d) = false, want true", iv, v)
		}
	}
	for _, v := range []int64{9, 21, -1} {
		if iv.Contains(v) {
			t.Errorf("%v.Contains(%d) = true, want false", iv, v)
		}
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b   Interval
		want   Interval
		wantOK bool
	}{
		{New(0, 10), New(5, 15), New(5, 10), true},
		{New(0, 10), New(10, 15), New(10, 10), true},
		{New(0, 10), New(11, 15), Interval{}, false},
		{New(0, 10), New(2, 8), New(2, 8), true},
	}
	for _, tt := range tests {
		got, ok := tt.a.Intersect(tt.b)
		if ok != tt.wantOK || (ok && got != tt.want) {
			t.Errorf("%v.Intersect(%v) = %v,%v want %v,%v", tt.a, tt.b, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestSplitAt(t *testing.T) {
	tests := []struct {
		name string
		iv   Interval
		cuts []int64
		want []Interval
	}{
		{"single cut", New(0, 10), []int64{4}, []Interval{New(0, 3), New(4, 10)}},
		{"two cuts", New(0, 10), []int64{4, 8}, []Interval{New(0, 3), New(4, 7), New(8, 10)}},
		{"unsorted cuts", New(0, 10), []int64{8, 4}, []Interval{New(0, 3), New(4, 7), New(8, 10)}},
		{"cut at Lo ignored", New(0, 10), []int64{0}, []Interval{New(0, 10)}},
		{"cut past Hi ignored", New(0, 10), []int64{11}, []Interval{New(0, 10)}},
		{"cut at Hi", New(0, 10), []int64{10}, []Interval{New(0, 9), New(10, 10)}},
		{"duplicate cuts", New(0, 10), []int64{5, 5}, []Interval{New(0, 4), New(5, 10)}},
		{"no cuts", New(0, 10), nil, []Interval{New(0, 10)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.iv.SplitAt(tt.cuts...)
			if len(got) != len(tt.want) {
				t.Fatalf("SplitAt(%v) = %v, want %v", tt.cuts, got, tt.want)
			}
			for k := range got {
				if got[k] != tt.want[k] {
					t.Fatalf("SplitAt(%v) = %v, want %v", tt.cuts, got, tt.want)
				}
			}
		})
	}
}

// SplitAt must always yield a horizontal partition of its receiver.
func TestSplitAtIsPartitionProperty(t *testing.T) {
	f := func(lo int16, span uint8, rawCuts []int16) bool {
		iv := New(int64(lo), int64(lo)+int64(span))
		cuts := make([]int64, len(rawCuts))
		for k, c := range rawCuts {
			cuts[k] = int64(c)
		}
		parts := Set(iv.SplitAt(cuts...))
		return parts.IsHorizontalPartition(iv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCovers(t *testing.T) {
	dom := New(0, 100)
	tests := []struct {
		name string
		set  Set
		want bool
	}{
		{"exact partition", Set{New(0, 50), New(51, 100)}, true},
		{"overlapping cover", Set{New(0, 60), New(40, 100)}, true},
		{"gap", Set{New(0, 40), New(42, 100)}, false},
		{"missing tail", Set{New(0, 99)}, false},
		{"missing head", Set{New(1, 100)}, false},
		{"single covering", Set{New(-10, 200)}, true},
		{"empty", Set{}, false},
		{"unsorted", Set{New(51, 100), New(0, 50)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.set.Covers(dom); got != tt.want {
				t.Errorf("Covers = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDisjoint(t *testing.T) {
	if !(Set{New(0, 5), New(6, 10)}).Disjoint() {
		t.Error("adjacent intervals reported as overlapping")
	}
	if (Set{New(0, 5), New(5, 10)}).Disjoint() {
		t.Error("shared endpoint not detected")
	}
	if !(Set{}).Disjoint() {
		t.Error("empty set should be disjoint")
	}
}

func TestGaps(t *testing.T) {
	tests := []struct {
		name string
		set  Set
		want Interval
		gaps []Interval
	}{
		{"full cover", Set{New(0, 100)}, New(10, 20), nil},
		{"no cover", Set{}, New(10, 20), []Interval{New(10, 20)}},
		{"middle gap", Set{New(0, 12), New(18, 100)}, New(10, 20), []Interval{New(13, 17)}},
		{"head gap", Set{New(15, 100)}, New(10, 20), []Interval{New(10, 14)}},
		{"tail gap", Set{New(0, 15)}, New(10, 20), []Interval{New(16, 20)}},
		{"two gaps", Set{New(12, 13), New(16, 17)}, New(10, 20),
			[]Interval{New(10, 11), New(14, 15), New(18, 20)}},
		{"irrelevant fragment", Set{New(30, 40)}, New(10, 20), []Interval{New(10, 20)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.set.Gaps(tt.want)
			if len(got) != len(tt.gaps) {
				t.Fatalf("Gaps = %v, want %v", got, tt.gaps)
			}
			for k := range got {
				if got[k] != tt.gaps[k] {
					t.Fatalf("Gaps = %v, want %v", got, tt.gaps)
				}
			}
		})
	}
}

// Gaps plus the covered portions must partition the queried range.
func TestGapsComplementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dom := New(0, 1000)
		var set Set
		for k := 0; k < rng.Intn(6); k++ {
			lo := rng.Int63n(1000)
			set = append(set, New(lo, lo+rng.Int63n(1000-lo+1)))
		}
		wantLo := rng.Int63n(900)
		want := New(wantLo, wantLo+rng.Int63n(100)+1)
		gaps := set.Gaps(want)
		// Every gap point must be uncovered; every non-gap point covered.
		inGap := func(v int64) bool {
			for _, g := range gaps {
				if g.Contains(v) {
					return true
				}
			}
			return false
		}
		covered := func(v int64) bool {
			for _, iv := range set {
				if iv.Contains(v) {
					return true
				}
			}
			return false
		}
		for v := want.Lo; v <= want.Hi; v++ {
			if inGap(v) == covered(v) {
				return false
			}
		}
		_ = dom
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEquiDepth(t *testing.T) {
	dom := New(0, 99)
	for _, n := range []int{1, 2, 3, 5, 7, 100} {
		set := EquiDepth(dom, n)
		if len(set) != n {
			t.Errorf("EquiDepth(%d) produced %d fragments", n, len(set))
		}
		if !set.IsHorizontalPartition(dom) {
			t.Errorf("EquiDepth(%d) = %v is not a horizontal partition", n, set)
		}
		// Sizes must differ by at most one point.
		var mn, mx int64 = 1 << 62, 0
		for _, iv := range set {
			if l := iv.Len(); l < mn {
				mn = l
			}
			if l := iv.Len(); l > mx {
				mx = l
			}
		}
		if mx-mn > 1 {
			t.Errorf("EquiDepth(%d): fragment sizes differ by %d", n, mx-mn)
		}
	}
	if got := EquiDepth(New(0, 2), 10); len(got) != 3 {
		t.Errorf("EquiDepth clamping: got %d fragments, want 3", len(got))
	}
	if got := EquiDepth(dom, 0); len(got) != 1 {
		t.Errorf("EquiDepth(0): got %d fragments, want 1", len(got))
	}
}

func TestEquiDepthPartitionProperty(t *testing.T) {
	f := func(lo int16, span uint16, n uint8) bool {
		dom := New(int64(lo), int64(lo)+int64(span))
		set := EquiDepth(dom, int(n))
		return set.IsHorizontalPartition(dom)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnion(t *testing.T) {
	tests := []struct {
		name string
		set  Set
		want Set
	}{
		{"empty", Set{}, Set{}},
		{"adjacent merge", Set{New(0, 5), New(6, 10)}, Set{New(0, 10)}},
		{"overlap and containment", Set{New(0, 60), New(10, 20), New(40, 100)}, Set{New(0, 100)}},
		{"hole stays", Set{New(8, 9), New(0, 5), New(6, 6)}, Set{New(0, 6), New(8, 9)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := tt.set.Clone()
			got := tt.set.Union()
			if !slices.Equal(got, tt.want) {
				t.Errorf("Union = %v, want %v", got, tt.want)
			}
			if !slices.Equal(tt.set, in) {
				t.Errorf("Union reordered its receiver: %v, was %v", tt.set, in)
			}
		})
	}
}
