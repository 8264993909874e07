package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestExactAccAssociative is the property the scatter-gather merge
// depends on: for any partition of a multiset of float64 values into
// groups, summing each group exactly and merging the group totals gives
// bit-identical float64 results — unlike a plain float fold, whose
// result depends on the association.
func TestExactAccAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 400)
	for i := range vals {
		// Prices with two decimals, the dataset's shape: inexact in
		// binary, so naive folds genuinely disagree across partitions.
		vals[i] = float64(rng.Intn(50000)) / 100
		if rng.Intn(2) == 0 {
			vals[i] = -vals[i]
		}
	}

	var whole exactAcc
	for _, v := range vals {
		whole.add(v)
	}
	want := whole.float64()

	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(7)
		parts := make([]exactAcc, k)
		for _, v := range vals {
			parts[rng.Intn(k)].add(v)
		}
		var merged exactAcc
		for i := range parts {
			merged.merge(&parts[i])
		}
		if got := merged.float64(); got != want ||
			math.Signbit(got) != math.Signbit(want) {
			t.Fatalf("trial %d (k=%d): merged %v != whole %v", trial, k, got, want)
		}
	}
}

// TestExactAccEncodeRoundTrip checks the transport encoding is
// lossless: decode(encode(acc)) merges exactly like acc itself.
func TestExactAccEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b exactAcc
	for i := 0; i < 100; i++ {
		a.add(float64(rng.Intn(9900)+100) / 100)
		b.add(-float64(rng.Intn(9900)+100) / 100)
	}
	ea, eb := a.encode(), b.encode()

	total, rounded, err := MergePartialSums(ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	var direct exactAcc
	direct.merge(&a)
	direct.merge(&b)
	if want := direct.float64(); rounded != want {
		t.Fatalf("round-tripped merge %v != direct merge %v", rounded, want)
	}
	// Re-encoding the merged total round-trips too.
	if _, again, err := MergePartialSums(total); err != nil || again != rounded {
		t.Fatalf("re-merge of total: %v, %v (err %v)", again, rounded, err)
	}
}

// TestExactAccZeroAndSpecials covers the degenerate encodings: an empty
// accumulator is exact zero, and non-finite inputs survive transport.
func TestExactAccZeroAndSpecials(t *testing.T) {
	var zero exactAcc
	if got := zero.float64(); got != 0 {
		t.Fatalf("zero acc = %v", got)
	}
	if _, v, err := MergePartialSums(zero.encode()); err != nil || v != 0 {
		t.Fatalf("zero round trip: %v, %v", v, err)
	}

	var inf exactAcc
	inf.add(1.5)
	inf.add(math.Inf(1))
	if got := inf.float64(); !math.IsInf(got, 1) {
		t.Fatalf("inf acc = %v", got)
	}
	dec, err := decodeExactAcc(inf.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.float64(); !math.IsInf(got, 1) {
		t.Fatalf("inf round trip = %v", got)
	}
}

// longMantissa is a 764-character decimal that no 2432-bit float holds:
// a decoder that ignores the parse's accuracy reads it as 1024.
var longMantissa = "1023." + strings.Repeat("9", 759)

// TestDecodePartialSumRejectsMalformed: a partial sum is accepted only
// as encode emits it, so a malformed replica partial fails the merge
// with an error instead of panicking it or rounding into it.
func TestDecodePartialSumRejectsMalformed(t *testing.T) {
	for name, s := range map[string]string{
		"infinite":           "Inf",
		"negative infinite":  "-Inf",
		"not a number":       "NaN",
		"inexact mantissa":   longMantissa,
		"above the domain":   "0x1p+1088",
		"below the lsb":      "0x1p-1075",
		"finite side-sum":    "0x1p+0|0x1p+0",
		"malformed side-sum": "0|x",
		"empty":              "",
	} {
		if _, err := decodeExactAcc(s); err == nil {
			t.Errorf("%s: %q decoded", name, s)
		}
	}
	if _, _, err := MergePartialSums("Inf", "-Inf"); err == nil {
		t.Error("merging Inf and -Inf succeeded")
	}
	// The edges of the domain are what encode can emit.
	for _, s := range []string{"0", "-0", "0x1p-1074", "0x.fp+1088", EncodePartialSum(math.MaxFloat64, math.MaxFloat64), EncodePartialSum(1, math.Inf(-1))} {
		if _, err := decodeExactAcc(s); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
}

// sameFloat is float64 equality with every NaN equal to every NaN: the
// side-sum's NaN payload depends on the order of its operands.
func sameFloat(a, b float64) bool {
	return a == b && math.Signbit(a) == math.Signbit(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzMergePartialSums fuzzes the hex partial-state parser the
// coordinator's merge and the refresh path run on replica and journal
// input: no input panics; decode → encode → decode is a fixed point; and
// accepted encodings merge to the same float64 and the same encoding in
// every order, also when two of them are merged first and the total —
// when it is itself inside the domain a decode accepts — is merged with
// the third.
//
//	go test -run '^$' -fuzz FuzzMergePartialSums -fuzztime 5s ./internal/engine
func FuzzMergePartialSums(f *testing.F) {
	f.Add("Inf", "-Inf", "0")
	f.Add(longMantissa, "0", "-0")
	f.Add(EncodePartialSum(0.1, 0.2), EncodePartialSum(-0.3), EncodePartialSum(1e308, 1e308))
	f.Add(EncodePartialSum(1, math.Inf(1)), EncodePartialSum(math.Inf(-1)), EncodePartialSum(math.NaN()))
	f.Add(EncodePartialSum(5e-324), EncodePartialSum(-math.MaxFloat64), "0x1p-1074")
	f.Add("0x.fp+1088", "0x.fp+1088", "-0x.fp+1088")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		in := []string{a, b, c}
		accepted := true
		for _, s := range in {
			d, err := decodeExactAcc(s)
			if err != nil {
				accepted = false
				continue
			}
			enc := d.encode()
			again, err := decodeExactAcc(enc)
			if err != nil {
				t.Fatalf("%q re-encodes as %q, which does not decode: %v", s, enc, err)
			}
			if re := again.encode(); re != enc {
				t.Fatalf("%q: decode → encode → decode gives %q, then %q", s, enc, re)
			}
		}
		total, rounded, err := MergePartialSums(a, b, c)
		if !accepted {
			if err == nil {
				t.Fatalf("merge of %q accepted a rejected encoding", in)
			}
			return
		}
		if err != nil {
			t.Fatalf("merge of accepted %q: %v", in, err)
		}
		for _, order := range [][3]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			tot, r, err := MergePartialSums(in[order[0]], in[order[1]], in[order[2]])
			if err != nil || tot != total || !sameFloat(r, rounded) {
				t.Fatalf("order %v of %q: %q %v (%v), want %q %v", order, in, tot, r, err, total, rounded)
			}
		}
		pair, _, err := MergePartialSums(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeExactAcc(pair); err != nil {
			return // two sums near 2^1088 add up to more than any decode accepts
		}
		if tot, r, err := MergePartialSums(pair, c); err != nil || tot != total || !sameFloat(r, rounded) {
			t.Fatalf("(%q+%q)+%q: %q %v (%v), want %q %v", a, b, c, tot, r, err, total, rounded)
		}
	})
}
