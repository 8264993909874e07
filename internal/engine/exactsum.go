package engine

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
)

// exactAccPrec is the mantissa precision (bits) of the exact
// accumulator. An exact sum of float64 values spans at most the bits
// between its largest magnitude (≤ 2^1024 per addend, ≤ 2^1088 after
// 2^64 addends) and the smallest nonzero ulp any addend contributes
// (≥ 2^-1074): under 2200 bits. With 2432 bits of precision every
// big.Float addition below is therefore exact — no rounding ever
// happens until the final conversion back to float64 — which makes the
// accumulation fully associative: any grouping of the same multiset of
// addends produces the same value. That associativity is what lets a
// scatter-gather coordinator merge per-shard partial sums and still
// produce results byte-identical to an unsharded run, for any
// partition of the rows.
const exactAccPrec = 2432

// exactAcc accumulates float64 values exactly. The zero value is an
// accumulator holding 0. Non-finite inputs (NaN, ±Inf) cannot live in a
// big.Float; they are folded through a plain float64 side-sum instead,
// which keeps the accumulator total-function but forfeits the
// partition-invariance guarantee for them (the benchmark datasets never
// produce non-finite values).
type exactAcc struct {
	acc      big.Float
	init     bool
	specials float64
	hasSpec  bool
}

func (a *exactAcc) ensure() {
	if !a.init {
		a.acc.SetPrec(exactAccPrec)
		a.init = true
	}
}

// add folds one value into the accumulator, exactly for finite v.
func (a *exactAcc) add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		a.specials += v
		a.hasSpec = true
		return
	}
	a.ensure()
	var t big.Float
	t.SetFloat64(v)
	a.acc.Add(&a.acc, &t)
}

// merge folds another accumulator in, exactly.
func (a *exactAcc) merge(b *exactAcc) {
	if b.hasSpec {
		a.specials += b.specials
		a.hasSpec = true
	}
	if !b.init {
		return
	}
	a.ensure()
	a.acc.Add(&a.acc, &b.acc)
}

// float64 rounds the exact total to the nearest float64 (ties to even)
// — the single rounding step of the whole accumulation.
func (a *exactAcc) float64() float64 {
	var f float64
	if a.init {
		f, _ = a.acc.Float64()
	}
	if a.hasSpec {
		f += a.specials
	}
	return f
}

// encode renders the accumulator losslessly for transport: the exact
// big.Float in hexadecimal-mantissa form ("0x.c4p+10"), with a plain
// hex-float suffix for the non-finite side-sum when one exists. decode
// reverses it bit-for-bit, so a partial sum survives a JSON round trip
// between shard and coordinator without losing the exactness that
// merge determinism depends on.
func (a *exactAcc) encode() string {
	s := "0"
	if a.init {
		s = a.acc.Text('p', 0)
	}
	if a.hasSpec {
		s += "|" + strconv.FormatFloat(a.specials, 'x', -1, 64)
	}
	return s
}

// The domain of an exact sum of float64 values (see exactAccPrec):
// below 2^exactAccMaxExp in magnitude, a whole multiple of
// 2^exactAccMinExp.
const (
	exactAccMaxExp = 1088
	exactAccMinExp = -1074
)

// decodeExactAcc parses an encode() rendering, and only what encode can
// emit: a finite main part that parses exactly at exactAccPrec and lies
// in the domain of exact float64 sums, and a non-finite side-sum (only
// non-finite addends reach it). Anything else is an error, never a
// value: an infinite main part would panic the merge, an inexact one
// would silently round, and one outside the domain would make merges
// round — and so depend on their order.
func decodeExactAcc(s string) (*exactAcc, error) {
	a := &exactAcc{}
	main := s
	if i := strings.IndexByte(s, '|'); i >= 0 {
		main = s[:i]
		sp, err := strconv.ParseFloat(s[i+1:], 64)
		if err != nil {
			return nil, err
		}
		if !math.IsNaN(sp) && !math.IsInf(sp, 0) {
			return nil, fmt.Errorf("engine: partial sum %q: finite side-sum", s)
		}
		a.specials = sp
		a.hasSpec = true
	}
	f, _, err := big.ParseFloat(main, 0, exactAccPrec, big.ToNearestEven)
	if err != nil {
		return nil, err
	}
	if f.IsInf() || f.Acc() != big.Exact {
		return nil, fmt.Errorf("engine: partial sum %q: not an exact finite value", s)
	}
	if f.Sign() != 0 {
		var units big.Float
		if f.MantExp(nil) > exactAccMaxExp || !units.SetMantExp(f, -exactAccMinExp).IsInt() {
			return nil, fmt.Errorf("engine: partial sum %q: outside the exact sum domain", s)
		}
	}
	a.acc.Copy(f)
	a.init = true
	return a, nil
}

// EncodePartialSum is the package boundary for producing an exact
// partial-sum encoding outside the engine (the scatter-gather merge
// layer re-encodes merged totals with it in tests).
func EncodePartialSum(vs ...float64) string {
	var a exactAcc
	for _, v := range vs {
		a.add(v)
	}
	return a.encode()
}

// MergePartialSums decodes exact partial-sum encodings (as emitted in
// partial-aggregate rows), merges them exactly, and returns the encoded
// total plus its float64 rounding. The coordinator's aggregate merge is
// built on this: because every step is exact, the float64 result is
// identical for any grouping of the same partials.
func MergePartialSums(encoded ...string) (total string, rounded float64, err error) {
	var a exactAcc
	for _, s := range encoded {
		b, err := decodeExactAcc(s)
		if err != nil {
			return "", 0, err
		}
		a.merge(b)
	}
	return a.encode(), a.float64(), nil
}
