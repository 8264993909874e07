package stats

import (
	"math"
	"sort"

	"deepsea/internal/interval"
)

// NormalModel is a fitted N(mu, sigma) access distribution over a
// partition attribute's domain, together with the total decayed hit mass
// it was fitted from.
type NormalModel struct {
	Mu     float64
	Sigma  float64
	Htotal float64
	// Parts is the number of boundary-aligned parts the fit used (the
	// paper's n in the adjusted sample variance).
	Parts int
}

// Valid reports whether the model carries enough signal to adjust hits.
func (m NormalModel) Valid() bool {
	return m.Htotal > 0 && m.Sigma > 0 && !math.IsNaN(m.Sigma)
}

// CDF evaluates P(x <= c) under the fitted normal distribution.
func (m NormalModel) CDF(c float64) float64 {
	return 0.5 * (1 + math.Erf((c-m.Mu)/(m.Sigma*math.Sqrt2)))
}

// AdjustedHits returns HA(I) = Htotal · (P(x <= u) − P(x <= l)), the
// paper's smoothed hit count for a fragment (Section 7.1). The estimate
// deliberately ignores interval overlap, as the paper's does.
func (m NormalModel) AdjustedHits(iv interval.Interval) float64 {
	if !m.Valid() {
		return 0
	}
	return m.Htotal * (m.CDF(float64(iv.Hi)) - m.CDF(float64(iv.Lo)))
}

// fitPart is one boundary-aligned atom of FitNormal's quantized domain
// and the hits spread onto it.
type fitPart struct {
	iv   interval.Interval
	hits float64
}

// spreadHits adds a fragment's h hits to the parts it overlaps,
// proportionally to the overlap. The parts are sorted and disjoint, so
// the overlapped ones are consecutive: from the first that ends at or
// after the fragment's start to the last that starts at or before its
// end.
func spreadHits(parts []fitPart, frag interval.Interval, h float64) {
	fragLen := float64(frag.Len())
	first := sort.Search(len(parts), func(i int) bool { return parts[i].iv.Hi >= frag.Lo })
	for i := first; i < len(parts) && parts[i].iv.Lo <= frag.Hi; i++ {
		parts[i].hits += h * float64(parts[i].iv.OverlapLen(frag)) / fragLen
	}
}

// FitNormal computes the maximum-likelihood normal distribution for the
// partition's observed hits, following Section 7.1:
//
// The domain is quantized into parts aligned with every fragment
// boundary, each fragment's decayed hits are spread over the parts it
// contains proportionally to part length (the paper spreads hits evenly
// over equi-sized parts; length-proportional spreading over
// boundary-aligned atoms computes the same smoothing without requiring a
// common part size to exist), and the weighted MLE estimators
//
//	mu    = Σ w_i x_i / W
//	sigma² = (Σ w_i (x_i − mu)²/W) · n/(n−1)
//
// are evaluated with x_i the part midpoints, w_i the per-part hits, and
// n the number of parts (the paper's adjusted sample variance).
func (p *PartitionStat) FitNormal(tnow float64, d Decay) NormalModel {
	frags := p.Fragments()
	if len(frags) == 0 {
		return NormalModel{}
	}

	// Collect boundary-aligned atoms: cuts at every fragment Lo and
	// Hi+1, clamped to the domain.
	cutSet := map[int64]bool{p.Dom.Lo: true, p.Dom.Hi + 1: true}
	for _, f := range frags {
		if f.Iv.Lo >= p.Dom.Lo && f.Iv.Lo <= p.Dom.Hi {
			cutSet[f.Iv.Lo] = true
		}
		if f.Iv.Hi+1 > p.Dom.Lo && f.Iv.Hi+1 <= p.Dom.Hi+1 {
			cutSet[f.Iv.Hi+1] = true
		}
	}
	cuts := make([]int64, 0, len(cutSet))
	for c := range cutSet {
		cuts = append(cuts, c)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	parts := make([]fitPart, 0, len(cuts)-1)
	for i := 0; i+1 < len(cuts); i++ {
		parts = append(parts, fitPart{iv: interval.New(cuts[i], cuts[i+1]-1)})
	}

	// Spread each fragment's decayed hits over the parts it contains,
	// proportionally to part length.
	var htotal float64
	for _, f := range frags {
		h := f.DecayedHits(tnow, d)
		htotal += h
		if h == 0 {
			continue
		}
		spreadHits(parts, f.Iv, h)
	}
	if htotal <= 0 {
		return NormalModel{}
	}

	var wsum, mu float64
	for _, pt := range parts {
		x := float64(pt.iv.Lo+pt.iv.Hi) / 2
		mu += pt.hits * x
		wsum += pt.hits
	}
	mu /= wsum

	var variance float64
	for _, pt := range parts {
		x := float64(pt.iv.Lo+pt.iv.Hi) / 2
		dx := x - mu
		variance += pt.hits * dx * dx
	}
	variance /= wsum
	n := len(parts)
	if n > 1 {
		variance *= float64(n) / float64(n-1)
	}
	sigma := math.Sqrt(variance)
	if sigma <= 0 {
		// All mass on a single part: fall back to that part's extent so
		// the model still concentrates probability near the hot spot.
		for _, pt := range parts {
			if pt.hits > 0 {
				sigma = math.Max(float64(pt.iv.Len())/4, 1)
				break
			}
		}
	}
	return NormalModel{Mu: mu, Sigma: sigma, Htotal: htotal, Parts: n}
}
