package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: 128 linear
// sub-buckets per power of two, so any value is off by at most 1/128 of
// itself and a run's memory does not grow with its length. Not safe for
// concurrent use — each sender owns one and they merge at phase end.
type hist struct {
	counts []uint32
	n      uint64
	sum    float64
}

const histSubBits = 7

func histIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 1<<histSubBits {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits
	return (exp+1)<<histSubBits + int(v>>uint(exp))&(1<<histSubBits-1)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < 1<<histSubBits {
		return float64(i), float64(i + 1)
	}
	exp := uint(i>>histSubBits - 1)
	sub := uint64(i&(1<<histSubBits-1)) | 1<<histSubBits
	return float64(sub << exp), float64((sub + 1) << exp)
}

func (h *hist) add(d time.Duration) {
	i := histIndex(int64(d))
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint32, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
	h.sum += float64(d)
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint32, len(o.counts)-len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolating inside
// the bucket that holds it; NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBounds(len(h.counts) - 1)
	return hi
}

func (h *hist) ms(q float64) float64 { return h.quantile(q) / 1e6 }

// Units of a nanosecond count, for at.
const (
	perMS = 1e6
	perUS = 1e3
	perNS = 1
)

// at is the q-quantile in the given unit, and 0 for a nil or empty
// histogram: a layer that is not on a workload's path still reports.
func (h *hist) at(q, unit float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.quantile(q) / unit
}
