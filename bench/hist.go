package main

import (
	"math/bits"
	"sort"
)

// hist is a log-bucketed histogram of non-negative durations in nanoseconds.
// Values below 64 are exact; above that every power of two is split into 32
// equal buckets, so a reported quantile (the bucket midpoint) is within
// 1/64 ≈ 1.6 % of the true value. Adding is a handful of instructions and
// never allocates, which is what lets the benchmark time every single unit.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
	max    uint64
}

const (
	histSubBits = 5 // 32 sub-buckets per octave
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histBucket(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return shift*histSub + int(v>>uint(shift))
}

// histBounds returns the inclusive lower bound and the width of bucket i.
func histBounds(i int) (low, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	shift := uint(i/histSub - 1)
	return uint64(i%histSub+histSub) << shift, 1 << shift
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds: the place of
// the ⌈q·n⌉-th smallest sample inside its bucket, the bucket's samples taken
// as evenly spread. It is 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+uint64(c) >= rank {
			low, width := histBounds(i)
			if width == 1 {
				return float64(low)
			}
			return float64(low) + float64(width)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	return float64(h.max)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 when empty. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
