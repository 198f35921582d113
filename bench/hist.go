package main

import "math/bits"

// hist is a fixed-size log-linear latency histogram in nanoseconds: 128
// linear sub-buckets per power of two, so a bucket is at most 0.8% wide.
// A million samples per second of window would otherwise sit in a slice on
// the heap the measured program shares, and move its GC pacing.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 2^42 ns is over an hour; longer calls land in the last bucket.
	histBuckets = (42 - histSubBits + 1) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - histSubBits - 1
	i := (shift+1)*histSub + int(uint64(ns)>>shift) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	shift := i/histSub - 1
	m := int64(i%histSub + histSub)
	return float64(m << shift), float64((m + 1) << shift)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it (0 when the histogram is empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}
