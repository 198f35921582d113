package obs

import (
	"encoding/json"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every latency histogram. The
// buckets are log-spaced powers of two over a 1µs base: bucket 0 holds
// observations below 1µs, bucket i (0 < i < NumBuckets-1) holds
// [1µs·2^(i-1), 1µs·2^i), and the last bucket is open-ended. That spans
// sub-microsecond encode steps to multi-minute stalls in 32 fixed slots, so a
// histogram is a flat atomic array — no locks, no dynamic growth, and
// snapshots from any two histograms merge bucket-by-bucket.
const NumBuckets = 32

// bucketBase is the width of bucket 1 and the scale of the whole grid.
const bucketBase = time.Microsecond

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	if d < bucketBase {
		return 0
	}
	i := bits.Len64(uint64(d / bucketBase))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketUpperBound returns the exclusive upper bound of bucket i; the last
// bucket is open-ended and reports a negative duration.
func BucketUpperBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return -1
	}
	return bucketBase << i
}

// Histogram is a fixed-bucket, log-spaced latency histogram. All methods
// are safe for concurrent use; Observe is wait-free (two atomic adds).
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64 // total observed nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
}

// Reset zeroes every bucket and the sum. It is not atomic against
// concurrent Observe calls; windowSlot.advance calls it under the slot's
// rotation lock when the ring moves on.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// Snapshot captures the histogram's current state. Count is derived from
// the bucket array, so a snapshot is always internally consistent: its
// Count equals the sum of its Buckets even when writers race the read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.SumNanos = h.sum.Load()
	return s
}

// HistogramSnapshot is the exported, mergeable state of a Histogram.
type HistogramSnapshot struct {
	Count    uint64             `json:"count"`
	SumNanos int64              `json:"sum_ns"`
	Buckets  [NumBuckets]uint64 `json:"buckets"`
}

// MarshalJSON augments the raw snapshot with derived mean/p50/p95/p99
// fields so JSON consumers (the /metrics endpoint, CI artifacts) get
// quantiles without reimplementing the bucket math. The derived fields are
// computed at marshal time from the buckets; UnmarshalJSON (the default,
// field-by-field) ignores them, so snapshots still round-trip and merge on
// the raw state alone.
func (s HistogramSnapshot) MarshalJSON() ([]byte, error) {
	type raw HistogramSnapshot // drops the method, avoiding recursion
	return json.Marshal(struct {
		raw
		MeanNanos int64 `json:"mean_ns"`
		P50Nanos  int64 `json:"p50_ns"`
		P95Nanos  int64 `json:"p95_ns"`
		P99Nanos  int64 `json:"p99_ns"`
	}{
		raw:       raw(s),
		MeanNanos: int64(s.Mean()),
		P50Nanos:  int64(s.Quantile(0.50)),
		P95Nanos:  int64(s.Quantile(0.95)),
		P99Nanos:  int64(s.Quantile(0.99)),
	})
}

// Merge adds other's observations into s.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
	s.Count += other.Count
	s.SumNanos += other.SumNanos
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(uint64(s.SumNanos) / s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the upper bound of the
// bucket containing it — a conservative (over-)estimate with the grid's
// factor-of-two resolution. Returns 0 when empty; an estimate landing in
// the open-ended last bucket reports that bucket's lower bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen > rank {
			if ub := BucketUpperBound(i); ub >= 0 {
				return ub
			}
			return bucketBase << (NumBuckets - 2)
		}
	}
	return 0
}
