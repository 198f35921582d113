package obs

// The dimensional metric registry: labeled latency/error series keyed by
// (operation, encoding, transport, peer role). The fixed counter/gauge/stage
// arrays answer "how is this process doing"; a JClarens-style service — one
// operation set, thousands of heterogeneous clients — needs "which
// operation, on which encoding, over which transport, is burning the
// budget", and that is inherently a keyed lookup.
//
// The registry keeps the keyed lookup off the hot path's lock by mirroring
// core's planCache copy-on-write idiom: readers load an immutable map
// snapshot through an atomic pointer and index it lock-free; inserting a
// never-seen key clones the map under a mutex and publishes the copy.
// Series churn is bounded by construction — the label set is (operations ×
// encodings × transports × 2 roles), all small — so clones are rare after
// warm-up.
//
// Cardinality is a denial-of-service surface: operation names come from
// peer-controlled envelopes, and a hostile client cycling random operation
// names must not grow the map without bound. Past the series limit
// (DefaultSeriesLimit) every new key lands in one shared, explicitly labeled
// overflow series (OverflowOp) and bumps the SeriesOverflow counter:
// dashboards degrade to an honest "other" bucket instead of the process
// OOMing.
//
// Each series also captures exemplars — the last TraceID observed per
// latency bucket — so a tail spike on /metrics links directly to a recorded
// trace in the flight recorder (see recorder.go). Storing the most recent
// ID per bucket is deliberately simple: one atomic store, no sampling
// state, and the tail buckets are exactly where a fresh outlier's ID
// survives because healthy traffic never lands there.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// OverflowOp is the operation label of the shared overflow series that
// absorbs recordings past the registry's series limit.
const OverflowOp = "__overflow__"

// DefaultSeriesLimit bounds the number of distinct series a registry will
// materialize before routing new keys to the overflow series.
const DefaultSeriesLimit = 128

// SeriesKey identifies one dimensional series.
type SeriesKey struct {
	Op        string `json:"op"`
	Encoding  string `json:"encoding,omitempty"`
	Transport string `json:"transport,omitempty"`
	Role      string `json:"role,omitempty"` // RoleClient or RoleServer
}

// Series is one labeled latency/error series: a windowed latency histogram,
// a windowed error counter, and per-bucket trace exemplars. All methods are
// safe for concurrent use and nil-receiver safe.
type Series struct {
	key  SeriesKey
	lat  WindowedHistogram
	errs WindowedCounter

	// exemplars[i] holds the TraceID of the most recent traced sample that
	// landed in latency bucket i (0 = none yet).
	exemplars [NumBuckets]atomic.Uint64
}

// Key returns the series' labels (zero on a nil receiver).
func (s *Series) Key() SeriesKey {
	if s == nil {
		return SeriesKey{}
	}
	return s.key
}

// Record adds one sample: latency d under window tick, the error count when
// failed, and — when tid is nonzero — the trace exemplar for d's bucket.
// No-op on a nil receiver.
func (s *Series) Record(d time.Duration, failed bool, tick int64, tid TraceID) {
	if s == nil {
		return
	}
	s.lat.Observe(d, tick)
	if failed {
		s.errs.Add(1, tick)
	}
	if tid != 0 {
		s.exemplars[bucketFor(d)].Store(uint64(tid))
	}
}

// Latency returns the series' windowed latency histogram (nil on a nil
// receiver — and a nil *WindowedHistogram is itself a no-op sink).
func (s *Series) Latency() *WindowedHistogram {
	if s == nil {
		return nil
	}
	return &s.lat
}

// Errors returns the series' windowed error counter (nil on a nil
// receiver).
func (s *Series) Errors() *WindowedCounter {
	if s == nil {
		return nil
	}
	return &s.errs
}

// Exemplar returns the TraceID most recently captured for latency bucket i
// (0 when none, out of range, or nil receiver).
func (s *Series) Exemplar(i int) TraceID {
	if s == nil || i < 0 || i >= NumBuckets {
		return 0
	}
	return TraceID(s.exemplars[i].Load())
}

// SeriesSnapshot is the exported, JSON-serializable state of one series
// over a chosen window span plus its lifetime aggregate.
type SeriesSnapshot struct {
	Key       SeriesKey         `json:"key"`
	Latency   HistogramSnapshot `json:"latency"`
	Errors    uint64            `json:"errors"`
	Lifetime  HistogramSnapshot `json:"lifetime"`
	LifeErrs  uint64            `json:"lifetime_errors"`
	Exemplars map[int]string    `json:"exemplars,omitempty"` // bucket index -> TraceID hex
}

// Snapshot exports the series: Latency/Errors over the n windows ending at
// tick, Lifetime/LifeErrs since creation, and every captured exemplar.
func (s *Series) Snapshot(tick int64, n int) SeriesSnapshot {
	if s == nil {
		return SeriesSnapshot{}
	}
	out := SeriesSnapshot{
		Key:      s.key,
		Latency:  s.lat.Window(tick, n),
		Errors:   s.errs.Window(tick, n),
		Lifetime: s.lat.Lifetime(),
		LifeErrs: s.errs.Lifetime(),
	}
	for i := 0; i < NumBuckets; i++ {
		if id := s.exemplars[i].Load(); id != 0 {
			if out.Exemplars == nil {
				out.Exemplars = make(map[int]string)
			}
			out.Exemplars[i] = TraceID(id).String()
		}
	}
	return out
}

// Registry holds the dimensional series map: copy-on-write reads, bounded
// inserts, one overflow series past the limit. The zero value is unusable;
// construct with newRegistry (Observers build one when WithDims or
// WithSLOs is configured). All methods are nil-receiver safe, so an
// Observer without dimensional metrics carries a nil *Registry and every
// recording through it is a no-op.
type Registry struct {
	limit    int // always DefaultSeriesLimit; a field so tests can lower it
	series   atomic.Pointer[map[SeriesKey]*Series]
	mu       sync.Mutex // serializes inserts; reads never take it
	overflow Series
}

func newRegistry() *Registry {
	r := &Registry{limit: DefaultSeriesLimit}
	r.overflow.key = SeriesKey{Op: OverflowOp}
	m := make(map[SeriesKey]*Series)
	r.series.Store(&m)
	return r
}

// Lookup returns the series for key, materializing it if the registry has
// room. Past the series limit it returns the shared overflow series. Nil on
// a nil receiver.
func (r *Registry) Lookup(key SeriesKey) *Series {
	if r == nil {
		return nil
	}
	if s, ok := (*r.series.Load())[key]; ok {
		return s
	}
	return r.insert(key)
}

// insert is the slow path: clone-and-publish under the mutex, or route to
// the overflow series when the map is full.
func (r *Registry) insert(key SeriesKey) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.series.Load()
	if s, ok := cur[key]; ok { // lost the race to another inserter
		return s
	}
	if len(cur) >= r.limit {
		return &r.overflow
	}
	next := make(map[SeriesKey]*Series, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	s := &Series{key: key}
	next[key] = s
	r.series.Store(&next)
	return s
}

// Len returns the number of materialized series, the overflow series
// excluded (0 on a nil receiver).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(*r.series.Load())
}

// Each calls fn for every materialized series plus — when it has samples —
// the overflow series, in deterministic key order. No-op on a nil receiver.
func (r *Registry) Each(fn func(*Series)) {
	if r == nil {
		return
	}
	cur := *r.series.Load()
	keys := make([]SeriesKey, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		fn(cur[k])
	}
	if r.overflow.lat.Lifetime().Count > 0 || r.overflow.errs.Lifetime() > 0 {
		fn(&r.overflow)
	}
}

// Snapshot exports every series over the n windows ending at tick, in
// deterministic key order. Empty on a nil receiver.
func (r *Registry) Snapshot(tick int64, n int) []SeriesSnapshot {
	if r == nil {
		return nil
	}
	var out []SeriesSnapshot
	r.Each(func(s *Series) { out = append(out, s.Snapshot(tick, n)) })
	return out
}

func (a SeriesKey) less(b SeriesKey) bool {
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.Encoding != b.Encoding {
		return a.Encoding < b.Encoding
	}
	if a.Transport != b.Transport {
		return a.Transport < b.Transport
	}
	return a.Role < b.Role
}
