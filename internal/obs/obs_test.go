package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// Bucket boundaries: bucket 0 is [0, 1µs), bucket i covers
// [1µs·2^(i-1), 1µs·2^i), the last bucket is open-ended.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{2*time.Microsecond - 1, 1},
		{2 * time.Microsecond, 2},
		{4*time.Microsecond - 1, 2},
		{4 * time.Microsecond, 3},
		{time.Millisecond, 10},      // 1000µs ∈ [512µs, 1024µs)
		{time.Second, 20},           // 1e6µs ∈ [2^19µs, 2^20µs)
		{time.Hour, NumBuckets - 1}, // far past the grid: clamped open-ended
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every non-terminal bucket's upper bound must land in the NEXT bucket
	// (bounds are exclusive), and one tick under it in the bucket itself.
	for i := 1; i < NumBuckets-1; i++ {
		ub := BucketUpperBound(i)
		if got := bucketFor(ub - 1); got != i {
			t.Errorf("bucketFor(upper(%d)-1) = %d, want %d", i, got, i)
		}
		if got := bucketFor(ub); got != i+1 && i+1 < NumBuckets {
			t.Errorf("bucketFor(upper(%d)) = %d, want %d", i, got, i+1)
		}
	}
	if BucketUpperBound(NumBuckets-1) >= 0 {
		t.Error("last bucket must be open-ended")
	}
}

func TestHistogramObserveAndMean(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if got, want := s.Mean(), 20*time.Microsecond; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if s.Buckets[bucketFor(10*time.Microsecond)] != 1 || s.Buckets[bucketFor(30*time.Microsecond)] != 1 {
		t.Errorf("observations in wrong buckets: %v", s.Buckets)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 5; i++ {
		a.Observe(time.Microsecond)
		b.Observe(time.Millisecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 10 {
		t.Fatalf("merged Count = %d, want 10", sa.Count)
	}
	if sa.SumNanos != 5*int64(time.Microsecond)+5*int64(time.Millisecond) {
		t.Errorf("merged SumNanos = %d", sa.SumNanos)
	}
	var total uint64
	for _, c := range sa.Buckets {
		total += c
	}
	if total != sa.Count {
		t.Errorf("merged buckets sum %d != Count %d", total, sa.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(10 * time.Millisecond)
	s := h.Snapshot()
	// p50 must sit in the 10µs bucket's range; p999 in the 10ms one.
	if q := s.Quantile(0.5); q < 10*time.Microsecond || q > 16*time.Microsecond {
		t.Errorf("p50 = %v, want within the 10µs bucket", q)
	}
	if q := s.Quantile(0.999); q < 10*time.Millisecond {
		t.Errorf("p999 = %v, want ≥ 10ms", q)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

// Snapshot internal consistency under concurrent writers: however the read
// races the writes, a snapshot's Count equals the sum of its buckets.
func TestSnapshotConsistentUnderConcurrentWriters(t *testing.T) {
	o := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := time.Duration(w+1) * 3 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					o.ObserveStage(ClientEncode, d)
					o.Inc(CallsStarted)
					o.Inc(CallsCompleted)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		s := o.StageSnapshot(ClientEncode)
		var sum uint64
		for _, c := range s.Buckets {
			sum += c
		}
		if sum != s.Count {
			t.Fatalf("snapshot %d: bucket sum %d != Count %d", i, sum, s.Count)
		}
	}
	close(stop)
	wg.Wait()
	if o.Counter(CallsStarted) != o.Counter(CallsCompleted) {
		t.Errorf("started %d != completed %d after quiesce",
			o.Counter(CallsStarted), o.Counter(CallsCompleted))
	}
}

func TestGaugeHighWater(t *testing.T) {
	o := New()
	o.GaugeAdd(PoolInflight, 3)
	o.GaugeAdd(PoolInflight, 4)
	o.GaugeAdd(PoolInflight, -5)
	o.GaugeAdd(PoolInflight, 1)
	if got := o.Gauge(PoolInflight); got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
	if got := o.GaugeHighWater(PoolInflight); got != 7 {
		t.Errorf("high water = %d, want 7", got)
	}
}

// GaugeObserve records externally tracked instantaneous values: the gauge
// takes the last reading, the high-water mark keeps the maximum across all
// reporters, and lower observations never drag it down.
func TestGaugeObserveHighWater(t *testing.T) {
	o := New()
	o.GaugeObserve(MuxStreamsPerConn, 5)
	o.GaugeObserve(MuxStreamsPerConn, 12)
	o.GaugeObserve(MuxStreamsPerConn, 2)
	if got := o.Gauge(MuxStreamsPerConn); got != 2 {
		t.Errorf("gauge = %d, want 2 (last observation)", got)
	}
	if got := o.GaugeHighWater(MuxStreamsPerConn); got != 12 {
		t.Errorf("high water = %d, want 12", got)
	}
}

// Span ordering: marks on a fake clock attribute each inter-mark interval
// to the right stage, in recording order, including the fault/error path
// (the hop records stages exactly as marked).
func TestSpanOrderingOnFakeClock(t *testing.T) {
	now := time.Unix(0, 0)
	o := New(
		WithNow(func() time.Time { return now }),
		WithRecorder(NewRecorder(RecorderConfig{})),
	)
	h := o.StartHop(RoleClient)
	sp := o.SpanWith(h)
	now = now.Add(5 * time.Microsecond)
	sp.Mark(ClientEncode)
	now = now.Add(7 * time.Microsecond)
	sp.Mark(ClientSend)
	now = now.Add(11 * time.Microsecond)
	sp.Mark(ClientWait)
	// Decode is marked even when it fails — the error path still traces.
	now = now.Add(13 * time.Microsecond)
	sp.Mark(ClientDecode)

	want := []StageSpan{
		{Stage: ClientEncode, Dur: 5 * time.Microsecond},
		{Stage: ClientSend, Dur: 7 * time.Microsecond},
		{Stage: ClientWait, Dur: 11 * time.Microsecond},
		{Stage: ClientDecode, Dur: 13 * time.Microsecond},
	}
	got := h.stages
	if len(got) != len(want) {
		t.Fatalf("traced %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Stage != want[i].Stage || got[i].Dur != want[i].Dur {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := o.StageSnapshot(ClientSend); got.Mean() != 7*time.Microsecond {
		t.Errorf("ClientSend mean = %v, want 7µs", got.Mean())
	}
}

// The nil-sink contract: every recording method on a nil Observer is a
// no-op with zero allocations, and a nil span never reads the clock.
func TestNilObserverIsFreeOfAllocations(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(100, func() {
		o.Inc(CallsStarted)
		o.Add(BytesSent, 17)
		o.GaugeAdd(PoolInflight, 1)
		o.GaugeObserve(MuxStreamsPerConn, 3)
		_ = o.GaugeHighWater(MuxStreamsPerConn)
		o.ObserveStage(ClientEncode, time.Microsecond)
		sp := o.Span()
		sp.Mark(ClientSend)
		_ = o.Counter(CallsStarted)
		_ = o.Gauge(PoolInflight)
		_ = o.StageSnapshot(ClientWait)
		// The trace layer shares the nil-sink contract: with no observer
		// (or no recorder) the whole hop lifecycle is free.
		_ = o.Tracing()
		_ = o.Node()
		h := o.StartHop(RoleClient)
		h.Bind(TraceContext{ID: 1})
		h.SetError(nil)
		_ = h.Context()
		hsp := o.SpanWith(h)
		hsp.Mark(ClientWait)
		o.FinishHop(h, nil)
		o.Event(EvRetry, "x")
		o.Event(EvStreamReset, "x")
		o.Event(EvOverloadShed, "x")
		_ = o.Recorder().Recent(1)
		_ = o.Recorder().Trace(1)
		// The dimensional/windowed/SLO surface shares the contract.
		o.RecordOp("op", RoleClient, time.Microsecond, false, 1)
		o.NextWindow()
		_ = o.Now()
		_ = o.Since(time.Time{})
		_ = o.Dimensional()
		_ = o.StageWindowSnapshot(ClientWait, 1)
		var reg *Registry
		_ = reg.Lookup(SeriesKey{Op: "op"})
		_ = reg.Len()
		_ = o.SLOStatus()
		_ = o.SLOFiring()
		_ = o.Recorder().SlowThreshold()
		o.Recorder().TightenSlowThreshold(time.Millisecond)
		var wh *WindowedHistogram
		wh.Observe(time.Microsecond, 1)
		_ = wh.Lifetime()
		_ = wh.Window(1, 1)
		wh.Reset()
		var wc *WindowedCounter
		wc.Add(1, 1)
		_ = wc.Lifetime()
		_ = wc.Window(1, 1)
		wc.Reset()
		var se *Series
		se.Record(time.Microsecond, false, 1, 1)
		_ = se.Key()
		_ = se.Exemplar(0)
	})
	if allocs != 0 {
		t.Errorf("nil observer allocated %.1f per run, want 0", allocs)
	}
}

// A live observer with no dimensional registry (the default) keeps RecordOp
// free: no allocations and no clock reads, so instrumented call sites cost
// nothing when the feature is off.
func TestRecordOpFreeWhenDimensionsDisabled(t *testing.T) {
	clockReads := 0
	o := New(WithNow(func() time.Time { clockReads++; return time.Time{} }))
	if o.Dimensional() {
		t.Fatal("observer unexpectedly dimensional")
	}
	clockReads = 0
	allocs := testing.AllocsPerRun(100, func() {
		o.RecordOp("op", RoleClient, time.Microsecond, false, 1)
	})
	if allocs != 0 {
		t.Errorf("RecordOp allocated %.1f per run with dimensions disabled, want 0", allocs)
	}
	if clockReads != 0 {
		t.Errorf("RecordOp read the clock %d times with dimensions disabled", clockReads)
	}
}

func TestNilSpanNeverReadsClock(t *testing.T) {
	clockReads := 0
	o := New(WithNow(func() time.Time { clockReads++; return time.Time{} }))
	_ = o // a live observer reads; a nil one must not
	var nilObs *Observer
	sp := nilObs.Span()
	sp.Mark(ClientEncode)
	if clockReads != 0 {
		t.Errorf("nil span read the clock %d times", clockReads)
	}
}

// Snapshot/Merge: rollup across observers adds counters and histograms,
// sums gauge values, and keeps the larger high-water mark.
func TestSnapshotMergeRollup(t *testing.T) {
	a, b := New(), New()
	a.Inc(CallsStarted)
	b.Add(CallsStarted, 2)
	a.GaugeAdd(PayloadsInUse, 5)
	a.GaugeAdd(PayloadsInUse, -3)
	b.GaugeAdd(PayloadsInUse, 4)
	a.ObserveStage(ServerHandler, time.Millisecond)
	b.ObserveStage(ServerHandler, 3*time.Millisecond)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if got := s.Counters[CallsStarted.String()]; got != 3 {
		t.Errorf("merged calls_started = %d, want 3", got)
	}
	g := s.Gauges[PayloadsInUse.String()]
	if g.Value != 6 || g.HighWater != 5 {
		t.Errorf("merged gauge = %+v, want value 6 high-water 5", g)
	}
	h := s.Stages[ServerHandler.String()]
	if h.Count != 2 || h.Mean() != 2*time.Millisecond {
		t.Errorf("merged handler stage: count %d mean %v", h.Count, h.Mean())
	}
}

func TestSnapshotOmitsZeroEntriesAndSerializes(t *testing.T) {
	o := New()
	o.Inc(ServerRequests)
	s := o.Snapshot()
	if len(s.Counters) != 1 {
		t.Errorf("snapshot carries zero-valued counters: %v", s.Counters)
	}
	if len(s.Stages) != 0 {
		t.Errorf("snapshot carries empty stages: %v", s.Stages)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[ServerRequests.String()] != 1 {
		t.Errorf("JSON round trip lost the counter: %s", data)
	}
}

func TestNamesAreStable(t *testing.T) {
	// The snapshot keys are an external interface (admin endpoint, CI
	// artifacts); spot-check the load-bearing ones.
	checks := map[string]string{
		CallsStarted.String():  "client.calls_started",
		PayloadsInUse.String(): "payload.in_use",
		ServerHandler.String(): "server.handler",
		NetShape.String():      "netsim.shape",
	}
	for got, want := range checks {
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
	if CounterID(200).String() != "unknown" || Stage(200).String() != "unknown" {
		t.Error("out-of-range IDs must stringify as unknown")
	}
}
