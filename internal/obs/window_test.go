package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// Windowed histograms: samples land in the window their tick addresses,
// merges cover exactly the requested ticks, and lifetime totals survive
// rotation.
func TestWindowedHistogramRotationAndMerge(t *testing.T) {
	var w WindowedHistogram
	w.Observe(time.Millisecond, 10)
	w.Observe(time.Millisecond, 10)
	w.Observe(2*time.Millisecond, 11)
	w.Observe(4*time.Millisecond, 12)

	if got := w.Window(10, 1).Count; got != 2 {
		t.Errorf("window(10,1) count = %d, want 2", got)
	}
	if got := w.Window(12, 1).Count; got != 1 {
		t.Errorf("window(12,1) count = %d, want 1", got)
	}
	if got := w.Window(12, 3).Count; got != 4 {
		t.Errorf("window(12,3) count = %d, want 4 (ticks 10..12)", got)
	}
	if got := w.Window(12, 2).Count; got != 2 {
		t.Errorf("window(12,2) count = %d, want 2 (ticks 11..12)", got)
	}
	if got := w.Lifetime().Count; got != 4 {
		t.Errorf("lifetime count = %d, want 4", got)
	}

	// Rotation reuses ring slots: tick 18 lands in slot 18%8 = 2, evicting
	// tick 10's histogram but not its lifetime contribution.
	w.Observe(8*time.Millisecond, 18)
	if got := w.Window(18, 1).Count; got != 1 {
		t.Errorf("window(18,1) count = %d, want 1", got)
	}
	if got := w.Window(18, NumWindows).Count; got != 3 {
		t.Errorf("window(18,8) count = %d, want 3 (ticks 11, 12, 18)", got)
	}
	if got := w.Lifetime().Count; got != 5 {
		t.Errorf("lifetime count = %d, want 5", got)
	}
}

// A straggler carrying an old tick whose ring slot has already rotated to
// a newer window must be dropped from the window (never contaminating the
// newer one) while still counting toward lifetime.
func TestWindowedHistogramStaleTickDropped(t *testing.T) {
	var w WindowedHistogram
	w.Observe(time.Millisecond, 10) // slot 2
	w.Observe(time.Millisecond, 2)  // same slot, stale tick: dropped
	if got := w.Window(10, 1).Count; got != 1 {
		t.Errorf("window(10,1) count = %d, want 1 (stale tick leaked in)", got)
	}
	if got := w.Window(2, 1).Count; got != 0 {
		t.Errorf("window(2,1) count = %d, want 0 (slot belongs to tick 10)", got)
	}
	if got := w.Lifetime().Count; got != 2 {
		t.Errorf("lifetime count = %d, want 2", got)
	}
}

func TestWindowedCounterRotationAndMerge(t *testing.T) {
	var w WindowedCounter
	w.Add(3, 20)
	w.Add(4, 21)
	w.Add(5, 13) // stale: slot 13%8 == 21%8
	if got := w.Window(21, 1); got != 4 {
		t.Errorf("window(21,1) = %d, want 4", got)
	}
	if got := w.Window(21, 2); got != 7 {
		t.Errorf("window(21,2) = %d, want 7", got)
	}
	if got := w.Lifetime(); got != 12 {
		t.Errorf("lifetime = %d, want 12", got)
	}
}

// Observer windows rotate deterministically under an injected clock: the
// tick is derived from the fake time, so advancing the clock by the window
// duration moves subsequent stage samples into a fresh window.
func TestObserverWindowRotationOnInjectedClock(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	o := New(WithNow(func() time.Time { return now }), WithWindow(time.Second))

	o.Now() // refresh the cached tick from the fake clock
	o.ObserveStage(ClientWait, time.Millisecond)
	o.ObserveStage(ClientWait, time.Millisecond)

	now = now.Add(time.Second)
	o.Now()
	o.ObserveStage(ClientWait, 4*time.Millisecond)

	if got := o.SnapshotWindow(1).Stages[ClientWait.String()].Count; got != 1 {
		t.Errorf("current window count = %d, want 1", got)
	}
	if got := o.SnapshotWindow(2).Stages[ClientWait.String()].Count; got != 3 {
		t.Errorf("two-window merge count = %d, want 3", got)
	}
	if got := o.StageSnapshot(ClientWait).Count; got != 3 {
		t.Errorf("lifetime count = %d, want 3", got)
	}

	// The lifetime Snapshot is not restricted.
	if got := o.Snapshot().Stages[ClientWait.String()].Count; got != 3 {
		t.Errorf("Snapshot() count = %d, want 3", got)
	}
}

// The dimensional registry refuses to mint series past its limit: excess
// keys share the overflow series and the SeriesOverflow counter counts the
// redirected samples — the cardinality-attack backstop.
func TestRegistryCardinalityOverflow(t *testing.T) {
	o := New(WithDims("bxsa", "tcp"))
	o.reg.limit = 2
	o.RecordOp("alpha", RoleServer, time.Millisecond, false, 0)
	o.RecordOp("beta", RoleServer, time.Millisecond, false, 0)
	for i := 0; i < 3; i++ {
		o.RecordOp("hostile-"+strings.Repeat("x", i+1), RoleServer, time.Millisecond, true, 0)
	}

	reg := o.reg
	if got := reg.Len(); got != 2 {
		t.Errorf("registry len = %d, want 2", got)
	}
	if got := o.Counter(SeriesOverflow); got != 3 {
		t.Errorf("SeriesOverflow counter = %d, want 3", got)
	}
	if got := reg.overflow.Latency().Lifetime().Count; got != 3 {
		t.Errorf("overflow series count = %d, want 3", got)
	}

	// The snapshot exports the two real series plus the overflow series,
	// in deterministic key order.
	s := o.Snapshot()
	var ops []string
	for _, ss := range s.Series {
		ops = append(ops, ss.Key.Op)
	}
	want := []string{"alpha", "beta", OverflowOp}
	if len(ops) != len(want) {
		t.Fatalf("snapshot series = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("snapshot series = %v, want %v", ops, want)
		}
	}
}

// Exemplars under concurrent recording: the tail bucket ends up holding
// one of the trace IDs actually recorded into it, with no torn reads under
// -race.
func TestExemplarCaptureConcurrent(t *testing.T) {
	o := New(WithDims("bxsa", "tcp"))
	const goroutines = 8
	const perG = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tid := TraceID(uint64(g)<<32 | uint64(i) | 1)
				o.RecordOp("op", RoleClient, 50*time.Millisecond, false, tid)
			}
		}(g)
	}
	wg.Wait()

	s := o.reg.Lookup(SeriesKey{Op: "op", Encoding: "bxsa", Transport: "tcp", Role: RoleClient})
	if s == nil {
		t.Fatal("series not found")
	}
	got := s.Exemplar(bucketFor(50 * time.Millisecond))
	if got == 0 {
		t.Fatal("no exemplar captured")
	}
	if g := uint64(got) >> 32; g >= goroutines {
		t.Errorf("exemplar %x not among recorded IDs", uint64(got))
	}
	if i := uint64(got) & 0xffffffff; (i &^ 1) >= perG {
		t.Errorf("exemplar %x not among recorded IDs", uint64(got))
	}
}

// The SLO engine's full lifecycle on an injected clock: quiet while
// healthy, fires after one complete overloaded window (both evaluation
// windows agreeing), carries the offending trace ID on the fired event,
// and resolves after one clean window.
func TestSLOFireAndResolveDeterministic(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	rec := NewRecorder(RecorderConfig{})
	o := New(
		WithNow(func() time.Time { return now }),
		WithWindow(time.Second),
		WithRecorder(rec),
		WithSLOs(SLO{Op: "op", P99: 10 * time.Millisecond}),
	)
	tick := func() { now = now.Add(time.Second); o.Now() }
	record := func(d time.Duration, tid TraceID) {
		o.RecordOp("op", RoleServer, d, false, tid)
	}

	o.Now()
	// Three healthy windows.
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			record(time.Millisecond, TraceID(100+uint64(i)))
		}
		tick()
	}
	record(time.Millisecond, 1) // evaluates the last healthy window
	if o.SLOFiring() {
		t.Fatal("firing after healthy traffic")
	}

	// One fully overloaded window.
	for i := 0; i < 10; i++ {
		record(100*time.Millisecond, TraceID(0xbad0+uint64(i)))
	}
	tick()
	record(time.Millisecond, 2) // first sample of the next window evaluates it
	if !o.SLOFiring() {
		t.Fatal("not firing after an overloaded window")
	}

	// One clean window resolves.
	for i := 0; i < 9; i++ {
		record(time.Millisecond, 3)
	}
	tick()
	record(time.Millisecond, 4)
	if o.SLOFiring() {
		t.Fatal("still firing after a clean window")
	}

	events := rec.Events(0)
	var fired, resolved *Event
	for i := range events {
		switch events[i].Kind {
		case EvSLOFired:
			fired = &events[i]
		case EvSLOResolved:
			resolved = &events[i]
		}
	}
	if fired == nil || resolved == nil {
		t.Fatalf("journal missing lifecycle events: fired=%v resolved=%v", fired, resolved)
	}
	if fired.Trace == "" {
		t.Fatal("fired event carries no exemplar trace ID")
	}
	tid, err := ParseTraceID(fired.Trace)
	if err != nil {
		t.Fatalf("fired exemplar %q: %v", fired.Trace, err)
	}
	if tid < 0xbad0 || tid >= 0xbad0+10 {
		t.Errorf("exemplar %x is not one of the overloaded requests", uint64(tid))
	}
	if o.Counter(SLOFired) != 1 || o.Counter(SLOResolved) != 1 {
		t.Errorf("counters fired=%d resolved=%d, want 1 and 1",
			o.Counter(SLOFired), o.Counter(SLOResolved))
	}

	// Status reflects the resolved steady state.
	st := o.SLOStatus()
	if len(st) != 1 || st[0].Op != "op" || st[0].Firing {
		t.Errorf("SLOStatus = %+v, want one resolved entry for op", st)
	}
	if st[0].BudgetUsed == 0 {
		t.Error("BudgetUsed = 0, want > 0 after an overload")
	}
}

// An error-rate-only SLO (no latency target) burns on failures alone:
// slow-but-successful traffic must not trip it.
func TestSLOErrorRateOnly(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	o := New(
		WithNow(func() time.Time { return now }),
		WithWindow(time.Second),
		WithSLOs(SLO{Op: "op", MaxErrRate: 0.05}),
	)
	o.Now()
	// Slow but successful: no latency objective, so nothing burns.
	for i := 0; i < 10; i++ {
		o.RecordOp("op", RoleServer, time.Minute, false, 0)
	}
	now = now.Add(time.Second)
	o.Now()
	o.RecordOp("op", RoleServer, time.Minute, false, 0)
	if o.SLOFiring() {
		t.Fatal("error-only SLO fired on slow successes")
	}

	// All-failing traffic burns at 1/0.05 = 20x and fires.
	for i := 0; i < 9; i++ {
		o.RecordOp("op", RoleServer, time.Millisecond, true, 0)
	}
	now = now.Add(time.Second)
	o.Now()
	o.RecordOp("op", RoleServer, time.Millisecond, false, 0)
	if !o.SLOFiring() {
		t.Fatal("error-only SLO did not fire on failing traffic")
	}
}

// Declaring an SLO tightens the shared recorder's slow-trace threshold to
// the objective's p99, so breaching requests are guaranteed to land in the
// slow ring.
func TestSLOTightensRecorderSlowThreshold(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SlowThreshold: 50 * time.Millisecond})
	New(WithRecorder(rec), WithSLOs(SLO{Op: "op", P99: 10 * time.Millisecond}))
	if got := rec.SlowThreshold(); got != 10*time.Millisecond {
		t.Errorf("slow threshold = %v, want 10ms (tightened to SLO p99)", got)
	}
	// Tighten never loosens.
	rec.TightenSlowThreshold(30 * time.Millisecond)
	if got := rec.SlowThreshold(); got != 10*time.Millisecond {
		t.Errorf("slow threshold = %v after looser tighten, want 10ms", got)
	}
	// A disabled ring stays disabled through tightening.
	rec = NewRecorder(RecorderConfig{SlowThreshold: -1})
	rec.TightenSlowThreshold(time.Millisecond)
	if got := rec.SlowThreshold(); got >= 0 {
		t.Errorf("slow threshold = %v, want negative (disabled)", got)
	}
}
