package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceIDStringParseRoundTrip(t *testing.T) {
	id := NewTraceID()
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("String() = %q, want 16 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip %v != %v", back, id)
	}
	for _, bad := range []string{"", "abc", "zzzzzzzzzzzzzzzz", strings.Repeat("a", 17)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestTraceContextNext(t *testing.T) {
	tc := TraceContext{ID: 7, Seq: 2}
	if n := tc.Next(); n.ID != 7 || n.Seq != 3 {
		t.Fatalf("Next() = %+v", n)
	}
}

// fakeClockObs builds an observer with a recorder and a deterministic clock
// advancing `step` per read.
func fakeClockObs(rec *Recorder, node string, step time.Duration) *Observer {
	now := time.Unix(0, 0)
	return New(
		WithNode(node),
		WithRecorder(rec),
		WithNow(func() time.Time { now = now.Add(step); return now }),
	)
}

func TestRecorderJoinsHopsByTraceID(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	cli := fakeClockObs(rec, "cli", time.Millisecond)
	srv := fakeClockObs(rec, "srv", time.Microsecond)

	id := NewTraceID()
	ch := cli.StartHop(RoleClient)
	ch.Bind(TraceContext{ID: id, Seq: 0})
	csp := cli.SpanWith(ch)
	csp.Mark(ClientEncode)
	csp.Mark(ClientSend)
	csp.Mark(ClientWait)
	csp.Mark(ClientDecode)
	cli.FinishHop(ch, nil)

	sh := srv.StartHop(RoleServer)
	ssp := srv.SpanWith(sh)
	ssp.Mark(ServerReceive)
	ssp.Mark(ServerDecode)
	sh.Bind(TraceContext{ID: id, Seq: 1})
	ssp.Mark(ServerHandler)
	ssp.Mark(ServerEncode)
	ssp.Mark(ServerSend)
	srv.FinishHop(sh, nil)

	tree := rec.Trace(id)
	if tree == nil {
		t.Fatal("Trace() = nil")
	}
	if tree.Hops != 2 {
		t.Fatalf("Hops = %d, want 2", tree.Hops)
	}
	if tree.ID != id.String() {
		t.Fatalf("ID = %q, want %q", tree.ID, id.String())
	}
	root := tree.Root
	if root.Role != RoleClient || root.Seq != 0 || root.Node != "cli" {
		t.Fatalf("root = %+v", root)
	}
	if root.Child == nil || root.Child.Role != RoleServer || root.Child.Seq != 1 || root.Child.Node != "srv" {
		t.Fatalf("child = %+v", root.Child)
	}
	// Wire attribution: client send+wait = 2ms; server busy (decode +
	// handler + encode + send, receive excluded) = 4µs → wire ≈ 1.996ms.
	want := 2*time.Millisecond - 4*time.Microsecond
	if root.Wire != want {
		t.Fatalf("Wire = %v, want %v", root.Wire, want)
	}
	if root.Child.Wire != 0 {
		t.Fatalf("server hop Wire = %v, want 0", root.Child.Wire)
	}
}

func TestRecorderSelfRootsUnboundHops(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	o := fakeClockObs(rec, "srv", time.Microsecond)
	h := o.StartHop(RoleServer)
	o.FinishHop(h, nil)
	trees := rec.Recent(0)
	if len(trees) != 1 {
		t.Fatalf("Recent = %d trees, want 1", len(trees))
	}
	if trees[0].Root.Seq != 0 || trees[0].ID == TraceID(0).String() {
		t.Fatalf("self-rooted tree = %+v", trees[0])
	}
}

func TestRecorderRecentRingEvicts(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Recent: 4, SlowThreshold: -1})
	o := fakeClockObs(rec, "n", time.Microsecond)
	var first TraceID
	for i := 0; i < 10; i++ {
		h := o.StartHop(RoleClient)
		tc := TraceContext{ID: NewTraceID(), Seq: 0}
		if i == 0 {
			first = tc.ID
		}
		h.Bind(tc)
		o.FinishHop(h, nil)
	}
	if got := len(rec.Recent(0)); got != 4 {
		t.Fatalf("Recent ring holds %d, want 4", got)
	}
	if rec.Trace(first) != nil {
		t.Fatal("evicted trace still resolvable")
	}
	// Newest first.
	trees := rec.Recent(2)
	if len(trees) != 2 {
		t.Fatalf("Recent(2) = %d", len(trees))
	}
}

func TestRecorderSlowRing(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SlowThreshold: 10 * time.Millisecond})
	fast := fakeClockObs(rec, "n", time.Microsecond)    // total 1µs
	slow := fakeClockObs(rec, "n", 20*time.Millisecond) // total 20ms
	h := fast.StartHop(RoleClient)
	h.Bind(TraceContext{ID: NewTraceID()})
	fast.FinishHop(h, nil)
	if n := len(rec.Slow(0)); n != 0 {
		t.Fatalf("fast hop landed in slow ring (%d)", n)
	}
	h = slow.StartHop(RoleClient)
	h.Bind(TraceContext{ID: NewTraceID()})
	slow.FinishHop(h, nil)
	trees := rec.Slow(0)
	if len(trees) != 1 {
		t.Fatalf("Slow = %d trees, want 1", len(trees))
	}
	if trees[0].Total < 10*time.Millisecond {
		t.Fatalf("slow trace total = %v", trees[0].Total)
	}
}

func TestRecorderEventJournal(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Events: 3})
	o := New(WithNode("n"), WithRecorder(rec))
	o.Event(EvBreakerOpened, "a")
	o.Event(EvBreakerProbe, "b")
	o.Event(EvBreakerClosed, "c")
	o.Event(EvConnRetired, "d")
	evs := rec.Events(0)
	if len(evs) != 3 {
		t.Fatalf("Events = %d, want 3 (ring cap)", len(evs))
	}
	// Newest first; the oldest ("a") was evicted.
	if evs[0].Kind != EvConnRetired || evs[0].Detail != "d" || evs[0].Node != "n" {
		t.Fatalf("evs[0] = %+v", evs[0])
	}
	if evs[2].Kind != EvBreakerProbe {
		t.Fatalf("evs[2] = %+v", evs[2])
	}
	if evs[0].Name != "conn.retired" {
		t.Fatalf("Name = %q", evs[0].Name)
	}
}

func TestHopRecordsErrorAndStageDur(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	o := fakeClockObs(rec, "n", time.Millisecond)
	h := o.StartHop(RoleClient)
	h.Bind(TraceContext{ID: NewTraceID()})
	sp := o.SpanWith(h)
	sp.Mark(ClientSend)
	sp.Mark(ClientWait)
	o.FinishHop(h, errTest)
	if d := stageSum(h.stages, ClientSend); d != time.Millisecond {
		t.Fatalf("ClientSend = %v", d)
	}
	tree := rec.Recent(1)[0]
	if tree.Root.Err != "test error" {
		t.Fatalf("Err = %q", tree.Root.Err)
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test error" }

func TestFprintTrace(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	o := fakeClockObs(rec, "cli", time.Millisecond)
	id := NewTraceID()
	h := o.StartHop(RoleClient)
	h.Bind(TraceContext{ID: id, Seq: 0})
	sp := o.SpanWith(h)
	sp.Mark(ClientSend)
	o.FinishHop(h, nil)

	var sb strings.Builder
	FprintTrace(&sb, rec.Trace(id))
	out := sb.String()
	for _, want := range []string{id.String(), "client @cli seq=0", "client.send=1ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	FprintTrace(&sb, nil)
	if !strings.Contains(sb.String(), "empty") {
		t.Errorf("nil tree render = %q", sb.String())
	}
}

// TestDisabledTracingAddsNoAllocations is the acceptance check for the
// nil-sink contract on a LIVE observer with NO recorder: the hot-path trace
// hooks (Tracing, StartHop, SpanWith(nil), FinishHop, Event) must not
// allocate — the plain metrics path already existed and stays as it was.
func TestDisabledTracingAddsNoAllocations(t *testing.T) {
	o := New(WithNode("n")) // live, but no recorder → tracing disabled
	allocs := testing.AllocsPerRun(200, func() {
		if o.Tracing() {
			t.Fatal("tracing reported enabled without a recorder")
		}
		h := o.StartHop(RoleClient)
		sp := o.SpanWith(h)
		sp.Mark(ClientSend)
		o.FinishHop(h, nil)
		o.Event(EvRetry, "ignored")
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocated %.1f per run, want 0", allocs)
	}
}
