package obs

// Sliding windows over the fixed-bucket histograms. A lifetime Histogram
// answers "since process start"; production monitoring needs "over the last
// minute" — a p99 that still remembers yesterday's cold start is useless for
// alerting, and the SLO burn-rate engine (slo.go) is defined entirely over
// recent windows. The windowed types here keep both views at once: every
// observation lands in the lifetime aggregate AND in a ring slot addressed
// by a window tick, so /metrics keeps its lifetime totals while
// /metrics?window=N and the SLO engine read only recency.
//
// # Ticks, not clocks
//
// None of these types reads a clock. A window tick is an integer the caller
// derives from its own time source — the Observer computes it from its
// injected now function (WithNow), so the whole window machinery is
// deterministic under an injected clock, including netsim's simulated time,
// and the explicit-duration recording paths (ObserveStage) stay free of
// clock reads exactly as their contract promises: they reuse the last tick
// a clocked path computed.
//
// # Rotation
//
// Slot i of the ring holds tick t where t % NumWindows == i. A recording
// whose tick has moved past a slot's stamp resets the slot before writing
// (the rotation mutex serializes only that rare reset; the hot path is the
// same two wait-free atomic adds as the plain Histogram). A recorder racing
// the rotation with an already-loaded older tick can misplace one sample by
// one window; windows are statistics, not ledgers, and the lifetime
// aggregate is exact.

import (
	"sync"
	"sync/atomic"
	"time"
)

// NumWindows is the ring size of every windowed aggregate: the last
// NumWindows window ticks are retrievable, older ones have been overwritten.
// With the default 10s window duration (DefaultWindow) the ring spans 80s —
// the SLO engine's "slow" burn window.
const NumWindows = 8

// DefaultWindow is the default window duration an Observer rotates its
// windowed aggregates by (see WithWindow).
const DefaultWindow = 10 * time.Second

// windowSlot is one ring slot: the tick it currently holds plus that
// window's histogram. rotmu serializes resets only; recording is lock-free.
type windowSlot struct {
	tick  atomic.Int64
	rotmu sync.Mutex
	hist  Histogram
}

// advance ensures the slot holds tick, resetting it when the ring has moved
// on. Returns false when tick is older than the slot's current window — the
// straggler's sample belongs to a window that no longer exists, and must
// not contaminate the newer one.
func (s *windowSlot) advance(tick int64) bool {
	cur := s.tick.Load()
	if cur == tick {
		return true
	}
	if cur > tick {
		return false
	}
	s.rotmu.Lock()
	defer s.rotmu.Unlock()
	cur = s.tick.Load()
	if cur == tick {
		return true
	}
	if cur > tick {
		return false
	}
	s.hist.Reset()
	s.tick.Store(tick)
	return true
}

// WindowedHistogram is a lifetime Histogram plus a ring of per-window
// histograms rotated by caller-supplied ticks. The zero value is ready to
// use (all windows hold tick 0). All methods are safe for concurrent use.
type WindowedHistogram struct {
	life  Histogram
	slots [NumWindows]windowSlot
}

// Observe records d into the lifetime aggregate and into the window
// addressed by tick. Negative ticks are clamped to 0 (the zero ring).
// No-op on a nil WindowedHistogram.
func (w *WindowedHistogram) Observe(d time.Duration, tick int64) {
	if w == nil {
		return
	}
	w.life.Observe(d)
	if tick < 0 {
		tick = 0
	}
	s := &w.slots[tick%NumWindows]
	if s.advance(tick) {
		s.hist.Observe(d)
	}
}

// Lifetime snapshots the all-time aggregate (zero on a nil receiver).
func (w *WindowedHistogram) Lifetime() HistogramSnapshot {
	if w == nil {
		return HistogramSnapshot{}
	}
	return w.life.Snapshot()
}

// Window merges the n most recent windows ending at tick (the current
// window included): ticks (tick-n, tick]. n is clamped to [1, NumWindows].
// Zero on a nil receiver.
func (w *WindowedHistogram) Window(tick int64, n int) HistogramSnapshot {
	if w == nil {
		return HistogramSnapshot{}
	}
	if n < 1 {
		n = 1
	}
	if n > NumWindows {
		n = NumWindows
	}
	var out HistogramSnapshot
	for t := tick - int64(n) + 1; t <= tick; t++ {
		if t < 0 {
			continue
		}
		s := &w.slots[t%NumWindows]
		if s.tick.Load() == t {
			out.Merge(s.hist.Snapshot())
		}
	}
	return out
}

// counterSlot is one ring slot of a WindowedCounter.
type counterSlot struct {
	tick  atomic.Int64
	rotmu sync.Mutex
	n     atomic.Uint64
}

func (s *counterSlot) advance(tick int64) bool {
	cur := s.tick.Load()
	if cur == tick {
		return true
	}
	if cur > tick {
		return false
	}
	s.rotmu.Lock()
	defer s.rotmu.Unlock()
	cur = s.tick.Load()
	if cur == tick {
		return true
	}
	if cur > tick {
		return false
	}
	s.n.Store(0)
	s.tick.Store(tick)
	return true
}

// WindowedCounter is a lifetime counter plus a ring of per-window counts,
// rotated by the same caller-supplied ticks as WindowedHistogram. The zero
// value is ready to use.
type WindowedCounter struct {
	life  Counter
	slots [NumWindows]counterSlot
}

// Add adds n under tick. No-op on a nil WindowedCounter.
func (w *WindowedCounter) Add(n uint64, tick int64) {
	if w == nil {
		return
	}
	w.life.Add(n)
	if tick < 0 {
		tick = 0
	}
	s := &w.slots[tick%NumWindows]
	if s.advance(tick) {
		s.n.Add(n)
	}
}

// Lifetime returns the all-time total (0 on a nil receiver).
func (w *WindowedCounter) Lifetime() uint64 {
	if w == nil {
		return 0
	}
	return w.life.Load()
}

// Window sums the n most recent windows ending at tick: ticks (tick-n,
// tick]. n is clamped to [1, NumWindows]. Zero on a nil receiver.
func (w *WindowedCounter) Window(tick int64, n int) uint64 {
	if w == nil {
		return 0
	}
	if n < 1 {
		n = 1
	}
	if n > NumWindows {
		n = NumWindows
	}
	var out uint64
	for t := tick - int64(n) + 1; t <= tick; t++ {
		if t < 0 {
			continue
		}
		s := &w.slots[t%NumWindows]
		if s.tick.Load() == t {
			out += s.n.Load()
		}
	}
	return out
}
