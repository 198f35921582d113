package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"bxsoap/internal/core"
)

// config is what one pass over one workload needs to know.
type config struct {
	seed   int64
	window time.Duration
	// setups is how many times the workload is set up and warmed; setup_s
	// is the median, and the last set-up is the one measured.
	setups int
	// warmDiv divides every warm-up call count (tests shorten warm-up).
	warmDiv int
	// ladderIters, when positive, overrides the workload's ladder iteration
	// count (tests shorten the ladder).
	ladderIters int
}

// passResult is what a main or traced pass reports for one workload.
type passResult struct {
	attempted, failed int64
	firstErr          error
	metrics           map[string]float64
	notes             []string
}

// callStats is what a set of closed-loop callers observed.
type callStats struct {
	lat               hist
	attempted, failed int64
	pairs             int64 // pairs delivered and verified
	firstErr          error
}

func (s *callStats) ok() int64 { return s.attempted - s.failed }

func (s *callStats) merge(o *callStats) {
	s.lat.merge(&o.lat)
	s.attempted += o.attempted
	s.failed += o.failed
	s.pairs += o.pairs
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

type callFunc func(context.Context, *core.Envelope) (*core.Envelope, error)

// runCallers runs a closed loop: each of callers goroutines sends its next
// request when the previous reply has been verified, until the deadline has
// passed or it has made maxCalls calls (0 = no limit). A call is timed from
// the end of the previous one, so one clock read per call covers the loop.
func runCallers(call callFunc, msgs []*message, callers int, deadline time.Time, maxCalls int) *callStats {
	stats := make([]callStats, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			ctx := context.Background()
			last := time.Now()
			for i := 0; ; i++ {
				m := msgs[(c+i)%len(msgs)]
				resp, err := call(ctx, m.env)
				if err == nil {
					err = m.verify(resp)
				}
				now := time.Now()
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
				} else {
					st.lat.record(int64(now.Sub(last)))
					st.pairs += int64(m.model.Size())
				}
				last = now
				if (maxCalls > 0 && i+1 >= maxCalls) || (!deadline.IsZero() && now.After(deadline)) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total := &stats[0]
	for c := 1; c < callers; c++ {
		total.merge(&stats[c])
	}
	return total
}

// warm fills caches and lets lazy set-up finish: two passes over the
// message set from one caller (so every shape is compiled in order), then
// the workload's fixed count of calls from all its callers.
func warm(call callFunc, msgs []*message, callers, calls int) error {
	st := runCallers(call, msgs, 1, time.Time{}, 2*len(msgs))
	if st.failed == 0 && calls > 0 {
		st = runCallers(call, msgs, callers, time.Time{}, (calls+callers-1)/callers)
	}
	if st.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed: %w", st.failed, st.attempted, st.firstErr)
	}
	return nil
}

// setupWarm sets the workload up and warms it, returning how long that took.
func setupWarm(w *workload, cfg config, msgs []*message, h core.Handler, o observers) (*rig, time.Duration, error) {
	start := time.Now()
	r, err := w.setup(h, o)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := warm(r.call, msgs, w.callers, w.warmCalls/cfg.warmDiv); err != nil {
		r.close()
		return nil, 0, err
	}
	runtime.GC()
	return r, time.Since(start), nil
}

// teardown closes the rig and waits for every pooled payload to come home.
func teardown(r *rig) error {
	err := r.close()
	deadline := time.Now().Add(2 * time.Second)
	for core.PayloadsInUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := core.PayloadsInUse(); n != 0 && err == nil {
		err = fmt.Errorf("core.PayloadsInUse() = %d after teardown, want 0", n)
	}
	return err
}

// window is one measured interval and the process-wide deltas across it.
type window struct {
	*callStats
	callers    int
	elapsed    time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	client     wireCount
	server     wireCount
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only fails on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureWindow runs the callers for d and reports what the whole process —
// client, server and garbage collector — spent meanwhile.
func measureWindow(r *rig, call callFunc, msgs []*message, callers int, d time.Duration) window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, s0 := r.client.load(), r.server.load()
	cpu0 := cpuTime()
	start := time.Now()
	st := runCallers(call, msgs, callers, start.Add(d), 0)
	elapsed := time.Since(start)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	return window{
		callStats:  st,
		callers:    callers,
		elapsed:    elapsed,
		cpu:        cpu1 - cpu0,
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:   ms1.NumGC - ms0.NumGC,
		client:     r.client.load().sub(c0),
		server:     r.server.load().sub(s0),
	}
}

func (w window) p(q float64) float64       { return w.lat.quantile(q) / 1e3 } // µs
func (w window) perCall(x float64) float64 { return x / float64(w.ok()) }
func (w window) meanCall() float64 {
	return w.perCall(float64(w.elapsed.Microseconds()) * float64(w.callers))
}
func (w window) allocsPerCall() float64 { return w.perCall(float64(w.mallocs)) }
func (w window) wirePerCall() float64 {
	return w.perCall(float64(w.client.bytesRead + w.client.bytesWritten))
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mainPass measures the end-to-end metrics of one workload with every
// observer nil.
func mainPass(w *workload, cfg config) (*passResult, error) {
	msgs := genMessages(cfg.seed, w.name, w.shapes)
	var r *rig
	var setups []time.Duration
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			if err := teardown(r); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if r, took, err = setupWarm(w, cfg, msgs, handle, observers{}); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	win := measureWindow(r, r.call, msgs, w.callers, cfg.window)
	conns := r.client.load().conns
	if err := teardown(r); err != nil {
		return nil, err
	}
	if win.ok() == 0 {
		return nil, fmt.Errorf("no call succeeded (%d attempted): %w", win.attempted, win.firstErr)
	}
	if conns != int64(w.conns) {
		return nil, fmt.Errorf("opened %d connections, the workload is defined with %d", conns, w.conns)
	}
	secs := win.elapsed.Seconds()
	res := &passResult{
		attempted: win.attempted,
		failed:    win.failed,
		firstErr:  win.firstErr,
		metrics: map[string]float64{
			"setup_s":             median(setups).Seconds(),
			"calls_per_s":         float64(win.ok()) / secs,
			"payload_mb_per_s":    float64(win.pairs*pairBytes) / 1e6 / secs,
			"call_p50_us":         win.p(0.50),
			"call_p90_us":         win.p(0.90),
			"cpu_us_per_call":     win.perCall(float64(win.cpu.Microseconds())),
			"allocs_per_call":     win.allocsPerCall(),
			"alloc_kb_per_call":   win.perCall(float64(win.allocBytes) / 1e3),
			"gc_cycles_per_kcall": win.perCall(float64(win.gcCycles) * 1e3),
			"wire_bytes_per_call": win.wirePerCall(),
		},
	}
	res.notes = append(res.notes,
		fmt.Sprintf("fail_ratio %g (%d of %d attempted)", float64(win.failed)/float64(win.attempted), win.failed, win.attempted),
		fmt.Sprintf("%d latency samples over a %.2f s window, %d caller(s), %d connection(s)", win.lat.n, secs, w.callers, conns))
	return res, nil
}
