package harness

import (
	"context"
	"sync"
	"testing"
	"time"

	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
	"bxsoap/internal/netsim"
	"bxsoap/internal/svcpool"
)

// TestPooledUnifiedScheme: every pooled composition PooledThroughput can
// build verifies models end to end with concurrent callers sharing fewer
// connections, and an unknown composition is refused.
func TestPooledUnifiedScheme(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	m := dataset.Generate(200)
	env := core.NewEnvelope(m.Element())
	for _, tc := range []struct{ enc, tr string }{
		{"BXSA", "tcp"},
		{"XML", "tcp"},
		{"BXSA", "http"},
		{"XML", "http"},
	} {
		pool, closers, err := buildPooled(nw, tc.enc, tc.tr, svcpool.Config{MaxConns: 2, MaxInflight: 4})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.enc, tc.tr, err)
		}
		var wg sync.WaitGroup
		verified := make([]int, 4)
		errs := make([]error, 4)
		for i := range verified {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := pool.Call(context.Background(), env)
				if err != nil {
					errs[i] = err
					return
				}
				verified[i], errs[i] = parseReply(resp)
			}(i)
		}
		wg.Wait()
		for i := range verified {
			if errs[i] != nil {
				t.Errorf("%s/%s call %d: %v", tc.enc, tc.tr, i, errs[i])
			} else if verified[i] != m.Verify() {
				t.Errorf("%s/%s call %d: verified %d, want %d", tc.enc, tc.tr, i, verified[i], m.Verify())
			}
		}
		if st := pool.Stats(); st.Dials > 2 {
			t.Errorf("%s/%s: %d dials, want at most MaxConns (2)", tc.enc, tc.tr, st.Dials)
		}
		for _, c := range closers {
			if err := c(); err != nil {
				t.Errorf("%s/%s teardown: %v", tc.enc, tc.tr, err)
			}
		}
	}
	if _, _, err := buildPooled(nw, "EXI", "tcp", svcpool.Config{}); err == nil {
		t.Error("unknown composition accepted")
	}
}

// TestPooledThroughputScalesWithConcurrency: on a WAN-class RTT-bound
// profile, 8 concurrent callers over 8 pooled connections must push
// materially more calls/s than a single caller — the whole point of the
// pool. (A WAN-scale RTT is used because netsim realizes sub-500µs waits
// by spinning, which cannot overlap on a single-core machine; millisecond
// RTT waits are true sleeps and overlap anywhere.)
func TestPooledThroughputScalesWithConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("RTT-shaped throughput comparison")
	}
	prof := netsim.Profile{Name: "rtt", RTT: 4 * time.Millisecond}
	one, err := PooledThroughput(netsim.New(prof), "BXSA", "tcp", 1, 1, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := PooledThroughput(netsim.New(prof), "BXSA", "tcp", 8, 8, 320, 50)
	if err != nil {
		t.Fatal(err)
	}
	if eight.CallsPerSec < 3*one.CallsPerSec {
		t.Errorf("concurrency 8 = %.0f calls/s, concurrency 1 = %.0f calls/s; want ≥ 3× scaling",
			eight.CallsPerSec, one.CallsPerSec)
	}
	if eight.Stats.Reuses == 0 {
		t.Error("pool reported no connection reuse")
	}
}
