// Command soapclient invokes the verification service started by
// cmd/soapserver and reports the result and response time. Calls ride the
// svcpool client runtime: -conns bounds the persistent connections,
// -inflight the concurrent calls (backpressure applies beyond it).
//
//	soapclient -encoding bxsa -transport tcp -addr 127.0.0.1:8701 -n 1000 -calls 10
//	soapclient -conns 8 -inflight 16 -calls 200        # concurrent throughput
//	soapclient -mux -conns 4 -inflight 256 -calls 2000 # multiplexed: 256 streams on 4 sockets
//	soapclient -stream -n 2000000 -calls 1             # chunked envelope pipeline
//
// With -mux the calls ride the stream-multiplexed framed transport
// (internal/muxbind, server started with `soapserver -mux`): -conns caps the
// shared connections while -inflight concurrent calls interleave as streams
// on them, so inflight can far exceed conns.
//
// With -stream each call flows as bounded chunks (window set by
// -chunk-bytes) instead of buffering whole messages, so memory stays flat
// however large the model is; a buffered server still interoperates.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bxsoap/cmd/internal/cliconf"
	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/muxbind"
	"bxsoap/internal/obs"
	"bxsoap/internal/svcpool"
	"bxsoap/internal/tcpbind"
)

func main() {
	c := new(cliconf.Common)
	cliconf.RegisterEndpoint(flag.CommandLine, c)
	cliconf.RegisterEngine(flag.CommandLine, c)
	cliconf.RegisterPool(flag.CommandLine, c)
	cliconf.RegisterTrace(flag.CommandLine, c)
	cliconf.RegisterObs(flag.CommandLine, c)
	addr := flag.String("addr", "127.0.0.1:8701", "server address")
	n := flag.Int("n", 1000, "model size (number of (double,int) pairs)")
	calls := flag.Int("calls", 5, "number of invocations to time")
	timeout := flag.Duration("timeout", 30*time.Second, "deadline per attempt; the pool retries a failed attempt under a fresh deadline")
	flag.Parse()
	if err := c.Validate(); err != nil {
		log.Fatalf("soapclient: %v", err)
	}

	// With -trace or any -slo the pool runs under an observer carrying a
	// flight recorder: every call starts a client hop, stamps the trace
	// header onto the wire (so the server and any intermediary join the
	// same trace), and lands in the recorder; declared SLOs add
	// per-operation series and burn-rate alerting on the client's view of
	// latency. Without either flag the observer is nil and the whole
	// observability path is dormant.
	var o *obs.Observer
	if c.Trace || len(c.SLOs) > 0 {
		o = c.NewObserver("soapclient")
	}
	pool, err := buildPool(c, *addr, svcpool.Config{
		MaxConns:    c.Conns,
		MaxInflight: c.Inflight,
		CallTimeout: *timeout,
	}, o)
	if err != nil {
		log.Fatalf("soapclient: %v", err)
	}
	defer pool.Close()

	m := dataset.Generate(*n)
	req := core.NewEnvelope(m.Element())

	// Warm-up call: connection establishment off the clock, and a first
	// response to show.
	resp, err := pool.Call(context.Background(), req)
	if err != nil {
		log.Fatalf("soapclient: %v", err)
	}
	fmt.Printf("response body: %s\n", summarize(resp))

	var (
		wg      sync.WaitGroup
		bestNs  atomic.Int64
		failed  atomic.Int64
		work    = make(chan struct{}, *calls)
		workers = c.Inflight
	)
	for i := 0; i < *calls; i++ {
		work <- struct{}{}
	}
	close(work)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				t0 := time.Now()
				if _, err := pool.Call(context.Background(), req); err != nil {
					log.Printf("soapclient: call: %v", err)
					failed.Add(1)
					continue
				}
				ns := time.Since(t0).Nanoseconds()
				for {
					best := bestNs.Load()
					if best != 0 && ns >= best {
						break
					}
					if bestNs.CompareAndSwap(best, ns) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	ok := *calls - int(failed.Load())
	best := time.Duration(bestNs.Load())
	st := pool.Stats()
	fmt.Printf("%s/%s  model size %d  %d/%d calls ok over %d conns / %d inflight\n",
		c.Encoding, c.Label(), *n, ok, *calls, c.Conns, c.Inflight)
	fmt.Printf("best latency %v  aggregate %.0f calls/s (%.0f pairs/s)\n",
		best, float64(ok)/elapsed.Seconds(), float64(ok)*float64(*n)/elapsed.Seconds())
	fmt.Printf("pool: dials=%d reuses=%d retires=%d retries=%d failures=%d\n",
		st.Dials, st.Reuses, st.Retires, st.Retries, st.Failures)

	if c.Trace {
		// The client's own view of the last call; a server/proxy running
		// their own recorders expose their hops of the same trace ID at
		// /trace/recent on their admin endpoints.
		trees := o.Recorder().Recent(1)
		if len(trees) == 0 {
			fmt.Println("trace: none recorded")
			return
		}
		obs.FprintTrace(os.Stdout, trees[0])
	}
}

// pooledCaller is the composition-erased view of svcpool.Pool the main
// loop needs.
type pooledCaller interface {
	Call(context.Context, *core.Envelope) (*core.Envelope, error)
	Stats() svcpool.Stats
	Close() error
}

// buildPool composes the pooled engine for an encoding/transport pair —
// each case monomorphizes its own Pool[E, B], same as the engines. A nil
// observer leaves the whole observability path dormant (the nil-sink
// contract); a non-nil one threads through pool, engine, and binding.
//
// In mux mode the pool's "connections" are logical bindings — cheap stream
// slots, so the pool is sized to the in-flight budget — while the real
// sockets are capped at `conns` shared sessions inside the transport.
func buildPool(c *cliconf.Common, addr string, cfg svcpool.Config, o *obs.Observer) (pooledCaller, error) {
	engOpts := c.EngineOptions(o)
	switch {
	case c.Mux && c.Encoding == "bxsa":
		tr := muxbind.NewTransport(muxbind.NetDialer, addr, muxbind.WithMaxSessions(c.Conns), muxbind.WithObserver(o))
		cfg.MaxConns = cfg.MaxInflight
		return svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *muxbind.Binding], error) {
			return core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), engOpts...), nil
		}, cfg, svcpool.WithObserver(o)), nil
	case c.Mux && c.Encoding == "xml":
		tr := muxbind.NewTransport(muxbind.NetDialer, addr, muxbind.WithMaxSessions(c.Conns), muxbind.WithObserver(o))
		cfg.MaxConns = cfg.MaxInflight
		return svcpool.New(func(context.Context) (*core.Engine[core.XMLEncoding, *muxbind.Binding], error) {
			return core.NewEngine(core.XMLEncoding{}, tr.NewBinding(), engOpts...), nil
		}, cfg, svcpool.WithObserver(o)), nil
	case c.Encoding == "bxsa" && c.Transport == "tcp":
		return svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *tcpbind.Binding], error) {
			return core.NewEngine(core.BXSAEncoding{}, tcpbind.New(tcpbind.NetDialer, addr, tcpbind.WithObserver(o)), engOpts...), nil
		}, cfg, svcpool.WithObserver(o)), nil
	case c.Encoding == "xml" && c.Transport == "tcp":
		return svcpool.New(func(context.Context) (*core.Engine[core.XMLEncoding, *tcpbind.Binding], error) {
			return core.NewEngine(core.XMLEncoding{}, tcpbind.New(tcpbind.NetDialer, addr, tcpbind.WithObserver(o)), engOpts...), nil
		}, cfg, svcpool.WithObserver(o)), nil
	case c.Encoding == "bxsa" && c.Transport == "http":
		return svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *httpbind.Binding], error) {
			return core.NewEngine(core.BXSAEncoding{}, httpbind.New(nil, "http://"+addr+"/soap", httpbind.WithObserver(o)), engOpts...), nil
		}, cfg, svcpool.WithObserver(o)), nil
	case c.Encoding == "xml" && c.Transport == "http":
		return svcpool.New(func(context.Context) (*core.Engine[core.XMLEncoding, *httpbind.Binding], error) {
			return core.NewEngine(core.XMLEncoding{}, httpbind.New(nil, "http://"+addr+"/soap", httpbind.WithObserver(o)), engOpts...), nil
		}, cfg, svcpool.WithObserver(o)), nil
	default:
		return nil, fmt.Errorf("unknown combination %s/%s", c.Encoding, c.Transport)
	}
}

func summarize(resp *core.Envelope) string {
	body := resp.Body()
	if body == nil {
		return "(empty)"
	}
	return fmt.Sprintf("%v", body.ElemName())
}
