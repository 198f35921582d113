package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/netsim"
	"bxsoap/internal/svcpool"
	"bxsoap/internal/tcpbind"
)

// pooledCaller abstracts svcpool.Pool[E, B] over its type parameters so one
// scheme value can hold whichever monomorphic composition Setup picked.
type pooledCaller interface {
	Call(ctx context.Context, req *core.Envelope) (*core.Envelope, error)
	Stats() svcpool.Stats
	Close() error
}

// buildPooled starts the unified verification server for the composition on
// nw and returns a connection pool dialing it, plus the teardown closers.
func buildPooled(nw *netsim.Network, encoding, transport string, cfg svcpool.Config) (pooledCaller, []func() error, error) {
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	switch {
	case encoding == "BXSA" && transport == "tcp":
		srv := core.NewServer(core.BXSAEncoding{}, tcpbind.NewListener(l), unifiedHandler)
		go srv.Serve()
		addr := l.Addr().String()
		pool := svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *tcpbind.Binding], error) {
			return core.NewEngine(core.BXSAEncoding{}, tcpbind.New(nw.Dial, addr)), nil
		}, cfg)
		return pool, []func() error{pool.Close, srv.Close}, nil
	case encoding == "XML" && transport == "tcp":
		srv := core.NewServer(core.XMLEncoding{}, tcpbind.NewListener(l), unifiedHandler)
		go srv.Serve()
		addr := l.Addr().String()
		pool := svcpool.New(func(context.Context) (*core.Engine[core.XMLEncoding, *tcpbind.Binding], error) {
			return core.NewEngine(core.XMLEncoding{}, tcpbind.New(nw.Dial, addr)), nil
		}, cfg)
		return pool, []func() error{pool.Close, srv.Close}, nil
	case encoding == "BXSA" && transport == "http":
		hl := httpbind.NewListener(l)
		srv := core.NewServer(core.BXSAEncoding{}, hl, unifiedHandler)
		go srv.Serve()
		url := hl.URL()
		pool := svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *httpbind.Binding], error) {
			return core.NewEngine(core.BXSAEncoding{}, httpbind.New(nw.Dial, url)), nil
		}, cfg)
		return pool, []func() error{pool.Close, srv.Close}, nil
	case encoding == "XML" && transport == "http":
		hl := httpbind.NewListener(l)
		srv := core.NewServer(core.XMLEncoding{}, hl, unifiedHandler)
		go srv.Serve()
		url := hl.URL()
		pool := svcpool.New(func(context.Context) (*core.Engine[core.XMLEncoding, *httpbind.Binding], error) {
			return core.NewEngine(core.XMLEncoding{}, httpbind.New(nw.Dial, url)), nil
		}, cfg)
		return pool, []func() error{pool.Close, srv.Close}, nil
	default:
		l.Close()
		return nil, nil, fmt.Errorf("harness: unknown pooled combination %s/%s", encoding, transport)
	}
}

// ThroughputPoint is one measured concurrent-throughput sample.
type ThroughputPoint struct {
	Scheme      string
	Profile     string
	Concurrency int
	Calls       int
	Elapsed     time.Duration
	CallsPerSec float64
	PairsPerSec float64
	Stats       svcpool.Stats
}

// PooledThroughput measures aggregate request throughput: calls total
// invocations of the unified verification service at model size `size`,
// spread over `concurrency` workers sharing a pool of `conns` connections.
func PooledThroughput(nw *netsim.Network, encoding, transport string, conns, concurrency, calls, size int) (ThroughputPoint, error) {
	pt := ThroughputPoint{
		Scheme:      fmt.Sprintf("Pooled %s/%s (conns=%d, c=%d)", encoding, transportLabel(transport), conns, concurrency),
		Profile:     nw.Profile().Name,
		Concurrency: concurrency,
		Calls:       calls,
	}
	pool, closers, err := buildPooled(nw, encoding, transport, svcpool.Config{
		MaxConns:    conns,
		MaxInflight: concurrency,
	})
	if err != nil {
		return pt, err
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	m := dataset.Generate(size)
	env := core.NewEnvelope(m.Element())
	// Warm-up: put every connection through one exchange so dials and
	// allocator warmth are off the clock, as in measurePoint.
	if err := runConcurrent(pool, env, conns, conns); err != nil {
		return pt, err
	}
	start := time.Now()
	if err := runConcurrent(pool, env, concurrency, calls); err != nil {
		return pt, err
	}
	pt.Elapsed = time.Since(start)
	pt.CallsPerSec = float64(calls) / pt.Elapsed.Seconds()
	pt.PairsPerSec = pt.CallsPerSec * float64(size)
	pt.Stats = pool.Stats()
	return pt, nil
}

// runConcurrent drives `total` pool calls from `workers` goroutines.
func runConcurrent(pool pooledCaller, env *core.Envelope, workers, total int) error {
	var wg sync.WaitGroup
	work := make(chan struct{}, total)
	for i := 0; i < total; i++ {
		work <- struct{}{}
	}
	close(work)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				if _, err := pool.Call(context.Background(), env); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// PrintThroughput renders pooled-throughput points as a table.
func PrintThroughput(w io.Writer, points []ThroughputPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tprofile\tconcurrency\tcalls\telapsed\tcalls/s\tpairs/s\tdials\treuses\tretries")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%v\t%.0f\t%.0f\t%d\t%d\t%d\n",
			p.Scheme, p.Profile, p.Concurrency, p.Calls, p.Elapsed.Round(time.Millisecond),
			p.CallsPerSec, p.PairsPerSec, p.Stats.Dials, p.Stats.Reuses, p.Stats.Retries)
	}
	tw.Flush()
}
