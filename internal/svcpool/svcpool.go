package svcpool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// Factory dials and composes one fresh engine: the underlying transport
// connection plus the (encoding, binding) policy pair. The pool calls it
// whenever it needs to grow or replace a retired connection. The context
// carries the checkout deadline of the caller the dial is on behalf of.
type Factory[E core.Encoding, B core.Binding] func(ctx context.Context) (*core.Engine[E, B], error)

// Config tunes a Pool. The zero value gets sensible defaults (see the
// field comments); explicitly negative values disable the corresponding
// mechanism where noted.
type Config struct {
	// MaxConns bounds the live engines (idle + checked out). Default 4.
	MaxConns int
	// MaxInflight bounds concurrently admitted calls; callers beyond it
	// block in checkout until a slot frees or their context expires —
	// backpressure instead of unbounded dials. Default 2×MaxConns.
	MaxInflight int
	// IdleTimeout reaps connections unused this long. Default 90s;
	// negative disables reaping.
	IdleTimeout time.Duration
	// MaxLifetime rotates connections out after this age regardless of
	// health, so long-lived pools shed drifted peers. Default 0 (off).
	MaxLifetime time.Duration
	// CallTimeout is the per-attempt deadline covering checkout plus the
	// exchange. Default 0 (caller's context only).
	CallTimeout time.Duration
	// Retry configures backoff for Call/Send (the retrying entry points).
	Retry RetryPolicy
	// Breaker configures the consecutive-failure circuit breaker.
	Breaker BreakerPolicy
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * c.MaxConns
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 90 * time.Second
	}
	c.Retry = c.Retry.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// Pool-level sentinel errors.
var (
	// ErrPoolClosed is returned by calls entered after Close.
	ErrPoolClosed = errors.New("svcpool: pool closed")
)

// Stats is a point-in-time snapshot of pool counters.
type Stats struct {
	Dials    uint64 // connections created
	Reuses   uint64 // checkouts served from the free list
	Retires  uint64 // connections closed (health, age, idle, shutdown)
	Retries  uint64 // retry attempts (beyond each call's first)
	Failures uint64 // attempts that ended in a transport-level error
	Rejected uint64 // calls refused by the open circuit breaker
	Live     int    // connections currently alive (idle + checked out)
	Idle     int    // connections parked on the free list
	Inflight int    // calls currently admitted
}

// pooled is one live engine plus the bookkeeping the pool's health and age
// policies key off.
type pooled[E core.Encoding, B core.Binding] struct {
	eng      *core.Engine[E, B]
	created  time.Time
	lastUsed time.Time
}

// Pool is a bounded, health-aware set of engines sharing one (encoding,
// binding) composition. All methods are safe for concurrent use.
type Pool[E core.Encoding, B core.Binding] struct {
	factory Factory[E, B]
	cfg     Config

	// inflight holds a token per admitted call (semaphore, cap
	// MaxInflight); slots holds a token per *permission to own* a
	// connection (cap MaxConns, initially full); idle is the LIFO-ish free
	// list. A connection's owner holds its slot token implicitly; retiring
	// a connection returns the token.
	inflight chan struct{}
	slots    chan struct{}
	idle     chan *pooled[E, B]
	done     chan struct{}
	closing  sync.Once

	brk breaker
	obs *obs.Observer

	dials, reuses, retires, retries, failures, rejected atomic.Uint64
}

// New builds a pool over factory. Close it when done to release the live
// connections and the reaper goroutine.
func New[E core.Encoding, B core.Binding](factory Factory[E, B], cfg Config, opts ...Option) *Pool[E, B] {
	cfg = cfg.withDefaults()
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	p := &Pool[E, B]{
		factory:  factory,
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInflight),
		slots:    make(chan struct{}, cfg.MaxConns),
		idle:     make(chan *pooled[E, B], cfg.MaxConns),
		done:     make(chan struct{}),
		brk:      breaker{policy: cfg.Breaker, obs: o.obs},
		obs:      o.obs,
	}
	for i := 0; i < cfg.MaxConns; i++ {
		p.slots <- struct{}{}
	}
	if cfg.IdleTimeout > 0 || cfg.MaxLifetime > 0 {
		go p.reaper()
	}
	return p
}

// Call performs a request-response exchange through the pool, retrying
// transport-level failures on a fresh connection per Config.Retry. Only
// route idempotent operations through Call: a retried request may execute
// twice on the server when the failure hit after dispatch. Use CallOnce
// for non-idempotent operations.
func (p *Pool[E, B]) Call(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
	return p.call(ctx, req, true)
}

// CallOnce performs a single attempt with no retry (the pool's checkout,
// health, and breaker machinery still apply).
func (p *Pool[E, B]) CallOnce(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
	return p.call(ctx, req, false)
}

func (p *Pool[E, B]) call(ctx context.Context, req *core.Envelope, retry bool) (*core.Envelope, error) {
	// The pool originates (or relays) the trace: the hop must be started
	// here, before encode, because the trace header has to be serialized
	// into the payload the retry budget replays. The engine below sees only
	// bytes, so the hop rides the context into CallPayload. One hop spans
	// all attempts — retried stages simply appear once per attempt.
	req, hop := core.BeginClientTrace(p.obs, req)
	ctx = obs.ContextWithHop(ctx, hop)
	// The pool owns the logical call, so the dimensional sample is recorded
	// here — once, spanning every retry attempt — rather than per attempt in
	// the engine (CallPayload/CallStream deliberately do not record).
	var op string
	var t0 time.Time
	if p.obs.Dimensional() {
		op = core.OpName(req)
		t0 = p.obs.Now()
	}
	var resp *core.Envelope
	var payload *core.Payload
	defer func() {
		if payload != nil {
			payload.Release()
		}
	}()
	err := p.do(ctx, retry, func(actx context.Context, eng *core.Engine[E, B]) error {
		if eng.Streaming() > 0 {
			// Streamed replay-or-abort: a streamed request has no
			// materialized payload to replay — its chunks were consumed by
			// the transport — so the envelope tree is the replay source and
			// each attempt re-streams the encode through its fresh
			// connection. An attempt that fails mid-stream aborts its sink
			// (poisoning only that connection) before the retry starts over.
			var err error
			resp, err = eng.CallStream(actx, req)
			return err
		}
		// Encode lazily on the first attempt (every engine from one factory
		// shares the encoding policy), then replay the same pooled payload on
		// retries: CallPayload borrows it, so one serialization serves the
		// whole retry budget. The deferred Release above covers every exit —
		// success, fault, poisoned connection, exhausted retries. The encode
		// is marked here because CallPayload's own span never sees it.
		if payload == nil {
			sp := p.obs.SpanWith(hop)
			var err error
			payload, err = eng.Codec().EncodePayload(req)
			if err != nil {
				return fmt.Errorf("svcpool: encode request: %w", err)
			}
			sp.Mark(obs.ClientEncode)
		}
		var err error
		resp, err = eng.CallPayload(actx, payload)
		return err
	})
	p.obs.FinishHop(hop, err)
	if op != "" {
		p.obs.RecordOp(op, obs.RoleClient, p.obs.Since(t0), err != nil, hop.Context().ID)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Send performs a one-way exchange through the pool with retry; the same
// idempotency caveat as Call applies.
func (p *Pool[E, B]) Send(ctx context.Context, req *core.Envelope) error {
	req, hop := core.BeginClientTrace(p.obs, req)
	ctx = obs.ContextWithHop(ctx, hop)
	var op string
	var t0 time.Time
	if p.obs.Dimensional() {
		op = core.OpName(req)
		t0 = p.obs.Now()
	}
	var payload *core.Payload
	defer func() {
		if payload != nil {
			payload.Release()
		}
	}()
	err := p.do(ctx, true, func(actx context.Context, eng *core.Engine[E, B]) error {
		if payload == nil {
			sp := p.obs.SpanWith(hop)
			var err error
			payload, err = eng.Codec().EncodePayload(req)
			if err != nil {
				return fmt.Errorf("svcpool: encode request: %w", err)
			}
			sp.Mark(obs.ClientEncode)
		}
		return eng.SendPayload(actx, payload)
	})
	p.obs.FinishHop(hop, err)
	if op != "" {
		p.obs.RecordOp(op, obs.RoleClient, p.obs.Since(t0), err != nil, hop.Context().ID)
	}
	return err
}

// do admits the call (backpressure), then runs attempts until success, a
// non-retryable outcome, the caller's context expiring, or the retry
// budget running out.
func (p *Pool[E, B]) do(ctx context.Context, retry bool, op func(context.Context, *core.Engine[E, B]) error) error {
	select {
	case p.inflight <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		return ErrPoolClosed
	}
	p.obs.GaugeAdd(obs.PoolInflight, 1)
	defer func() {
		<-p.inflight
		p.obs.GaugeAdd(obs.PoolInflight, -1)
	}()

	attempts := 1
	if retry && p.cfg.Retry.MaxAttempts > 1 {
		attempts = p.cfg.Retry.MaxAttempts
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			p.retries.Add(1)
			p.obs.Inc(obs.PoolRetries)
			p.obs.Event(obs.EvRetry, "transport failure; retrying on a fresh connection")
			if werr := sleepCtx(ctx, p.cfg.Retry.backoff(i)); werr != nil {
				return err
			}
		}
		var final bool
		final, err = p.tryOnce(ctx, op)
		if final {
			return err
		}
	}
	return err
}

// tryOnce runs one breaker-gated attempt. final reports that do should
// return err now instead of retrying. Whatever path the attempt exits by —
// including a panic in op — the breaker is settled: success, failure, or
// (via the deferred abandon) reverting an unresolved half-open probe so it
// cannot wedge the breaker.
func (p *Pool[E, B]) tryOnce(ctx context.Context, op func(context.Context, *core.Engine[E, B]) error) (final bool, err error) {
	probe, berr := p.brk.allow()
	if berr != nil {
		p.rejected.Add(1)
		return true, berr
	}
	settled := false
	defer func() {
		if !settled {
			p.brk.abandon(probe)
		}
	}()
	err = p.attempt(ctx, op)
	if err == nil {
		settled = true
		p.brk.success()
		return true, nil
	}
	var f *core.Fault
	if errors.As(err, &f) {
		// The peer answered "no": the transport demonstrably works.
		settled = true
		p.brk.success()
		return true, err
	}
	if errors.Is(err, ErrPoolClosed) || ctx.Err() != nil {
		// Shutdown, or the caller's own budget spent while waiting /
		// mid-exchange — neither says anything about peer health. The
		// deferred abandon settles a probe that ends here.
		return true, err
	}
	if !core.IsTransportError(err) {
		// Encode/decode/content-type problems repeat identically on
		// any connection; retrying burns attempts for nothing. No
		// transport verdict either way — abandon settles the probe.
		return true, err
	}
	settled = true
	p.failures.Add(1)
	p.brk.failure()
	return false, err
}

// attempt checks out a connection, runs one exchange under the per-attempt
// deadline, and routes the connection back by health: transport-class
// failures retire it (never handed out again), everything else returns it
// to the free list.
func (p *Pool[E, B]) attempt(ctx context.Context, op func(context.Context, *core.Engine[E, B]) error) error {
	actx := ctx
	if p.cfg.CallTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, p.cfg.CallTimeout)
		defer cancel()
	}
	// The checkout-wait span covers the whole of get: free-list reuse, a
	// fresh dial, or blocking for a slot under backpressure. The hop (if
	// tracing) rides the context from call/send.
	var hop *obs.Hop
	if p.obs.Tracing() {
		hop = obs.HopFromContext(actx)
	}
	sp := p.obs.SpanWith(hop)
	c, err := p.get(actx)
	sp.Mark(obs.ClientCheckout)
	if err != nil {
		return err
	}
	err = op(actx, c.eng)
	if err != nil && core.Poisons(err) {
		if p.obs.Tracing() {
			p.obs.Event(obs.EvPayloadPoisoned, err.Error())
		}
		p.retire(c)
		return err
	}
	p.put(c)
	return err
}

// get checks out a connection: a healthy idle one if available, else a
// fresh dial if the pool is under MaxConns, else it blocks until a
// connection or slot frees or the context expires.
func (p *Pool[E, B]) get(ctx context.Context) (*pooled[E, B], error) {
	for {
		// Fast path: reuse without contending on the slow select.
		select {
		case c := <-p.idle:
			if p.stale(c, time.Now()) {
				p.retire(c)
				continue
			}
			p.reuses.Add(1)
			return c, nil
		default:
		}
		select {
		case c := <-p.idle:
			if p.stale(c, time.Now()) {
				p.retire(c)
				continue
			}
			p.reuses.Add(1)
			return c, nil
		case <-p.slots:
			c, err := p.dial(ctx)
			if err != nil {
				p.slots <- struct{}{}
				return nil, err
			}
			return c, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-p.done:
			return nil, ErrPoolClosed
		}
	}
}

func (p *Pool[E, B]) dial(ctx context.Context) (*pooled[E, B], error) {
	eng, err := p.factory(ctx)
	if err != nil {
		return nil, fmt.Errorf("svcpool: dial: %w", err)
	}
	p.dials.Add(1)
	now := time.Now()
	return &pooled[E, B]{eng: eng, created: now, lastUsed: now}, nil
}

// put returns a healthy connection to the free list (or retires it when
// the pool is closing or the connection has aged out).
func (p *Pool[E, B]) put(c *pooled[E, B]) {
	select {
	case <-p.done:
		p.retire(c)
		return
	default:
	}
	if p.cfg.MaxLifetime > 0 && time.Since(c.created) > p.cfg.MaxLifetime {
		p.retire(c)
		return
	}
	c.lastUsed = time.Now()
	select {
	case p.idle <- c:
		// Close may have drained idle between the done check above and our
		// send landing; re-check and drain so the parked connection cannot
		// leak past shutdown.
		select {
		case <-p.done:
			p.drainIdle()
		default:
		}
	default:
		// Unreachable in normal operation (idle cap == MaxConns), but never
		// block holding a connection.
		p.retire(c)
	}
}

// retire closes a connection and returns its ownership slot so a
// replacement may be dialed.
func (p *Pool[E, B]) retire(c *pooled[E, B]) {
	p.retires.Add(1)
	p.obs.Inc(obs.PoolRetirements)
	p.obs.Event(obs.EvConnRetired, "connection retired (health, age, or shutdown)")
	c.eng.Close()
	p.slots <- struct{}{}
}

func (p *Pool[E, B]) stale(c *pooled[E, B], now time.Time) bool {
	if p.cfg.IdleTimeout > 0 && now.Sub(c.lastUsed) > p.cfg.IdleTimeout {
		return true
	}
	if p.cfg.MaxLifetime > 0 && now.Sub(c.created) > p.cfg.MaxLifetime {
		return true
	}
	return false
}

// reaper proactively closes idle/aged connections so a quiet pool does not
// pin sockets until the next burst of traffic finds them stale.
func (p *Pool[E, B]) reaper() {
	interval := p.cfg.IdleTimeout
	if p.cfg.MaxLifetime > 0 && (interval <= 0 || p.cfg.MaxLifetime < interval) {
		interval = p.cfg.MaxLifetime
	}
	interval /= 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.reap()
		case <-p.done:
			return
		}
	}
}

func (p *Pool[E, B]) reap() {
	now := time.Now()
	for n := len(p.idle); n > 0; n-- {
		select {
		case c := <-p.idle:
			if p.stale(c, now) {
				p.retire(c)
			} else {
				select {
				case p.idle <- c:
				default:
					p.retire(c)
				}
			}
		default:
			return
		}
	}
}

// Stats returns a snapshot of the pool's counters. The gauge fields are
// instantaneously consistent enough for monitoring, not for synchronization.
func (p *Pool[E, B]) Stats() Stats {
	return Stats{
		Dials:    p.dials.Load(),
		Reuses:   p.reuses.Load(),
		Retires:  p.retires.Load(),
		Retries:  p.retries.Load(),
		Failures: p.failures.Load(),
		Rejected: p.rejected.Load(),
		Live:     p.cfg.MaxConns - len(p.slots),
		Idle:     len(p.idle),
		Inflight: len(p.inflight),
	}
}

// Close stops the pool: blocked and future calls fail with ErrPoolClosed,
// idle connections are closed now, and checked-out connections are closed
// as their calls complete.
func (p *Pool[E, B]) Close() error {
	p.closing.Do(func() { close(p.done) })
	p.drainIdle()
	return nil
}

// drainIdle closes every connection currently parked on the free list.
// Only meaningful after done is closed; safe to call from multiple
// goroutines (Close and puts racing shutdown).
func (p *Pool[E, B]) drainIdle() {
	for {
		select {
		case c := <-p.idle:
			c.eng.Close()
		default:
			return
		}
	}
}

// sleepCtx waits for d unless the context expires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
