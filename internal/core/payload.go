package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"bxsoap/internal/obs"
)

// Payload is one serialized SOAP message travelling through the pipeline:
// a reference-counted byte buffer drawn from size-classed pools, so that
// steady-state traffic recycles buffers instead of allocating a fresh
// []byte at every layer boundary (the paper's core claim is that
// serialization work, not the wire, dominates SOAP cost — per-message
// buffer churn is part of that work).
//
// Ownership rules (see DESIGN.md "Buffer ownership and the streaming
// pipeline"):
//
//   - Whoever checks a payload out (NewPayload, EncodePayload, ReadPayload,
//     Binding.ReceiveResponse, or ReadChunk on a source such as the one
//     Channel.ReceiveRequest returns) owns it and must Release it exactly
//     once.
//   - Binding.SendRequest borrows: the caller keeps ownership, so a pooled
//     request can be reused across retries.
//   - ChunkSink.WriteChunk transfers: the sink (e.g. the one
//     Channel.SendResponse opens) releases the chunk once it is written,
//     even asynchronously, on success or failure.
//   - Release after the final reference is a bug and panics; use Retain to
//     share a payload across goroutines.
type Payload struct {
	buf    []byte
	pooled bool // buffer storage participates in the class pools
	refs   atomic.Int32
}

// payloadClasses are the pooled buffer capacities. Checkout takes the
// smallest class that fits the size hint; release files a buffer under the
// largest class its capacity covers, so buffers grown past their class are
// not lost to the pool. Capacities above the largest class are still pooled
// there (sync.Pool sheds them at the next GC cycle if unused).
var payloadClasses = [...]int{512, 4 << 10, 32 << 10, 256 << 10, 1 << 20, 4 << 20}

var (
	classedPools [len(payloadClasses)]sync.Pool // holds *Payload with buffer attached
	barePool     = sync.Pool{New: func() any { return new(Payload) }}
	livePayloads atomic.Int64
	payloadObs   atomic.Pointer[obs.Observer]
)

// SetPayloadObserver wires an observer into the payload pools: checkout hit/
// miss counters and the payloads-in-use gauge (with high-water mark) record
// into it. The pools are process-global, so their observer is too; pass nil
// to detach. The default (no observer) keeps checkout and release free of
// any instrumentation cost beyond one atomic pointer load.
func SetPayloadObserver(o *obs.Observer) { payloadObs.Store(o) }

// classFor returns the checkout class for a size hint, or -1 when the hint
// exceeds every class.
func classFor(n int) int {
	for i, c := range payloadClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// putClassFor returns the release class for a buffer capacity, or -1 when
// the capacity is below every class (such buffers are dropped).
func putClassFor(c int) int {
	for i := len(payloadClasses) - 1; i >= 0; i-- {
		if c >= payloadClasses[i] {
			return i
		}
	}
	return -1
}

// NewPayload checks an empty payload out of the pool with capacity for at
// least sizeHint bytes. The caller owns it and must Release it exactly once.
//
//paylint:returns owned
func NewPayload(sizeHint int) *Payload {
	var p *Payload
	o := payloadObs.Load()
	if i := classFor(sizeHint); i >= 0 {
		if v := classedPools[i].Get(); v != nil {
			p = v.(*Payload)
			o.Inc(obs.PayloadPoolHits)
		} else {
			p = &Payload{buf: make([]byte, 0, payloadClasses[i])}
			o.Inc(obs.PayloadPoolMisses)
		}
	} else {
		p = &Payload{buf: make([]byte, 0, sizeHint)}
		o.Inc(obs.PayloadPoolMisses)
	}
	p.pooled = true
	p.refs.Store(1)
	livePayloads.Add(1)
	o.GaugeAdd(obs.PayloadsInUse, 1)
	return p
}

// NewPayloadFrom wraps externally owned bytes in a payload without copying.
// The bytes never enter the pools; Release only recycles the wrapper, so
// the slice stays valid (used by adapters and tests that already hold a
// materialized message).
//
//paylint:returns owned
func NewPayloadFrom(b []byte) *Payload {
	p := barePool.Get().(*Payload)
	p.buf = b
	p.pooled = false
	p.refs.Store(1)
	livePayloads.Add(1)
	payloadObs.Load().GaugeAdd(obs.PayloadsInUse, 1)
	return p
}

// Bytes returns the message bytes. The slice is valid until Release; callers
// that need it longer must copy or Retain.
func (p *Payload) Bytes() []byte { return p.buf }

// Len reports the message length in bytes.
func (p *Payload) Len() int { return len(p.buf) }

// Write appends b to the payload, growing the buffer along the pool size
// classes. It implements io.Writer and never fails.
func (p *Payload) Write(b []byte) (int, error) {
	p.ensure(len(b))
	p.buf = append(p.buf, b...)
	return len(b), nil
}

// Writer returns the payload as an io.Writer appending to the message.
func (p *Payload) Writer() io.Writer { return p }

// Retain adds a reference; each Retain obliges one more Release.
func (p *Payload) Retain() { p.refs.Add(1) }

// Release drops one reference; the final release returns the buffer to its
// size-class pool. Releasing more times than the payload was checked
// out/retained panics — that is a double free of a pooled buffer.
func (p *Payload) Release() {
	if p == nil {
		return
	}
	switch n := p.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("core: Payload released after final reference")
	}
	livePayloads.Add(-1)
	payloadObs.Load().GaugeAdd(obs.PayloadsInUse, -1)
	if p.pooled {
		if i := putClassFor(cap(p.buf)); i >= 0 {
			p.buf = p.buf[:0]
			classedPools[i].Put(p)
			return
		}
	}
	p.buf = nil
	p.pooled = false
	barePool.Put(p)
}

// ensure grows the buffer so at least n more bytes fit, stepping capacity
// along the pool classes so grown buffers file back cleanly.
func (p *Payload) ensure(n int) {
	need := len(p.buf) + n
	if cap(p.buf) >= need {
		return
	}
	newCap := need
	if i := classFor(need); i >= 0 {
		newCap = payloadClasses[i]
	} else if c := 2 * cap(p.buf); c > newCap {
		newCap = c
	}
	nb := make([]byte, len(p.buf), newCap)
	copy(nb, p.buf)
	p.buf = nb
}

// readChunk bounds how much a single length prefix can make us allocate in
// one step: a hostile "size" claims at most this much memory ahead of bytes
// actually arriving.
const readChunk = 512 << 10

// ReadPayload reads one message body from r into a pooled payload. size is
// the expected byte count when the transport knows it (a Content-Length or
// frame header) and -1 when it does not; limit caps the total read either
// way (0 = no limit). With a known size the buffer grows chunk-by-chunk as
// bytes arrive, so a hostile length prefix cannot force a huge allocation
// up front. The caller owns the returned payload.
//
//paylint:returns owned
func ReadPayload(r io.Reader, size, limit int64) (*Payload, error) {
	if size >= 0 {
		if limit > 0 && size > limit {
			return nil, fmt.Errorf("core: message size %d exceeds limit %d", size, limit)
		}
		hint := size
		if hint > readChunk {
			hint = readChunk
		}
		p := NewPayload(int(hint))
		for remaining := size; remaining > 0; {
			n := remaining
			if n > readChunk {
				n = readChunk
			}
			off := len(p.buf)
			p.ensure(int(n))
			p.buf = p.buf[:off+int(n)]
			if _, err := io.ReadFull(r, p.buf[off:]); err != nil {
				p.Release()
				return nil, err
			}
			remaining -= n
		}
		return p, nil
	}
	p := NewPayload(4 << 10)
	for {
		if len(p.buf) == cap(p.buf) {
			p.ensure(1)
		}
		n, err := r.Read(p.buf[len(p.buf):cap(p.buf)])
		p.buf = p.buf[:len(p.buf)+n]
		if limit > 0 && int64(len(p.buf)) > limit {
			p.Release()
			return nil, fmt.Errorf("core: message exceeds limit %d", limit)
		}
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			p.Release()
			return nil, err
		}
	}
}

// ReadPayloadWindow reads one window of up to max bytes from r into a
// pooled payload: a single successful Read call's worth, at least one byte
// unless the stream ended. The boolean reports whether r returned io.EOF on
// the same call (the window is the stream's last); a nil payload with
// io.EOF means the stream ended cleanly with no bytes left. Transports use
// this to slice a continuous body (an HTTP chunked stream) into the chunk
// windows the streaming codecs consume, without buffering the whole body.
// The caller owns the returned payload.
//
//paylint:returns owned
func ReadPayloadWindow(r io.Reader, max int) (*Payload, bool, error) {
	p := NewPayload(max)
	if cap(p.buf) < max {
		p.ensure(max)
	}
	for {
		n, err := r.Read(p.buf[:max])
		p.buf = p.buf[:n]
		if n > 0 {
			return p, err == io.EOF, nil
		}
		if err != nil {
			p.Release()
			return nil, false, err
		}
	}
}

// PayloadsInUse reports how many payloads are currently checked out of the
// pools (checked out minus released). It exists for leak tests and
// diagnostics: a quiescent engine/server pair must return to its baseline.
func PayloadsInUse() int64 { return livePayloads.Load() }
