package core

import (
	"log"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/obs"
)

// The construction options for engines and servers. Everything is set
// here, at NewEngine/NewServer time, so a composed node is immutable once
// serving — the options redesign is what makes "configure after Serve"
// impossible to race by construction. (The transitional field-poking and
// post-construction mutators — Server.ErrorLog, Server.Understand — were
// removed once every caller migrated; late header registration goes
// through Dispatcher.Understand, which swaps the set atomically.)
//
// EngineOption and ServerOption are split interfaces because the two sides
// accept different settings; Option implements both for settings (the
// observer) that apply to either. The With* constructors return the most
// permissive type that fits, so call sites just list options:
//
//	core.NewServer(enc, bind, h,
//		core.WithErrorLog(logger),
//		core.WithUnderstood(securityHeader),
//		core.WithObserver(o))
//	core.NewEngine(enc, bind, core.WithObserver(o))

// EngineOption configures a client engine at construction.
type EngineOption interface{ applyEngine(*engineConfig) }

// ServerOption configures a server at construction.
type ServerOption interface{ applyServer(*serverConfig) }

// Option is an option accepted by both NewEngine and NewServer.
type Option interface {
	EngineOption
	ServerOption
}

type engineConfig struct {
	obs        *obs.Observer
	templates  int
	chunkBytes int
}

type serverConfig struct {
	obs        *obs.Observer
	errorLog   *log.Logger
	understood []bxdm.QName
	templates  int
	chunkBytes int
}

type observerOption struct{ o *obs.Observer }

func (v observerOption) applyEngine(c *engineConfig) { c.obs = v.o }
func (v observerOption) applyServer(c *serverConfig) { c.obs = v.o }

// WithObserver wires an observability sink into the engine or server: the
// request path records per-stage latencies (client: encode → send → wait →
// decode; server: receive → decode → handler → encode → send) and the call
// counters into it. A nil observer (the default) keeps the path on the
// allocation-free nil-sink fast path.
func WithObserver(o *obs.Observer) Option { return observerOption{o} }

type errorLogOption struct{ l *log.Logger }

func (v errorLogOption) applyServer(c *serverConfig) { c.errorLog = v.l }

// WithErrorLog directs per-channel failures to l; without it they are
// silently dropped.
func WithErrorLog(l *log.Logger) ServerOption { return errorLogOption{l} }

type understoodOption struct{ names []bxdm.QName }

func (v understoodOption) applyServer(c *serverConfig) {
	c.understood = append(c.understood, v.names...)
}

// WithUnderstood registers header QNames this node processes, for SOAP 1.1
// mustUnderstand enforcement (§4.2.3). Repeatable; the sets union.
// Replaces the deprecated post-construction Server.Understand.
func WithUnderstood(names ...bxdm.QName) ServerOption { return understoodOption{names} }

type templatesOption struct{ capacity int }

func (v templatesOption) applyEngine(c *engineConfig) { c.templates = v.capacity }
func (v templatesOption) applyServer(c *serverConfig) { c.templates = v.capacity }

// WithTemplates enables the shape-keyed template cache: up to capacity
// message shapes are compiled into byte-level encode/decode plans, and
// repeated shapes skip the generic tree walk entirely (capacity <= 0 picks
// a default). A shape is compiled on its second sighting among the last
// capacity unplanned shapes, so one-off shapes stay generic. The option is
// a no-op when the encoding does not implement TemplateCompiler (e.g.
// wssec-wrapped policies), and any shape the compiler cannot prove
// faithful falls back to the generic path — enabling templates never
// changes bytes on the wire or decoded trees. Off by default.
func WithTemplates(capacity int) Option { return templatesOption{capacity} }

type streamingOption struct{ chunkBytes int }

func (v streamingOption) applyEngine(c *engineConfig) { c.chunkBytes = normChunkBytes(v.chunkBytes) }
func (v streamingOption) applyServer(c *serverConfig) { c.chunkBytes = normChunkBytes(v.chunkBytes) }

// normChunkBytes is the one window rule, for the WithStreaming argument and
// the base encodings' EncodeChunks alike: a non-positive size means
// DefaultChunkBytes. For the option, the zero value thus means "streaming
// on, default window", so the stored config is nonzero exactly when the
// option was given.
func normChunkBytes(n int) int {
	if n <= 0 {
		return DefaultChunkBytes
	}
	return n
}

// WithStreaming sets the chunk window: messages this node encodes flow as a
// sequence of pooled chunks of roughly chunkBytes each instead of one
// materialized buffer (chunkBytes <= 0 picks DefaultChunkBytes), bounding
// memory by the window rather than message size. On an engine the streamed
// path engages when the binding implements StreamBinding. On a server the
// option only sizes the response window — every channel speaks the chunk
// seam, so requests are decoded as their chunks arrive with or without it.
// Either side interoperates with a peer or transport without streaming
// support — the option never changes which messages round-trip, only how
// they are carried (see the DESIGN.md fallback matrix). Off by default.
// Mutually exclusive with templates on the encode side: a streamed message
// never consults the plan cache.
func WithStreaming(chunkBytes int) Option { return streamingOption{chunkBytes} }
