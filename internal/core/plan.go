package core

// Schema-compiled encode/decode plans (ROADMAP item 2). The generic engine
// builds and walks a bXDM tree for every message, but production traffic is
// a handful of message *shapes* repeated millions of times — the paper's
// TerraService regime, where schema knowledge (XBS) is what lets a stack
// skip generic work on the hot path. The plan cache realizes that: a
// shape's first message is only recorded, and a second message of it
// within the admission window is encoded generically and compiled into a
// byte-level Template (skeleton + variable windows for BXSA, static
// segments for XML) plus a decoded shape.Proto; every later same-shaped
// message is a skeleton splice on encode and a segment match + arena
// instantiation on decode. Everything here is best-effort: any
// fingerprint, compile, splice, or match failure falls back to the generic
// tree walk with zero behavior change, which is what keeps wssec-wrapped
// and trace-stamped messages round-tripping bit-identically.
//
// Cache keying accepts the ~2^-128 collision probability of the 128-bit
// shape fingerprint (see DESIGN.md "Schema-compiled plans").

import (
	"bytes"
	"sync"
	"sync/atomic"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/obs"
	"bxsoap/internal/shape"
)

// Template is a compiled encode/decode plan for one message shape, as
// produced by an encoding's TemplateCompiler. Implementations must be
// immutable and safe for concurrent use.
type Template interface {
	// AppendEncode appends an encoding of the shape with the given
	// variable values (in shape.Fingerprint order) to dst. The output
	// must be byte-identical to the generic encode of the corresponding
	// envelope; any input the template cannot render faithfully must be
	// an error, upon which the caller falls back to the generic encoder.
	AppendEncode(dst []byte, vars []shape.Var) ([]byte, error)
	// Match reports whether data is an encoding of this shape and, if
	// so, appends the decoded variable values to *vars. A false return
	// means only "not provably this shape" — the caller tries other
	// plans, then the generic decoder.
	Match(data []byte, vars *[]shape.Var) bool
}

// TemplateCompiler is the optional plan-compiling interface an Encoding
// may implement (BXSAEncoding and XMLEncoding do; wssec.Secured
// deliberately does not, so secured messages always take the generic
// path). CompileTemplate compiles a plan from a representative document;
// encodings that cannot support plans for their configuration (e.g.
// hintless XML) return an error.
type TemplateCompiler interface {
	CompileTemplate(doc *bxdm.Document) (Template, error)
}

// planEntry is one cached shape. tmpl == nil marks a negative entry: the
// shape is known, compilation or validation failed, and every message of
// it takes the generic path without repaying the compile cost.
type planEntry struct {
	key     shape.Key
	tmpl    Template
	proto   *shape.Proto
	lastUse atomic.Int64 // logical clock ticks, for LRU eviction
}

// planCache is a bounded, copy-on-write, shape-keyed template cache. The
// read path loads an immutable map snapshot with one atomic load; inserts
// and evictions clone under mu. All methods are nil-receiver safe so a
// codec without plans stays on the generic path at zero cost, and the
// observer honors the obs nil-sink contract.
//
// Admission is a doorkeeper: ring holds the last capacity unplanned shape
// keys, and only a key already in it is compiled. The ring is sized at
// capacity because under LRU a shape that does not recur within capacity
// misses would be evicted before its next hit anyway; so a one-off shape
// costs no compile and never evicts a plan that has hits. Deferred first
// sightings are templates.misses minus templates.compiles.
//
//paylint:nil-sink planCache
type planCache struct {
	compiler TemplateCompiler
	capacity int
	obs      *obs.Observer
	clock    atomic.Int64
	entries  atomic.Pointer[map[shape.Key]*planEntry]
	mu       sync.Mutex
	ring     []shape.Key // guarded by mu
	next     int         // guarded by mu; the ring's oldest slot
	varsPool sync.Pool
}

func newPlanCache(tc TemplateCompiler, capacity int, o *obs.Observer) *planCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &planCache{
		compiler: tc,
		capacity: capacity,
		obs:      o,
		ring:     make([]shape.Key, capacity),
	}
}

// admit reports whether key is in the doorkeeper ring, clearing its slot
// if so; otherwise it records the sighting over the oldest slot. The scan
// is as long as the cache, like store's, and runs only on a miss.
func (pc *planCache) admit(key shape.Key) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for i, k := range pc.ring {
		if k == key {
			pc.ring[i] = shape.Key{}
			return true
		}
	}
	pc.ring[pc.next] = key
	pc.next = (pc.next + 1) % len(pc.ring)
	return false
}

func (pc *planCache) getVars() *[]shape.Var {
	if v, ok := pc.varsPool.Get().(*[]shape.Var); ok {
		*v = (*v)[:0]
		return v
	}
	v := make([]shape.Var, 0, 16)
	return &v
}

func (pc *planCache) putVars(v *[]shape.Var) {
	for i := range *v {
		(*v)[i] = shape.Var{} // drop references into message trees
	}
	*v = (*v)[:0]
	pc.varsPool.Put(v)
}

// lookup returns the entry for key, updating its recency.
func (pc *planCache) lookup(key shape.Key) *planEntry {
	if pc == nil {
		return nil
	}
	m := pc.entries.Load()
	if m == nil {
		return nil
	}
	e := (*m)[key]
	if e != nil {
		e.lastUse.Store(pc.clock.Add(1))
	}
	return e
}

// store inserts entry, evicting the least-recently-used plans while over
// capacity. A concurrently stored entry for the same key wins.
func (pc *planCache) store(entry *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var cur map[shape.Key]*planEntry
	if m := pc.entries.Load(); m != nil {
		cur = *m
	}
	if _, ok := cur[entry.key]; ok {
		return
	}
	next := make(map[shape.Key]*planEntry, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	for len(next) >= pc.capacity {
		var victim *planEntry
		for _, v := range next {
			if victim == nil || v.lastUse.Load() < victim.lastUse.Load() {
				victim = v
			}
		}
		delete(next, victim.key)
		pc.obs.Inc(obs.TemplateEvictions)
		pc.obs.GaugeAdd(obs.TemplatePlans, -1)
	}
	next[entry.key] = entry
	pc.entries.Store(&next)
	pc.obs.GaugeAdd(obs.TemplatePlans, 1)
}

// compile builds the plan for key from a representative envelope and
// stores it, once admit has seen key before; a first sighting is only
// recorded. On any failure it stores a negative entry instead, so the
// attempt is never repaid per message. The compiled plan is validated
// before use: the template must re-encode the representative byte-for-byte
// from its fingerprint vars, and its Match + Proto.Instantiate must
// reproduce exactly the tree the generic decoder yields for the skeleton.
// That validation is what makes every parser normalization subtlety
// (entity expansion, whitespace drops, hint stripping) a compile-time
// rejection instead of a wrong tree at runtime.
func (pc *planCache) compile(enc Encoding, key shape.Key, env *Envelope) {
	if pc == nil || !pc.admit(key) {
		return
	}
	entry := &planEntry{key: key}
	entry.lastUse.Store(pc.clock.Add(1))
	pc.obs.Inc(obs.TemplateCompiles)
	defer pc.store(entry)

	doc := env.Document()
	tmpl, err := pc.compiler.CompileTemplate(doc)
	if err != nil {
		return
	}
	skel, err := enc.AppendEncode(nil, doc)
	if err != nil {
		return
	}
	// Encode validation: fingerprint vars of the representative must
	// splice back into exactly the generic encoding.
	var vars []shape.Var
	if _, ok := shape.Fingerprint(env.HeaderEntries, env.BodyChildren, &vars); !ok {
		return
	}
	out, err := tmpl.AppendEncode(nil, vars)
	if err != nil || !bytes.Equal(out, skel) {
		return
	}
	// Decode validation: the prototype is built from the *generic decode*
	// of the skeleton (not the original tree), so instantiated envelopes
	// inherit every normalization the parser applies.
	protoDoc, err := enc.Decode(skel)
	if err != nil {
		return
	}
	protoEnv, err := EnvelopeFromDocument(protoDoc)
	if err != nil {
		return
	}
	proto, err := shape.NewProto(protoEnv.HeaderEntries, protoEnv.BodyChildren)
	if err != nil {
		return
	}
	vars = vars[:0]
	if !tmpl.Match(skel, &vars) {
		return
	}
	h, b, err := proto.Instantiate(vars)
	if err != nil {
		return
	}
	if !(&Envelope{HeaderEntries: h, BodyChildren: b}).Equal(protoEnv) {
		return
	}
	entry.tmpl, entry.proto = tmpl, proto
}

// matchDecode tries every compiled plan against data, returning the
// instantiated envelope on a match. Templates reject foreign shapes in
// O(1) for BXSA (length check) and O(first segment) for XML, so the scan
// over a bounded cache stays cheap.
func (pc *planCache) matchDecode(data []byte) *Envelope {
	if pc == nil {
		return nil
	}
	m := pc.entries.Load()
	if m == nil {
		return nil
	}
	vp := pc.getVars()
	for _, e := range *m {
		if e.tmpl == nil {
			continue
		}
		*vp = (*vp)[:0]
		if !e.tmpl.Match(data, vp) {
			continue
		}
		h, b, err := e.proto.Instantiate(*vp)
		pc.putVars(vp)
		if err != nil {
			return nil
		}
		e.lastUse.Store(pc.clock.Add(1))
		pc.obs.Inc(obs.TemplateHits)
		return &Envelope{HeaderEntries: h, BodyChildren: b}
	}
	pc.putVars(vp)
	return nil
}

// observeDecoded learns shapes from the decode side: after a generic
// decode, an unknown shape goes through compile's admission, so its
// second sighting compiles from the decoded envelope and the next message
// of it matches. Called off the decode result, so the envelope is still
// exclusively owned here.
func (pc *planCache) observeDecoded(enc Encoding, env *Envelope) {
	if pc == nil {
		return
	}
	vp := pc.getVars()
	key, ok := shape.Fingerprint(env.HeaderEntries, env.BodyChildren, vp)
	pc.putVars(vp)
	if !ok {
		return
	}
	if pc.lookup(key) != nil {
		return
	}
	pc.compile(enc, key, env)
}

func (pc *planCache) hit() {
	if pc != nil {
		pc.obs.Inc(obs.TemplateHits)
	}
}

func (pc *planCache) miss() {
	if pc != nil {
		pc.obs.Inc(obs.TemplateMisses)
	}
}

// Plans reports how many shapes are currently cached (negative entries
// included). Diagnostics only.
func (pc *planCache) plans() int {
	if pc == nil {
		return 0
	}
	m := pc.entries.Load()
	if m == nil {
		return 0
	}
	return len(*m)
}
