package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/dataset"
	"bxsoap/internal/obs"
	"bxsoap/internal/shape"
	"bxsoap/internal/xbs"
)

// planEnv builds one representative message shape: a header leaf, two
// typed body leaves (one string, so XML escaping is exercised), and a
// packed float64 array.
func planEnv(txid int64, n int32, s string, vals []float64) *Envelope {
	req := bxdm.NewElement(bxdm.PName("urn:svc", "s", "op"))
	req.DeclareNamespace("s", "urn:svc")
	req.Append(
		bxdm.NewLeaf(bxdm.Name("urn:svc", "n"), n),
		bxdm.NewLeafValue(bxdm.Name("urn:svc", "tag"), bxdm.StringValue(s)),
		bxdm.NewArray(bxdm.Name("urn:svc", "vals"), vals),
	)
	env := NewEnvelope(req)
	env.AddHeader(bxdm.NewLeaf(bxdm.Name("urn:h", "txid"), txid))
	return env
}

// opEnv builds a one-leaf message whose shape is fixed by the body
// element's local name.
func opEnv(op string, n int32) *Envelope {
	req := bxdm.NewElement(bxdm.PName("urn:svc", "s", op))
	req.DeclareNamespace("s", "urn:svc")
	req.Append(bxdm.NewLeaf(bxdm.Name("urn:svc", "n"), n))
	return NewEnvelope(req)
}

// newTemplatedCodec mirrors the NewEngine/NewDispatcher wiring for a bare
// codec so the fast paths can be tested without a transport.
func newTemplatedCodec(enc Encoding, capacity int, o *obs.Observer) Codec[Encoding] {
	c := NewCodec[Encoding](enc)
	if tc, ok := enc.(TemplateCompiler); ok {
		c.plans = newPlanCache(tc, capacity, o)
	}
	return c
}

// matchesGeneric encodes env through gen and enc and decodes the generic
// bytes through gen and dec, reporting any difference in bytes or tree.
// Every payload is released before it returns.
func matchesGeneric(gen, enc, dec Codec[Encoding], env *Envelope) error {
	want, err := gen.EncodePayload(env)
	if err != nil {
		return err
	}
	defer want.Release()
	got, err := enc.EncodePayload(env)
	if err != nil {
		return err
	}
	defer got.Release()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("templated encode differs from generic:\n got %q\nwant %q",
			got.Bytes(), want.Bytes())
	}
	wantEnv, err := gen.DecodeEnvelope(want.Bytes())
	if err != nil {
		return err
	}
	gotEnv, err := dec.DecodeEnvelope(want.Bytes())
	if err != nil {
		return err
	}
	if !gotEnv.Equal(wantEnv) {
		return errors.New("templated decode tree differs from generic parse")
	}
	return nil
}

func TestTemplatedCodecMatchesGeneric(t *testing.T) {
	envs := []*Envelope{
		planEnv(1, 42, "aa", []float64{0.5, 1.5, 2.5}),
		planEnv(2, -7, "b&", []float64{9e9, -1, 0.125}), // hostile string, same length
		planEnv(3, 0, "c<", []float64{1, 2, 3}),
	}
	for _, enc := range []Encoding{
		BXSAEncoding{},
		BXSAEncoding{Order: xbs.BigEndian},
		XMLEncoding{},
	} {
		t.Run(enc.Name()+fmt.Sprint(enc), func(t *testing.T) {
			o := obs.New()
			gen := NewCodec[Encoding](enc)
			tpl := newTemplatedCodec(enc, 8, o)
			if tpl.plans == nil {
				t.Fatalf("%s does not implement TemplateCompiler", enc.Name())
			}
			// All three messages share one shape. Round 1 feeds only the
			// first, so its encode and decode are the shape's first
			// sightings; round 2's first message is then the second
			// sighting and compiles, and the rest of rounds 2 and 3 hit.
			// Admission compiles from the second sighting, so the hostile
			// strings never become the representative: an XML
			// representative holding an escaped string compiles to a
			// negative entry, as at the first sighting before admission.
			for round := 0; round < 3; round++ {
				batch := envs
				if round == 0 {
					batch = envs[:1]
				}
				for _, env := range batch {
					if err := matchesGeneric(gen, tpl, tpl, env); err != nil {
						t.Fatal(err)
					}
				}
			}
			if o.Counter(obs.TemplateCompiles) == 0 {
				t.Error("no compiles recorded")
			}
			if o.Counter(obs.TemplateHits) == 0 {
				t.Error("steady state never hit the cache")
			}
			if o.Gauge(obs.TemplatePlans) == 0 {
				t.Error("plans gauge stayed zero")
			}
		})
	}
}

func TestTemplatesDisabledZeroChange(t *testing.T) {
	// A codec without plans and a templated codec must agree bit for bit,
	// and an engine built without WithTemplates gets no cache at all.
	eng := NewEngine(BXSAEncoding{}, failRecvBinding{})
	if eng.Codec().plans != nil {
		t.Fatal("engine grew a plan cache without WithTemplates")
	}
	eng = NewEngine(BXSAEncoding{}, failRecvBinding{}, WithTemplates(8))
	if eng.Codec().plans == nil {
		t.Fatal("WithTemplates did not attach a plan cache")
	}
	d := NewDispatcher(XMLEncoding{}, nil, WithTemplates(8))
	if d.Codec().plans == nil {
		t.Fatal("WithTemplates did not reach the dispatcher codec")
	}
}

func TestPlanCacheEvictionBoundsPlans(t *testing.T) {
	o := obs.New()
	tpl := newTemplatedCodec(BXSAEncoding{}, 2, o)
	// Four distinct shapes through a two-entry cache, each fed twice so
	// its second sighting passes admission and compiles.
	for i := 0; i < 4; i++ {
		env := opEnv(fmt.Sprintf("op%d", i), int32(i))
		for rep := 0; rep < 2; rep++ {
			p, err := tpl.EncodePayload(env)
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
	}
	if got := tpl.plans.plans(); got > 2 {
		t.Errorf("cache holds %d plans, capacity 2", got)
	}
	if o.Counter(obs.TemplateEvictions) < 2 {
		t.Errorf("evictions = %d, want >= 2", o.Counter(obs.TemplateEvictions))
	}
	if g := o.Gauge(obs.TemplatePlans); g != 2 {
		t.Errorf("plans gauge = %d, want 2", g)
	}
	if o.Counter(obs.TemplateCompiles) != 4 {
		t.Errorf("compiles = %d, want 4", o.Counter(obs.TemplateCompiles))
	}
}

// churnEnvs returns n distinct shapes: dataset models of 16, 17, ...
// pairs, as on the shape-churn workload (array counts are part of a
// shape).
func churnEnvs(n int) []*Envelope {
	envs := make([]*Envelope, n)
	for i := range envs {
		envs[i] = NewEnvelope(dataset.Generate(16 + i).Element())
	}
	return envs
}

func TestPlanAdmissionChurnNeverCompiles(t *testing.T) {
	// 64 shapes cycled through 16-entry caches, encoded on one side and
	// decoded on the other: every shape recurs only after 63 others, so
	// none is ever admitted, nothing is compiled and nothing evicted.
	for _, enc := range []Encoding{XMLEncoding{}, BXSAEncoding{}} {
		t.Run(enc.Name(), func(t *testing.T) {
			o := obs.New()
			gen := NewCodec[Encoding](enc)
			cli := newTemplatedCodec(enc, 16, o)
			srv := newTemplatedCodec(enc, 16, o)
			envs := churnEnvs(64)
			for round := 0; round < 4; round++ {
				for _, env := range envs {
					if err := matchesGeneric(gen, cli, srv, env); err != nil {
						t.Fatal(err)
					}
				}
			}
			if n := o.Counter(obs.TemplateCompiles); n != 0 {
				t.Errorf("compiles = %d, want 0", n)
			}
			if n := o.Counter(obs.TemplateEvictions); n != 0 {
				t.Errorf("evictions = %d, want 0", n)
			}
			if n := o.Counter(obs.TemplateMisses); n != 2*4*64 {
				t.Errorf("misses = %d, want %d", n, 2*4*64)
			}
		})
	}
}

func TestPlanAdmissionHotPlanSurvivesBurst(t *testing.T) {
	// A compiled plan with hits must outlive any number of one-off shapes:
	// they are only recorded, so they cannot evict it.
	for _, enc := range []Encoding{BXSAEncoding{}, XMLEncoding{}} {
		t.Run(enc.Name(), func(t *testing.T) {
			o := obs.New()
			tpl := newTemplatedCodec(enc, 16, o)
			encode := func(env *Envelope) {
				p, err := tpl.EncodePayload(env)
				if err != nil {
					t.Fatal(err)
				}
				p.Release()
			}
			hot := planEnv(1, 42, "aa", []float64{0.5, 1.5})
			for i := 0; i < 3; i++ { // recorded, compiled, hit
				encode(hot)
			}
			hits, compiles := o.Counter(obs.TemplateHits), o.Counter(obs.TemplateCompiles)
			if hits == 0 {
				t.Fatal("the hot shape never hit")
			}
			for i := 0; i < 1000; i++ {
				encode(opEnv(fmt.Sprintf("once%d", i), int32(i)))
			}
			encode(hot)
			if h := o.Counter(obs.TemplateHits); h != hits+1 {
				t.Errorf("hits = %d after the burst, want %d", h, hits+1)
			}
			if c := o.Counter(obs.TemplateCompiles); c != compiles {
				t.Errorf("compiles = %d after the burst, want %d", c, compiles)
			}
			if e := o.Counter(obs.TemplateEvictions); e != 0 {
				t.Errorf("evictions = %d, want 0", e)
			}
		})
	}
}

func TestPlanAdmissionConcurrentSightings(t *testing.T) {
	// 16 goroutines share one templated codec, each mixing a hot shape
	// with one-off shapes, so first sightings, admissions and hits race
	// through the doorkeeper.
	for _, enc := range []Encoding{BXSAEncoding{}, XMLEncoding{}} {
		t.Run(enc.Name(), func(t *testing.T) {
			base := PayloadsInUse()
			o := obs.New()
			gen := NewCodec[Encoding](enc)
			tpl := newTemplatedCodec(enc, 16, o)
			errs := make(chan error, 16)
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						env := planEnv(int64(i), int32(g), "hh", []float64{float64(i), 1})
						if i%2 == 1 {
							env = opEnv(fmt.Sprintf("g%d_%d", g, i), int32(i))
						}
						if err := matchesGeneric(gen, tpl, tpl, env); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if o.Counter(obs.TemplateHits) == 0 {
				t.Error("the hot shape never hit")
			}
			if got := PayloadsInUse(); got != base {
				t.Errorf("payloads in use = %d, want %d", got, base)
			}
		})
	}
}

func TestPlanCacheNegativeEntryStopsRecompiling(t *testing.T) {
	// Hintless XML declines compilation; the failure must be cached as a
	// negative entry so the compile cost is paid once per shape, and the
	// generic output must be unaffected.
	o := obs.New()
	enc := XMLEncoding{PlainStrings: true}
	gen := NewCodec[Encoding](enc)
	tpl := newTemplatedCodec(enc, 8, o)
	env := planEnv(1, 42, "xx", []float64{1, 2})
	for i := 0; i < 3; i++ {
		want, err := gen.EncodePayload(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tpl.EncodePayload(env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("negative-entry encode differs from generic")
		}
		got.Release()
		want.Release()
	}
	if n := o.Counter(obs.TemplateCompiles); n != 1 {
		t.Errorf("compiles = %d, want 1 (negative entry not cached)", n)
	}
	if o.Counter(obs.TemplateHits) != 0 {
		t.Error("negative entry counted as hit")
	}
}

func TestPlanCacheNilSafe(t *testing.T) {
	var pc *planCache
	pc.hit()
	pc.miss()
	if pc.lookup(shape.Key{}) != nil {
		t.Error("nil cache returned an entry")
	}
	if pc.matchDecode([]byte("x")) != nil {
		t.Error("nil cache matched bytes")
	}
	pc.compile(XMLEncoding{}, shape.Key{}, NewEnvelope())
	pc.observeDecoded(XMLEncoding{}, NewEnvelope())
	if pc.plans() != 0 {
		t.Error("nil cache reports plans")
	}
}

func TestTemplatedDispatchNoPayloadLeaks(t *testing.T) {
	base := PayloadsInUse()
	ctx := context.Background()
	d := NewDispatcher(BXSAEncoding{}, func(_ context.Context, req *Envelope) (*Envelope, error) {
		return NewEnvelope(bxdm.NewLeaf(bxdm.LocalName("ok"), int32(1))), nil
	}, WithTemplates(8))
	cod := newTemplatedCodec(BXSAEncoding{}, 8, nil)
	for i := 0; i < 6; i++ {
		req, err := cod.EncodePayload(planEnv(int64(i), int32(i), "rt", []float64{1, 2, 3}))
		if err != nil {
			t.Fatal(err)
		}
		sp := (*obs.Observer)(nil).Span()
		resp, err := d.DispatchPayload(ctx, req, cod.ContentType(), &sp, nil)
		req.Release()
		if err != nil {
			t.Fatal(err)
		}
		env, err := cod.DecodeEnvelope(resp.Bytes())
		resp.Release()
		if err != nil {
			t.Fatal(err)
		}
		if env.Body() == nil {
			t.Fatal("templated round trip lost the body")
		}
	}
	if got := PayloadsInUse(); got != base {
		t.Errorf("payloads in use = %d, want %d (leak through templated path)", got, base)
	}
}
