// Benchmarks regenerating the paper's evaluation (§6): one benchmark per
// table and figure, plus microbenchmarks for the §6.2 conversion-cost
// observation and ablations for the BXSA design choices called out in
// DESIGN.md. The benches use a reduced size grid so `go test -bench=.`
// finishes in minutes; cmd/benchharness runs the paper's full sweeps.
package bxsoap

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/bxsa"
	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
	"bxsoap/internal/harness"
	"bxsoap/internal/netsim"
	"bxsoap/internal/xmltext"
)

// BenchmarkTable1 reports the serialization sizes of the binary data set at
// model size 1000 (paper Table 1: native 12000 B; BXSA +1.3%; netCDF +2.2%;
// XML 1.0 +99.1%).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1(1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				unit := strings.ReplaceAll(r.Format, " ", "-") + "_bytes"
				b.ReportMetric(float64(r.Bytes), unit)
			}
		}
	}
}

// benchScheme runs one harness scheme at one model size for b.N
// invocations, reporting pairs/s.
func benchScheme(b *testing.B, mk func() harness.Scheme, profile netsim.Profile, size int) {
	b.Helper()
	nw := netsim.New(profile)
	s := mk()
	dir, err := os.MkdirTemp("", "bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := s.Setup(nw, dir); err != nil {
		b.Fatal(err)
	}
	defer s.Teardown()
	m := dataset.Generate(size)
	if _, err := s.Invoke(m); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Invoke(m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if size > 0 {
		b.ReportMetric(float64(size)/b.Elapsed().Seconds()*float64(b.N), "pairs/s")
	}
}

// BenchmarkFigure4 measures small-message response time on the simulated
// LAN for the paper's four schemes (Figure 4): ns/op here is the paper's
// response-time axis.
func BenchmarkFigure4(b *testing.B) {
	mks := map[string]func() harness.Scheme{
		"BXSA-TCP":       func() harness.Scheme { return harness.NewUnified("BXSA", "tcp") },
		"XML-HTTP":       func() harness.Scheme { return harness.NewUnified("XML", "http") },
		"SOAP+HTTP":      func() harness.Scheme { return harness.NewSeparatedHTTP() },
		"SOAP+GridFTP-1": func() harness.Scheme { return harness.NewSeparatedGridFTP(1) },
	}
	for _, size := range []int{0, 500, 1000} {
		for name, mk := range mks {
			b.Run(fmt.Sprintf("%s/n=%d", name, size), func(b *testing.B) {
				benchScheme(b, mk, netsim.LAN, size)
			})
		}
	}
}

// BenchmarkFigure5 measures large-message bandwidth on the simulated LAN
// (Figure 5). Sizes are a subset of the paper's 1365·4^k grid; the pairs/s
// metric is the figure's y-axis.
func BenchmarkFigure5(b *testing.B) {
	mks := []struct {
		name string
		mk   func() harness.Scheme
	}{
		{"BXSA-TCP", func() harness.Scheme { return harness.NewUnified("BXSA", "tcp") }},
		{"SOAP+HTTP", func() harness.Scheme { return harness.NewSeparatedHTTP() }},
		{"SOAP+GridFTP-1", func() harness.Scheme { return harness.NewSeparatedGridFTP(1) }},
		{"SOAP+GridFTP-4", func() harness.Scheme { return harness.NewSeparatedGridFTP(4) }},
		{"SOAP+GridFTP-16", func() harness.Scheme { return harness.NewSeparatedGridFTP(16) }},
		{"XML-HTTP", func() harness.Scheme { return harness.NewUnified("XML", "http") }},
	}
	for _, size := range []int{1365, 87360} {
		for _, e := range mks {
			b.Run(fmt.Sprintf("%s/n=%d", e.name, size), func(b *testing.B) {
				benchScheme(b, e.mk, netsim.LAN, size)
			})
		}
	}
}

// BenchmarkFigure6 repeats the bandwidth measurement on the simulated WAN
// (Figure 6), where parallel GridFTP streams escape the single-stream
// window limit.
func BenchmarkFigure6(b *testing.B) {
	mks := []struct {
		name string
		mk   func() harness.Scheme
	}{
		{"SOAP+GridFTP-16", func() harness.Scheme { return harness.NewSeparatedGridFTP(16) }},
		{"BXSA-TCP", func() harness.Scheme { return harness.NewUnified("BXSA", "tcp") }},
		{"SOAP+GridFTP-4", func() harness.Scheme { return harness.NewSeparatedGridFTP(4) }},
		{"SOAP+HTTP", func() harness.Scheme { return harness.NewSeparatedHTTP() }},
		{"SOAP+GridFTP-1", func() harness.Scheme { return harness.NewSeparatedGridFTP(1) }},
	}
	// 349440 pairs (~4 MB) sits at the crossover where parallel streams
	// start beating the single-stream window limit (Figure 6).
	const size = 349440
	for _, e := range mks {
		b.Run(fmt.Sprintf("%s/n=%d", e.name, size), func(b *testing.B) {
			benchScheme(b, e.mk, netsim.WAN, size)
		})
	}
}

// BenchmarkConversionCost isolates the §6.2 observation: "the performance
// bottleneck is not merely the size of the serialization, but actually lies
// at the conversion between floating-point numbers and their ASCII
// representation." Same model, both encoders, encode and decode.
func BenchmarkConversionCost(b *testing.B) {
	m := dataset.Generate(1000)
	el := m.Element()
	doc := bxdm.NewDocument(el)

	b.Run("encode/XML", func(b *testing.B) {
		b.SetBytes(int64(m.NativeSize()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xmltext.Marshal(doc, xmltext.EncodeOptions{TypeHints: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/BXSA", func(b *testing.B) {
		b.SetBytes(int64(m.NativeSize()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bxsa.Marshal(doc, bxsa.EncodeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	xmlData, err := xmltext.Marshal(doc, xmltext.EncodeOptions{TypeHints: true})
	if err != nil {
		b.Fatal(err)
	}
	bxsaData, err := bxsa.Marshal(doc, bxsa.EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode/XML", func(b *testing.B) {
		b.SetBytes(int64(m.NativeSize()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xmltext.Parse(xmlData, xmltext.DecodeOptions{RecoverTypes: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/BXSA", func(b *testing.B) {
		b.SetBytes(int64(m.NativeSize()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bxsa.Parse(bxsaData); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFrameGranularity quantifies §4.1's frame-granularity
// decision: attributes and namespace declarations live inside their
// element's frame instead of being frames of their own. The ablation
// compares a realistic attribute-rich document against the same information
// remodeled with one child (leaf) element per attribute — what "numerous,
// small frames" would cost.
func BenchmarkAblationFrameGranularity(b *testing.B) {
	const entries = 500
	inline := bxdm.NewElement(bxdm.LocalName("catalog"))
	exploded := bxdm.NewElement(bxdm.LocalName("catalog"))
	for i := 0; i < entries; i++ {
		e := bxdm.NewElement(bxdm.LocalName("entry"))
		e.SetAttr(bxdm.LocalName("id"), bxdm.Int32Value(int32(i)))
		e.SetAttr(bxdm.LocalName("score"), bxdm.Float64Value(float64(i)*0.5))
		e.SetAttr(bxdm.LocalName("tag"), bxdm.StringValue("t"))
		inline.Append(e)

		x := bxdm.NewElement(bxdm.LocalName("entry"),
			bxdm.NewLeaf(bxdm.LocalName("id"), int32(i)),
			bxdm.NewLeaf(bxdm.LocalName("score"), float64(i)*0.5),
			bxdm.NewLeaf(bxdm.LocalName("tag"), "t"),
		)
		exploded.Append(x)
	}
	report := func(b *testing.B, n bxdm.Node) {
		size, err := bxsa.EncodedSize(n, bxsa.EncodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(size), "encoded_bytes")
		for i := 0; i < b.N; i++ {
			if _, err := bxsa.Marshal(n, bxsa.EncodeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("attrs-inline", func(b *testing.B) { report(b, inline) })
	b.Run("attrs-as-frames", func(b *testing.B) { report(b, exploded) })
}

// BenchmarkAblationNamespaceTokenization quantifies §4.1's tokenized
// namespace references: one declaration at the root referenced via
// (depth, index) pairs, versus the same namespace redeclared on every
// element (what literal per-frame namespace records would cost).
func BenchmarkAblationNamespaceTokenization(b *testing.B) {
	const uri = "urn:example:a-namespace-uri-of-realistic-length"
	const children = 500
	tokenized := bxdm.NewElement(bxdm.Name(uri, "root"))
	tokenized.DeclareNamespace("p", uri)
	redeclared := bxdm.NewElement(bxdm.Name(uri, "root"))
	redeclared.DeclareNamespace("p", uri)
	for i := 0; i < children; i++ {
		t := bxdm.NewLeaf(bxdm.Name(uri, "item"), int32(i))
		tokenized.Append(t)
		r := bxdm.NewLeaf(bxdm.Name(uri, "item"), int32(i))
		r.DeclareNamespace("p", uri) // forces a per-frame namespace table
		redeclared.Append(r)
	}
	report := func(b *testing.B, n bxdm.Node) {
		size, err := bxsa.EncodedSize(n, bxsa.EncodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(size), "encoded_bytes")
		for i := 0; i < b.N; i++ {
			if _, err := bxsa.Marshal(n, bxsa.EncodeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("tokenized", func(b *testing.B) { report(b, tokenized) })
	b.Run("redeclared-per-element", func(b *testing.B) { report(b, redeclared) })
}

// BenchmarkAblationPolicyDispatch probes the paper's generic-programming
// claim ("Because the binding is at compile time, compiler optimizations
// are not impacted, and inlining is still enabled"): the same encode runs
// through a concrete type parameter (monomorphized, inlinable) and through
// an interface value (dynamic dispatch). The absolute delta is small —
// encoding dominates — which is itself the honest finding: the real win of
// policy-based design here is type-safe composition, not nanoseconds.
func BenchmarkAblationPolicyDispatch(b *testing.B) {
	env := core.NewEnvelope(dataset.Generate(100).Element())
	doc := env.Document()

	encodeStatic := func(b *testing.B) {
		enc := core.BXSAEncoding{} // concrete type, direct calls
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = enc.AppendEncode(buf[:0], doc); err != nil {
				b.Fatal(err)
			}
		}
	}
	encodeDynamic := func(b *testing.B) {
		var enc core.Encoding = core.BXSAEncoding{} // interface dispatch
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = enc.AppendEncode(buf[:0], doc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("static-policy", encodeStatic)
	b.Run("dynamic-dispatch", encodeDynamic)
}

// BenchmarkAblationTypedLeaves quantifies §3's motivation for extending XDM
// with typed values: shipping 1000 native doubles from sender memory to
// receiver memory as a typed ArrayElement (block copy), versus the XML
// Infoset way — formatting each to text on the sender and parsing each back
// on the receiver, even though the carrier is binary in both cases.
func BenchmarkAblationTypedLeaves(b *testing.B) {
	m := dataset.Generate(1000)

	b.Run("typed-array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			doc := bxdm.NewDocument(m.Element())
			data, err := bxsa.Marshal(doc, bxsa.EncodeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			back, err := bxsa.Parse(data)
			if err != nil {
				b.Fatal(err)
			}
			got, err := dataset.FromElement(back.(*bxdm.Document).Root())
			if err != nil || got.Size() != m.Size() {
				b.Fatalf("round trip: %v", err)
			}
		}
	})
	b.Run("text-content", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Sender: native → text (the Infoset model stores character
			// data, so the conversion is unavoidable).
			var sb bytes.Buffer
			for j, v := range m.Values {
				if j > 0 {
					sb.WriteByte(' ')
				}
				sb.Write(bxdm.Float64Value(v).AppendLexical(nil))
			}
			doc := bxdm.NewDocument(bxdm.NewElement(bxdm.LocalName("data"),
				bxdm.NewText(sb.String())))
			data, err := bxsa.Marshal(doc, bxsa.EncodeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			back, err := bxsa.Parse(data)
			if err != nil {
				b.Fatal(err)
			}
			// Receiver: text → native.
			text := back.(*bxdm.Document).Root().(*bxdm.Element).TextContent()
			builder, err := bxdm.NewArrayBuilder(bxdm.TFloat64)
			if err != nil {
				b.Fatal(err)
			}
			for _, field := range strings.Fields(text) {
				if err := builder.AppendLexical(field); err != nil {
					b.Fatal(err)
				}
			}
			if builder.Data().Len() != len(m.Values) {
				b.Fatal("lost values")
			}
		}
	})
}

// BenchmarkPooledCalls measures aggregate request throughput of the
// svcpool client runtime at concurrency 1/4/16 (pool of as many
// connections) over the netsim LAN and WAN, with the seed single-engine
// client alongside as the baseline. On the RTT-bound WAN the pooled client
// at concurrency 16 overlaps sixteen round trips and clears 4× the
// single-engine throughput; EXPERIMENTS.md records the measured numbers.
func BenchmarkPooledCalls(b *testing.B) {
	const size = 500
	for _, prof := range []netsim.Profile{netsim.LAN, netsim.WAN} {
		b.Run(fmt.Sprintf("%s/single-engine", prof.Name), func(b *testing.B) {
			benchScheme(b, func() harness.Scheme { return harness.NewUnified("BXSA", "tcp") }, prof, size)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
		})
		for _, conc := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/pool-c%d", prof.Name, conc), func(b *testing.B) {
				benchPooled(b, prof, conc, size)
			})
		}
	}
}

// benchPooled drives b.N batches of conc concurrent calls through a
// conc-connection pool and reports aggregate calls/s and pairs/s.
func benchPooled(b *testing.B, profile netsim.Profile, conc, size int) {
	nw := netsim.New(profile)
	s := harness.NewPooledUnified("BXSA", "tcp", conc, conc)
	if err := s.Setup(nw, b.TempDir()); err != nil {
		b.Fatal(err)
	}
	defer s.Teardown()
	m := dataset.Generate(size)
	if _, err := s.Invoke(m); err != nil { // warm-up: dials off the clock
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Invoke(m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	calls := float64(b.N) * float64(conc)
	b.ReportMetric(calls/b.Elapsed().Seconds(), "calls/s")
	b.ReportMetric(calls*float64(size)/b.Elapsed().Seconds(), "pairs/s")
}
