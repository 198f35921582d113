package bxsa

import (
	"bytes"
	"math"
	"testing"
	"testing/iotest"
	"testing/quick"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/xbs"
	"bxsoap/internal/xmltext"
)

func testTree() *bxdm.Document {
	root := bxdm.NewElement(bxdm.PName("urn:app", "a", "data"))
	root.DeclareNamespace("a", "urn:app")
	root.DeclareNamespace("m", "urn:meta")
	root.SetAttr(bxdm.LocalName("version"), bxdm.Int32Value(2))
	root.SetAttr(bxdm.Name("urn:meta", "source"), bxdm.StringValue("sim"))
	root.Append(
		bxdm.NewLeaf(bxdm.Name("urn:app", "count"), int32(-42)),
		bxdm.NewLeaf(bxdm.Name("urn:app", "mean"), 2.718281828459045),
		bxdm.NewLeaf(bxdm.Name("urn:app", "ok"), true),
		bxdm.NewLeaf(bxdm.Name("urn:app", "tag"), "hello"),
		bxdm.NewArray(bxdm.Name("urn:app", "index"), []int32{1, 2, 3, 4, 5}),
		bxdm.NewArray(bxdm.Name("urn:app", "vals"), []float64{0.5, -1.25, math.Pi}),
		bxdm.NewElement(bxdm.Name("urn:app", "meta"),
			bxdm.NewText("free text"),
			&bxdm.Comment{Data: "a comment"},
			&bxdm.PI{Target: "proc", Data: "inst"},
			bxdm.NewElement(bxdm.Name("urn:meta", "nested"),
				bxdm.NewLeaf(bxdm.Name("urn:meta", "deep"), uint16(99)),
			),
		),
	)
	return bxdm.NewDocument(root)
}

func roundTrip(t *testing.T, n bxdm.Node, opts EncodeOptions) bxdm.Node {
	t.Helper()
	data, err := Marshal(n, opts)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !bxdm.Equal(n, back) {
		t.Fatalf("round trip mismatch")
	}
	return back
}

func TestRoundTripBothOrders(t *testing.T) {
	roundTrip(t, testTree(), EncodeOptions{Order: xbs.LittleEndian})
	roundTrip(t, testTree(), EncodeOptions{Order: xbs.BigEndian})
}

func TestEncodedSizeMatchesMarshal(t *testing.T) {
	for _, n := range []bxdm.Node{
		testTree(),
		bxdm.NewElement(bxdm.LocalName("empty")),
		bxdm.NewLeaf(bxdm.LocalName("v"), 3.14),
		bxdm.NewArray(bxdm.LocalName("a"), make([]float64, 1000)),
		&bxdm.Text{Data: "plain"},
	} {
		size, err := EncodedSize(n, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := Marshal(n, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if size != len(data) {
			t.Errorf("EncodedSize = %d, Marshal produced %d bytes", size, len(data))
		}
	}
}

func TestArrayAlignment(t *testing.T) {
	// Wherever the array lands in the document, its packed float64 data must
	// start at a document-absolute multiple of 8.
	for pad := 0; pad < 9; pad++ {
		root := bxdm.NewElement(bxdm.LocalName("r"))
		// Vary the preceding content length to shift the array's offset.
		root.Append(bxdm.NewText(string(make([]byte, pad+1))))
		root.Append(bxdm.NewArray(bxdm.LocalName("a"), []float64{1.5, 2.5}))
		data, err := Marshal(root, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Find the payload: scan for the 16-byte little-endian rendering.
		var want [16]byte
		putF64 := func(b []byte, f float64) {
			bits := math.Float64bits(f)
			for i := 0; i < 8; i++ {
				b[i] = byte(bits >> (8 * i))
			}
		}
		putF64(want[:8], 1.5)
		putF64(want[8:], 2.5)
		idx := bytes.Index(data, want[:])
		if idx < 0 {
			t.Fatalf("pad %d: packed data not found", pad)
		}
		if idx%8 != 0 {
			t.Errorf("pad %d: packed float64 data at offset %d, not 8-aligned", pad, idx)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		if !bxdm.Equal(root, back) {
			t.Errorf("pad %d: round trip mismatch", pad)
		}
	}
}

func TestEncodingOverheadSmall(t *testing.T) {
	// The BXSA overhead over native must stay small for the paper's workload
	// shape (Table 1 reports 1.3% at model size 1000).
	n := 1000
	idx := make([]int32, n)
	vals := make([]float64, n)
	for i := range idx {
		idx[i] = int32(i)
		vals[i] = float64(i) * 1.5
	}
	root := bxdm.NewElement(bxdm.LocalName("d"),
		bxdm.NewArray(bxdm.LocalName("i"), idx),
		bxdm.NewArray(bxdm.LocalName("v"), vals),
	)
	data, err := Marshal(bxdm.NewDocument(root), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	native := n * (4 + 8)
	overhead := float64(len(data)-native) / float64(native)
	if overhead > 0.02 {
		t.Errorf("BXSA overhead = %.2f%% (%d bytes over %d native), want < 2%%",
			overhead*100, len(data)-native, native)
	}
}

func TestAllScalarTypesRoundTrip(t *testing.T) {
	root := bxdm.NewElement(bxdm.LocalName("r"),
		bxdm.NewLeaf(bxdm.LocalName("i8"), int8(-8)),
		bxdm.NewLeaf(bxdm.LocalName("i16"), int16(-1600)),
		bxdm.NewLeaf(bxdm.LocalName("i32"), int32(-1<<30)),
		bxdm.NewLeaf(bxdm.LocalName("i64"), int64(-1<<60)),
		bxdm.NewLeaf(bxdm.LocalName("u8"), uint8(200)),
		bxdm.NewLeaf(bxdm.LocalName("u16"), uint16(60000)),
		bxdm.NewLeaf(bxdm.LocalName("u32"), uint32(1<<31)),
		bxdm.NewLeaf(bxdm.LocalName("u64"), uint64(1<<63)),
		bxdm.NewLeaf(bxdm.LocalName("f32"), float32(-0.5)),
		bxdm.NewLeaf(bxdm.LocalName("f64"), math.SmallestNonzeroFloat64),
		bxdm.NewLeaf(bxdm.LocalName("bt"), true),
		bxdm.NewLeaf(bxdm.LocalName("bf"), false),
		bxdm.NewLeaf(bxdm.LocalName("s"), "string value with ünïcode"),
	)
	for _, order := range []xbs.ByteOrder{xbs.LittleEndian, xbs.BigEndian} {
		roundTrip(t, root, EncodeOptions{Order: order})
	}
}

func TestAllArrayTypesRoundTrip(t *testing.T) {
	root := bxdm.NewElement(bxdm.LocalName("r"),
		bxdm.NewArray(bxdm.LocalName("a1"), []int8{-1, 2}),
		bxdm.NewArray(bxdm.LocalName("a2"), []int16{3, -4}),
		bxdm.NewArray(bxdm.LocalName("a3"), []int32{5}),
		bxdm.NewArray(bxdm.LocalName("a4"), []int64{-6, 7, 8}),
		bxdm.NewArray(bxdm.LocalName("a5"), []uint8{9, 10}),
		bxdm.NewArray(bxdm.LocalName("a6"), []uint16{11}),
		bxdm.NewArray(bxdm.LocalName("a7"), []uint32{12, 13}),
		bxdm.NewArray(bxdm.LocalName("a8"), []uint64{14}),
		bxdm.NewArray(bxdm.LocalName("a9"), []float32{1.5, -2.5}),
		bxdm.NewArray(bxdm.LocalName("a10"), []float64{math.Inf(1), -0.0}),
		bxdm.NewArray(bxdm.LocalName("a11"), []float64{}),
	)
	for _, order := range []xbs.ByteOrder{xbs.LittleEndian, xbs.BigEndian} {
		roundTrip(t, root, EncodeOptions{Order: order})
	}
}

func TestNamespaceTokenization(t *testing.T) {
	// The namespace URI string must appear exactly once in the encoding even
	// when referenced by many nested elements — that is the point of the
	// tokenized (depth, index) references.
	uri := "urn:exactly-once-namespace"
	inner := bxdm.NewLeaf(bxdm.Name(uri, "leaf"), int32(1))
	mid := bxdm.NewElement(bxdm.Name(uri, "mid"), inner)
	root := bxdm.NewElement(bxdm.Name(uri, "root"), mid)
	root.DeclareNamespace("p", uri)
	data, err := Marshal(root, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte(uri)); got != 1 {
		t.Errorf("namespace URI appears %d times, want 1", got)
	}
	roundTrip(t, root, EncodeOptions{})
}

func TestAutoDeclaredNamespace(t *testing.T) {
	// Element in a namespace with no declaration anywhere: encoder must
	// synthesize one.
	root := bxdm.NewElement(bxdm.Name("urn:auto", "r"),
		bxdm.NewLeaf(bxdm.Name("urn:other", "l"), int32(5)),
	)
	data, err := Marshal(root, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	be := back.(*bxdm.Element)
	if be.Name.Space != "urn:auto" {
		t.Errorf("root namespace lost: %v", be.Name)
	}
	if be.ChildElements()[0].ElemName().Space != "urn:other" {
		t.Errorf("leaf namespace lost")
	}
}

func TestMixedByteOrderDocuments(t *testing.T) {
	// A BE-encoded element embedded in an LE document must decode: byte
	// order is per frame (the paper's rationale for the per-frame BO bits).
	leBytes, err := Marshal(bxdm.NewLeaf(bxdm.LocalName("v"), 1.5), EncodeOptions{Order: xbs.LittleEndian})
	if err != nil {
		t.Fatal(err)
	}
	beBytes, err := Marshal(bxdm.NewLeaf(bxdm.LocalName("v"), 1.5), EncodeOptions{Order: xbs.BigEndian})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(leBytes, beBytes) {
		t.Fatal("LE and BE encodings identical — byte order not applied")
	}
	for _, data := range [][]byte{leBytes, beBytes} {
		n, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if n.(*bxdm.LeafElement).Value.Float64() != 1.5 {
			t.Error("value corrupted")
		}
	}
}

// decodeOneByte decodes data through DecodeReader a byte at a time, the
// hardest case for a reader-driven decoder.
func decodeOneByte(data []byte) (bxdm.Node, error) {
	return DecodeReader(iotest.OneByteReader(bytes.NewReader(data)))
}

// decodeSources are the decoder's two byte sources, each behind its public
// entry point.
var decodeSources = []struct {
	name   string
	decode func([]byte) (bxdm.Node, error)
}{{"Parse", Parse}, {"DecodeReader", decodeOneByte}}

func TestDecoderRejectsMalformed(t *testing.T) {
	good, err := Marshal(testTree(), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, good...)
	bad[0] = prefixByte(xbs.LittleEndian, FrameType(0x3f))
	for _, src := range decodeSources {
		t.Run(src.name, func(t *testing.T) {
			// Truncations at every length must fail, never panic.
			for i := 0; i < len(good)-1; i++ {
				if _, err := src.decode(good[:i]); err == nil {
					t.Fatalf("truncation at %d accepted", i)
				}
			}
			if _, err := src.decode(append(append([]byte{}, good...), 0xff)); err == nil {
				t.Error("trailing bytes accepted")
			}
			if _, err := src.decode(nil); err == nil {
				t.Error("empty input accepted")
			}
			if _, err := src.decode(bad); err == nil {
				t.Error("unknown frame type accepted")
			}
		})
	}
}

func TestDecoderFuzzResilience(t *testing.T) {
	good, err := Marshal(testTree(), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range decodeSources {
		t.Run(src.name, func(t *testing.T) {
			// Flip each byte; decoder must either succeed or error — never
			// panic, never hang.
			for i := range good {
				mut := append([]byte{}, good...)
				mut[i] ^= 0x5a
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panic with byte %d flipped: %v", i, r)
						}
					}()
					_, _ = src.decode(mut)
				}()
			}
		})
	}
}

func TestParseDocumentTypeCheck(t *testing.T) {
	data, err := Marshal(bxdm.NewLeaf(bxdm.LocalName("v"), int32(1)), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDocument(data); err == nil {
		t.Error("ParseDocument accepted a leaf frame")
	}
	docData, err := Marshal(testTree(), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDocument(docData); err != nil {
		t.Errorf("ParseDocument rejected document: %v", err)
	}
}

func TestDecodeReader(t *testing.T) {
	data, err := Marshal(testTree(), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := DecodeReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bxdm.Equal(testTree(), n) {
		t.Error("DecodeReader mismatch")
	}
}

func TestScannerTopLevel(t *testing.T) {
	data, err := Marshal(testTree(), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountFrames(data)
	if err != nil || n != 1 {
		t.Fatalf("CountFrames = %d, %v; want 1", n, err)
	}
	sc := NewScanner(data)
	if !sc.Next() || sc.Type() != FrameDocument {
		t.Fatalf("first frame = %v", sc.Type())
	}
	if sc.FrameSize() != len(data) {
		t.Errorf("FrameSize = %d, want %d", sc.FrameSize(), len(data))
	}
}

func TestScannerDescend(t *testing.T) {
	data, err := Marshal(testTree(), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(data)
	if !sc.Next() {
		t.Fatal(sc.Err())
	}
	docLevel, err := sc.Descend()
	if err != nil {
		t.Fatal(err)
	}
	if !docLevel.Next() || docLevel.Type() != FrameElement {
		t.Fatalf("document child = %v, %v", docLevel.Type(), docLevel.Err())
	}
	rootLevel, err := docLevel.Descend()
	if err != nil {
		t.Fatal(err)
	}
	var types []FrameType
	for rootLevel.Next() {
		types = append(types, rootLevel.Type())
	}
	if err := rootLevel.Err(); err != nil {
		t.Fatal(err)
	}
	want := []FrameType{FrameLeaf, FrameLeaf, FrameLeaf, FrameLeaf, FrameArray, FrameArray, FrameElement}
	if len(types) != len(want) {
		t.Fatalf("child frames = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("child frames = %v, want %v", types, want)
		}
	}
}

func TestScannerCannotDescendLeaf(t *testing.T) {
	data, err := Marshal(bxdm.NewLeaf(bxdm.LocalName("v"), int32(1)), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(data)
	if !sc.Next() {
		t.Fatal(sc.Err())
	}
	if _, err := sc.Descend(); err == nil {
		t.Error("descended into a leaf frame")
	}
}

// transcodeTree is testTree with string attribute values: xsi:type hints
// exist only for element content, so numeric attribute values degrade to
// strings across an XML hop (documented deviation, alongside the paper's own
// float-precision caveat in §4.2).
func transcodeTree() *bxdm.Document {
	doc := testTree()
	root := doc.Root().(*bxdm.Element)
	root.SetAttr(bxdm.LocalName("version"), bxdm.StringValue("2"))
	return doc
}

// viaXML transcodes a BXSA message to textual XML with type hints and back
// (paper §4.2 transcodability), returning the XML and the new BXSA bytes.
func viaXML(data []byte) (xml, back []byte, err error) {
	n, err := Parse(data)
	if err != nil {
		return nil, nil, err
	}
	if xml, err = xmltext.Marshal(n, xmltext.EncodeOptions{TypeHints: true}); err != nil {
		return nil, nil, err
	}
	doc, err := xmltext.Parse(xml, xmltext.DecodeOptions{RecoverTypes: true})
	if err != nil {
		return xml, nil, err
	}
	back, err = Marshal(doc, EncodeOptions{})
	return xml, back, err
}

func TestTranscodeBXSAToXMLAndBack(t *testing.T) {
	doc := transcodeTree()
	data, err := Marshal(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xml, data2, err := viaXML(data)
	if err != nil {
		t.Fatalf("transcode: %v\nXML: %s", err, xml)
	}
	back, err := Parse(data2)
	if err != nil {
		t.Fatal(err)
	}
	if !bxdm.Equal(doc, back) {
		t.Errorf("BXSA→XML→BXSA changed the model\nXML: %s", xml)
	}
}

func TestNumericAttributeDegradesAcrossXML(t *testing.T) {
	// Typed attribute values have no XML type-hint channel; they come back
	// as strings with the same lexical form. Assert the documented behaviour.
	e := bxdm.NewElement(bxdm.LocalName("e"))
	e.SetAttr(bxdm.LocalName("n"), bxdm.Int32Value(7))
	data, err := Marshal(e, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, data2, err := viaXML(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data2)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := back.(*bxdm.Document).Root().Attr(bxdm.LocalName("n"))
	if v.Type() != bxdm.TString || v.Text() != "7" {
		t.Errorf("attribute after transcode = %v %q", v.Type(), v.Text())
	}
}

func TestPropertyLeafRoundTrip(t *testing.T) {
	f := func(i32 int32, f64 float64, s string, b bool) bool {
		if math.IsNaN(f64) {
			f64 = 0
		}
		root := bxdm.NewElement(bxdm.LocalName("r"),
			bxdm.NewLeaf(bxdm.LocalName("a"), i32),
			bxdm.NewLeaf(bxdm.LocalName("b"), f64),
			bxdm.NewLeaf(bxdm.LocalName("c"), s),
			bxdm.NewLeaf(bxdm.LocalName("d"), b),
		)
		data, err := Marshal(root, EncodeOptions{})
		if err != nil {
			return false
		}
		back, err := Parse(data)
		if err != nil {
			return false
		}
		return bxdm.Equal(root, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyArrayRoundTrip(t *testing.T) {
	f := func(idx []int32, vals []float64) bool {
		root := bxdm.NewElement(bxdm.LocalName("r"),
			bxdm.NewArray(bxdm.LocalName("i"), idx),
			bxdm.NewArray(bxdm.LocalName("v"), vals),
		)
		data, err := Marshal(root, EncodeOptions{Order: xbs.BigEndian})
		if err != nil {
			return false
		}
		back, err := Parse(data)
		if err != nil {
			return false
		}
		return bxdm.Equal(root, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeepNesting(t *testing.T) {
	var n bxdm.Node = bxdm.NewLeaf(bxdm.Name("urn:deep", "bottom"), int32(7))
	for i := 0; i < 200; i++ {
		e := bxdm.NewElement(bxdm.Name("urn:deep", "level"), n)
		if i%10 == 0 {
			e.DeclareNamespace("d", "urn:deep")
		}
		n = e
	}
	outer := n.(*bxdm.Element)
	outer.DeclareNamespace("d", "urn:deep")
	roundTrip(t, outer, EncodeOptions{})
}

func BenchmarkMarshalArray1000(b *testing.B) {
	root := array1000Root()
	b.ReportAllocs()
	b.SetBytes(12000)
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(root, EncodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// array1000Root is the Table 1-shaped fixture: one int32 and one float64
// array of 1000 items each.
func array1000Root() *bxdm.Element {
	return bxdm.NewElement(bxdm.LocalName("d"),
		bxdm.NewArray(bxdm.LocalName("i"), make([]int32, 1000)),
		bxdm.NewArray(bxdm.LocalName("v"), make([]float64, 1000)),
	)
}

// flatRoot has 100 sibling arrays of 100 float64s: wide enough that
// hopping by Size and parsing everything differ by orders of magnitude.
func flatRoot() *bxdm.Element {
	root := bxdm.NewElement(bxdm.LocalName("d"))
	for i := 0; i < 100; i++ {
		root.Append(bxdm.NewArray(bxdm.LocalName("v"), make([]float64, 100)))
	}
	return root
}

// skipScan hops over the children of data's top-level frame by Size alone
// and returns how many it saw.
func skipScan(data []byte) (int, error) {
	sc := NewScanner(data)
	if !sc.Next() {
		return 0, sc.Err()
	}
	inner, err := sc.Descend()
	if err != nil {
		return 0, err
	}
	n := 0
	for inner.Next() {
		n++
	}
	return n, inner.Err()
}

func BenchmarkParseArray1000(b *testing.B) {
	data, err := Marshal(array1000Root(), EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkipScanVsFullParse(b *testing.B) {
	// The §4.1 claim: skipping frames via Size beats parsing them.
	data, err := Marshal(flatRoot(), EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("skip-scan", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if n, err := skipScan(data); n != 100 || err != nil {
				b.Fatalf("scanned %d, err %v", n, err)
			}
		}
	})
	b.Run("full-parse", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Parse(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
