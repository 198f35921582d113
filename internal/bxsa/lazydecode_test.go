package bxsa

import (
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/xbs"
)

// lazyDoc builds a document with many sibling arrays and one deeply
// namespaced target element.
func lazyDoc() *bxdm.Document {
	root := bxdm.NewElement(bxdm.PName("urn:lazy", "z", "root"))
	root.DeclareNamespace("z", "urn:lazy")
	for i := 0; i < 50; i++ {
		root.Append(bxdm.NewArray(bxdm.Name("urn:lazy", "bulk"), make([]float64, 200)))
	}
	target := bxdm.NewLeaf(bxdm.Name("urn:lazy", "target"), int32(4242))
	root.Append(target)
	return bxdm.NewDocument(root)
}

func TestScannerDecodeSelectedFrame(t *testing.T) {
	data, err := Marshal(lazyDoc(), EncodeOptions{})
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
	if !docLevel.Next() {
		t.Fatal(docLevel.Err())
	}
	inner, err := docLevel.Descend()
	if err != nil {
		t.Fatal(err)
	}
	// Skip to the last child (the target) without decoding the bulk.
	var last bool
	for inner.Next() {
		last = inner.Type() == FrameLeaf
	}
	if err := inner.Err(); err != nil {
		t.Fatal(err)
	}
	if !last {
		t.Fatal("did not end on the leaf frame")
	}
	n, err := inner.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	leaf, ok := n.(*bxdm.LeafElement)
	if !ok {
		t.Fatalf("decoded %T", n)
	}
	if leaf.Value.Int64() != 4242 {
		t.Errorf("value = %v", leaf.Value.Int64())
	}
	// The tokenized namespace reference resolved through the ancestor's
	// table collected during Descend.
	if leaf.Name.Space != "urn:lazy" {
		t.Errorf("namespace = %q, want urn:lazy", leaf.Name.Space)
	}
}

func TestScannerDecodeArrayFrameInPlace(t *testing.T) {
	// Array payload alignment is document-absolute; in-place decode must
	// honor it (this is why Decode works on the whole buffer at the frame's
	// true offset).
	data, err := Marshal(lazyDoc(), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(data)
	sc.Next()
	docLevel, err := sc.Descend()
	if err != nil {
		t.Fatal(err)
	}
	docLevel.Next()
	inner, err := docLevel.Descend()
	if err != nil {
		t.Fatal(err)
	}
	if !inner.Next() {
		t.Fatal(inner.Err())
	}
	n, err := inner.Decode()
	if err != nil {
		t.Fatalf("Decode first array: %v", err)
	}
	arr, ok := n.(*bxdm.ArrayElement)
	if !ok || arr.Data.Len() != 200 {
		t.Fatalf("decoded %T / %v", n, arr)
	}
}

func TestScannerDecodeBeforeNext(t *testing.T) {
	sc := NewScanner([]byte{1, 2, 3})
	if _, err := sc.Decode(); err == nil {
		t.Error("Decode before Next succeeded")
	}
}

// scanDecodeOne hops to the leaf children of data's root element by Size
// and decodes only those in place.
func scanDecodeOne(data []byte) error {
	sc := NewScanner(data)
	sc.Next()
	dl, err := sc.Descend()
	if err != nil {
		return err
	}
	dl.Next()
	inner, err := dl.Descend()
	if err != nil {
		return err
	}
	for inner.Next() {
		if inner.Type() != FrameLeaf {
			continue
		}
		if _, err := inner.Decode(); err != nil {
			return err
		}
	}
	return inner.Err()
}

// BenchmarkSelectiveDecode quantifies the payoff: decode one leaf at the
// end of a document versus parsing everything.
func BenchmarkSelectiveDecode(b *testing.B) {
	data, err := Marshal(lazyDoc(), EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scan-and-decode-one", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := scanDecodeOne(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse-everything", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Parse(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestScannerDescendRejectsTruncatedAttribute is a hostile 11-byte element
// frame: two attributes declared, the first a float64 whose value bytes are
// missing. Descend must reject it, as Parse does, rather than read past the
// frame.
func TestScannerDescendRejectsTruncatedAttribute(t *testing.T) {
	body := []byte{
		0,         // no namespace table
		0, 1, 'e', // element name "e", no namespace
		2,         // two attributes
		0, 1, 'a', // attribute name "a"
		byte(bxdm.TFloat64), // ... and no value bytes
	}
	data := AppendFrame(nil, xbs.LittleEndian, FrameElement, body)
	if len(data) != 11 {
		t.Fatalf("frame is %d bytes, want 11", len(data))
	}
	if _, err := Parse(data); err == nil {
		t.Error("Parse accepted the frame")
	}
	sc := NewScanner(data)
	if !sc.Next() {
		t.Fatal(sc.Err())
	}
	if _, err := sc.Descend(); err == nil {
		t.Error("Descend accepted the frame")
	}
}
