package bxsa

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/xbs"
)

// update rewrites the wire corpus from the current encoder. Use it only for
// an intentional wire-format change: the corpus exists to catch
// unintentional ones.
var update = flag.Bool("update", false, "rewrite testdata/wire/bxsa from the encoder")

// wireCorpusDir holds one .bxsa file per wireCases entry.
var wireCorpusDir = filepath.Join("..", "..", "testdata", "wire", "bxsa")

type wireCase struct {
	name  string
	node  bxdm.Node
	order xbs.ByteOrder
}

var orders = []struct {
	suffix string
	order  xbs.ByteOrder
}{{"le", xbs.LittleEndian}, {"be", xbs.BigEndian}}

// wireCases generates the trees whose encodings the corpus freezes.
func wireCases() []wireCase {
	var cs []wireCase
	for _, o := range orders {
		cs = append(cs,
			wireCase{"tree-" + o.suffix, testTree(), o.order},
			wireCase{"transcode-" + o.suffix, transcodeTree(), o.order})
	}
	for _, v := range []bxdm.Value{
		bxdm.Int8Value(-8), bxdm.Int16Value(-1600), bxdm.Int32Value(-1 << 30),
		bxdm.Int64Value(-1 << 60), bxdm.Uint8Value(200), bxdm.Uint16Value(60000),
		bxdm.Uint32Value(1 << 31), bxdm.Uint64Value(1 << 63), bxdm.Float32Value(-0.5),
		bxdm.Float64Value(math.Pi), bxdm.BoolValue(true), bxdm.StringValue("ünïcode"),
	} {
		name := fmt.Sprintf("leaf-%v", v.Type())
		cs = append(cs, wireCase{name, bxdm.NewLeafValue(bxdm.LocalName("v"), v), xbs.LittleEndian})
	}
	// Counts 0, 1 and 7 per item type; the names shift the packed data so
	// that both the leading pad and the trailing slack are non-empty.
	arrays := []func(n int) bxdm.ArrayData{
		func(n int) bxdm.ArrayData { return bxdm.Array[int8]{Items: ramp[int8](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[int16]{Items: ramp[int16](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[int32]{Items: ramp[int32](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[int64]{Items: ramp[int64](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[uint8]{Items: ramp[uint8](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[uint16]{Items: ramp[uint16](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[uint32]{Items: ramp[uint32](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[uint64]{Items: ramp[uint64](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[float32]{Items: ramp[float32](n)} },
		func(n int) bxdm.ArrayData { return bxdm.Array[float64]{Items: ramp[float64](n)} },
	}
	for _, o := range orders {
		for _, mk := range arrays {
			for _, n := range []int{0, 1, 7} {
				d := mk(n)
				name := fmt.Sprintf("array-%v-%d-%s", d.Type(), n, o.suffix)
				cs = append(cs, wireCase{name, bxdm.NewArrayData(bxdm.LocalName("a"+d.Type().String()), d), o.order})
			}
		}
	}
	cs = append(cs,
		wireCase{"namespaced", namespacedTree(), xbs.LittleEndian},
		wireCase{"chardata", bxdm.NewText("free text"), xbs.LittleEndian},
		wireCase{"comment", &bxdm.Comment{Data: "a comment"}, xbs.LittleEndian},
		wireCase{"pi", &bxdm.PI{Target: "proc", Data: "inst"}, xbs.LittleEndian})
	return cs
}

// ramp returns n items 1, -2, 3, ... (wrapping for unsigned types).
func ramp[T xbs.Primitive](n int) []T {
	out := make([]T, n)
	for i := range out {
		v := T(i + 1)
		if i%2 == 1 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// namespacedTree nests three namespace tables so that the innermost leaf's
// name and attribute reference tables two and one levels up.
func namespacedTree() *bxdm.Document {
	leaf := bxdm.NewLeaf(bxdm.Name("urn:a", "leaf"), int32(7))
	leaf.SetAttr(bxdm.Name("urn:b", "unit"), bxdm.StringValue("m"))
	inner := bxdm.NewElement(bxdm.Name("urn:c", "inner"), leaf)
	inner.DeclareNamespace("c", "urn:c")
	mid := bxdm.NewElement(bxdm.Name("urn:b", "mid"), inner)
	mid.DeclareNamespace("b", "urn:b")
	root := bxdm.NewElement(bxdm.Name("urn:a", "root"), mid)
	root.DeclareNamespace("a", "urn:a")
	return bxdm.NewDocument(root)
}

// TestWireCorpus pins the decoder to bytes frozen from the encoder: every
// corpus file must decode, through every read path, to its generator's
// tree, and the tree must re-encode to the identical bytes.
func TestWireCorpus(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(wireCorpusDir, c.name+".bxsa")
			opts := EncodeOptions{Order: c.order}
			if *update {
				data, err := Marshal(c.node, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(wireCorpusDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update only for an intentional wire change)", err)
			}
			parsed, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if !bxdm.Equal(parsed, c.node) {
				t.Fatal("Parse: tree differs from the generator's")
			}
			streamed, err := decodeOneByte(data)
			if err != nil {
				t.Fatalf("DecodeReader: %v", err)
			}
			if !bxdm.Equal(streamed, c.node) {
				t.Fatal("DecodeReader: tree differs from the generator's")
			}
			if err := scanWalk(NewScanner(data), []bxdm.Node{c.node}); err != nil {
				t.Fatalf("Scanner: %v", err)
			}
			again, err := MarshalAppend(nil, parsed, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatal("re-encoding the decoded tree changed the bytes")
			}
		})
	}
}

// scanWalk walks every frame with a Scanner, the way a selective reader
// does: Next at each level, Decode on every frame, Descend into every
// document and element frame. When want is non-nil, each frame's in-place
// decode must equal the corresponding node; levels below a decoded frame
// are checked against that frame's own children. It keeps walking past
// errors, so hostile input reaches every Scanner method, and returns the
// first error.
func scanWalk(sc *Scanner, want []bxdm.Node) error {
	var first error
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	i := 0
	for ; sc.Next(); i++ {
		n, err := sc.Decode()
		switch {
		case err != nil:
			note(err)
		case want != nil && (i >= len(want) || !bxdm.Equal(n, want[i])):
			note(fmt.Errorf("frame %d: in-place decode differs", i))
		}
		if t := sc.Type(); t != FrameDocument && t != FrameElement {
			continue
		}
		inner, err := sc.Descend()
		if err != nil {
			note(err)
			continue
		}
		var kids []bxdm.Node
		switch x := n.(type) {
		case *bxdm.Document:
			kids = x.Children
		case *bxdm.Element:
			kids = x.Children
		}
		note(scanWalk(inner, kids))
	}
	note(sc.Err())
	if first == nil && want != nil && i != len(want) {
		return fmt.Errorf("scanned %d frames, want %d", i, len(want))
	}
	return first
}
