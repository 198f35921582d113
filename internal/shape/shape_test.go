package shape

import (
	"testing"

	"bxsoap/internal/bxdm"
)

// tree builds a small mixed envelope body: an element with a namespace
// declaration, an attribute, two leaves, an array, and a text node.
func tree(idx []int32, vals []float64, name string, n int32) []bxdm.Node {
	e := bxdm.NewElement(bxdm.PName("urn:t", "t", "data"))
	e.DeclareNamespace("t", "urn:t")
	e.SetAttr(bxdm.Name("", "id"), bxdm.StringValue("fixed"))
	e.Append(
		bxdm.NewLeaf(bxdm.Name("urn:t", "count"), n),
		bxdm.NewLeafValue(bxdm.Name("urn:t", "name"), bxdm.StringValue(name)),
		bxdm.NewArray(bxdm.Name("urn:t", "index"), idx),
		bxdm.NewArray(bxdm.Name("urn:t", "values"), vals),
		bxdm.NewText(" static "),
	)
	return []bxdm.Node{e}
}

func TestFingerprintStableAcrossValues(t *testing.T) {
	var v1, v2 []Var
	k1, ok := Fingerprint(nil, tree([]int32{1, 2}, []float64{3, 4}, "ab", 7), &v1)
	if !ok {
		t.Fatal("fingerprint rejected supported tree")
	}
	k2, ok := Fingerprint(nil, tree([]int32{9, 8}, []float64{-1, 2.5}, "xy", -3), &v2)
	if !ok || k1 != k2 {
		t.Fatalf("same shape hashed differently: %v vs %v", k1, k2)
	}
	if len(v1) != 4 || len(v2) != 4 {
		t.Fatalf("want 4 vars, got %d and %d", len(v1), len(v2))
	}
	if v1[0].Value.Int64() != 7 || v2[0].Value.Int64() != -3 {
		t.Fatalf("leaf slot order wrong: %v %v", v1[0].Value, v2[0].Value)
	}
	if v1[2].Data.Len() != 2 || v1[2].Data.Type() != bxdm.TInt32 {
		t.Fatalf("array slot wrong: %v", v1[2].Data)
	}
}

func TestFingerprintSeparatesShapes(t *testing.T) {
	base, ok := Fingerprint(nil, tree([]int32{1}, []float64{2}, "ab", 1), nil)
	if !ok {
		t.Fatal("fingerprint rejected supported tree")
	}
	variants := map[string][]bxdm.Node{
		"string length": tree([]int32{1}, []float64{2}, "abc", 1),
		"array count":   tree([]int32{1, 2}, []float64{2}, "ab", 1),
	}
	other := tree([]int32{1}, []float64{2}, "ab", 1)
	other[0].(*bxdm.Element).SetAttr(bxdm.Name("", "id"), bxdm.StringValue("moved"))
	variants["attr value"] = other
	renamed := bxdm.NewElement(bxdm.PName("urn:t", "t", "data2"))
	variants["element name"] = []bxdm.Node{renamed}
	header := tree([]int32{1}, []float64{2}, "ab", 1)
	for what, body := range variants {
		k, ok := Fingerprint(nil, body, nil)
		if !ok {
			t.Fatalf("%s: fingerprint rejected tree", what)
		}
		if k == base {
			t.Errorf("%s: shape change did not change key", what)
		}
	}
	// Header/body boundary matters: same nodes on the other side of the
	// boundary must not collide.
	kh, _ := Fingerprint(header, nil, nil)
	kb, _ := Fingerprint(nil, header, nil)
	if kh == kb {
		t.Error("header/body placement did not change key")
	}
}

func TestFingerprintRejectsUnsupported(t *testing.T) {
	bad := []bxdm.Node{bxdm.NewLeafValue(bxdm.Name("", "x"), bxdm.Value{})}
	if _, ok := Fingerprint(nil, bad, nil); ok {
		t.Error("invalid leaf value accepted")
	}
	if _, ok := Fingerprint(nil, []bxdm.Node{&bxdm.ArrayElement{}}, nil); ok {
		t.Error("nil array data accepted")
	}
}

func TestProtoInstantiate(t *testing.T) {
	protoBody := tree([]int32{0, 0}, []float64{0, 0}, "..", 0)
	p, err := NewProto(nil, protoBody)
	if err != nil {
		t.Fatal(err)
	}
	if p.n.slots != 4 {
		t.Fatalf("slots = %d, want 4", p.n.slots)
	}
	want := tree([]int32{4, 5}, []float64{6.5, -7}, "hi", 42)
	var vars []Var
	if _, ok := Fingerprint(nil, want, &vars); !ok {
		t.Fatal("fingerprint rejected tree")
	}
	_, body, err := p.Instantiate(vars)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 1 || !bxdm.Equal(body[0], want[0]) {
		t.Fatalf("instantiated tree differs:\n%v", body)
	}
	// The clone must not share attribute backing with the proto: mutating
	// the instance must leave the prototype untouched.
	body[0].(*bxdm.Element).SetAttr(bxdm.Name("", "id"), bxdm.StringValue("mutated"))
	if got, _ := protoBody[0].(*bxdm.Element).Attr(bxdm.Name("", "id")); got.Text() != "fixed" {
		t.Fatalf("instance mutation leaked into proto: %q", got.Text())
	}
}

func TestProtoInstantiateRejectsMismatch(t *testing.T) {
	p, err := NewProto(nil, tree([]int32{0}, []float64{0}, "..", 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Instantiate(nil); err == nil {
		t.Error("wrong var count accepted")
	}
	var vars []Var
	Fingerprint(nil, tree([]int32{0}, []float64{0}, "..", 0), &vars)
	vars[0], vars[1] = vars[1], vars[0] // leaf type mismatch
	if _, _, err := p.Instantiate(vars); err == nil {
		t.Error("slot type mismatch accepted")
	}
}
