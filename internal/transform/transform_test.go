package transform

import (
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/bxsa"
	"bxsoap/internal/xmltext"
)

func parse(t *testing.T, src string) *bxdm.Document {
	t.Helper()
	doc, err := xmltext.Parse([]byte(src), xmltext.DecodeOptions{DropInterElementWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestRewriteKeepIsDeepCopy(t *testing.T) {
	doc := parse(t, `<r a="1"><c>text</c></r>`)
	out := Rewrite(doc, func(bxdm.Node) Action { return Keep() })
	if !bxdm.Equal(doc, out) {
		t.Fatal("identity rewrite changed the tree")
	}
	out.(*bxdm.Document).Root().(*bxdm.Element).SetAttr(bxdm.LocalName("a"), bxdm.StringValue("2"))
	if v, _ := doc.Root().Attr(bxdm.LocalName("a")); v.Text() != "1" {
		t.Fatal("rewrite shares state with input")
	}
}

func TestRewriteRemoveAndReplace(t *testing.T) {
	doc := parse(t, `<r><kill/><keep/><swap/></r>`)
	out := Rewrite(doc, func(n bxdm.Node) Action {
		el, ok := n.(*bxdm.Element)
		if !ok {
			return Keep()
		}
		switch el.Name.Local {
		case "kill":
			return Replace()
		case "swap":
			return Replace(bxdm.NewLeaf(bxdm.LocalName("swapped"), int32(1)),
				bxdm.NewText("tail"))
		default:
			return Keep()
		}
	})
	root := out.(*bxdm.Document).Root().(*bxdm.Element)
	if len(root.Children) != 3 {
		t.Fatalf("children = %d, want keep+swapped+tail", len(root.Children))
	}
	if root.Children[0].(*bxdm.Element).Name.Local != "keep" {
		t.Error("keep lost")
	}
	if root.Children[1].Kind() != bxdm.KindLeafElement {
		t.Error("replacement missing")
	}
}

func TestRetype(t *testing.T) {
	doc := parse(t, `<r><i>42</i><f>2.5</f><b>true</b><s>hello</s><pad> 7 </pad><mixed>1<x/>2</mixed></r>`)
	out := Retype(doc).(*bxdm.Document)
	root := out.Root().(*bxdm.Element)
	get := func(name string) bxdm.Node {
		for _, c := range root.Children {
			if el, ok := c.(bxdm.ElementNode); ok && el.ElemName().Local == name {
				return c
			}
		}
		return nil
	}
	if l, ok := get("i").(*bxdm.LeafElement); !ok || l.Value.Type() != bxdm.TInt64 || l.Value.Int64() != 42 {
		t.Errorf("i = %v", get("i"))
	}
	if l, ok := get("f").(*bxdm.LeafElement); !ok || l.Value.Type() != bxdm.TFloat64 || l.Value.Float64() != 2.5 {
		t.Errorf("f = %v", get("f"))
	}
	if l, ok := get("b").(*bxdm.LeafElement); !ok || !l.Value.Bool() {
		t.Errorf("b = %v", get("b"))
	}
	if get("s").Kind() != bxdm.KindElement {
		t.Error("string content wrongly retyped")
	}
	if l, ok := get("pad").(*bxdm.LeafElement); !ok || l.Value.Int64() != 7 {
		t.Errorf("padded token not retyped: %v", get("pad"))
	}
	if get("mixed").Kind() != bxdm.KindElement {
		t.Error("mixed content wrongly retyped")
	}
}

func TestPromoteArrays(t *testing.T) {
	doc := parse(t, `<r><v>1</v><v>2</v><v>3</v><other/><v>4</v></r>`)
	typed := Retype(doc)
	out := PromoteArrays(typed, 3).(*bxdm.Document)
	root := out.Root().(*bxdm.Element)
	if len(root.Children) != 3 {
		t.Fatalf("children = %d, want array+other+leaf", len(root.Children))
	}
	arr, ok := root.Children[0].(*bxdm.ArrayElement)
	if !ok {
		t.Fatalf("first child = %T", root.Children[0])
	}
	items, ok := bxdm.Items[int64](arr.Data)
	if !ok || len(items) != 3 || items[2] != 3 {
		t.Errorf("promoted items = %v", arr.Data)
	}
	// The short trailing run stays a leaf.
	if root.Children[2].Kind() != bxdm.KindLeafElement {
		t.Errorf("trailing leaf = %v", root.Children[2].Kind())
	}
}

func TestPromoteArraysSkipsAttributedLeaves(t *testing.T) {
	root := bxdm.NewElement(bxdm.LocalName("r"))
	for i := 0; i < 4; i++ {
		l := bxdm.NewLeaf(bxdm.LocalName("v"), int64(i))
		l.SetAttr(bxdm.LocalName("id"), bxdm.Int32Value(int32(i)))
		root.Append(l)
	}
	out := PromoteArrays(root, 2).(*bxdm.Element)
	if len(out.Children) != 4 {
		t.Error("attributed leaves were packed (attributes would be lost)")
	}
}

// The paper's motivating pipeline: a legacy textual XML document with
// repeated numeric elements becomes a typed, packed tree whose BXSA
// encoding approaches native size.
func TestBXDMificationShrinksBXSA(t *testing.T) {
	src := `<data>`
	for i := 0; i < 500; i++ {
		src += `<v>` + itoa(i) + `.5</v>`
	}
	src += `</data>`
	doc := parse(t, src)

	genericBin, err := bxsa.Marshal(doc, bxsa.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	upgraded := PromoteArrays(Retype(doc), 4)
	typedBin, err := bxsa.Marshal(upgraded, bxsa.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(typedBin) >= len(genericBin)*3/5 {
		t.Errorf("bXDM-ification saved too little: generic %d B, typed %d B",
			len(genericBin), len(typedBin))
	}
	// And the upgraded tree round-trips through BXSA.
	back, err := bxsa.Parse(typedBin)
	if err != nil {
		t.Fatal(err)
	}
	if !bxdm.Equal(upgraded, back) {
		t.Error("upgraded tree does not round trip")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
