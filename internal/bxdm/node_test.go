package bxdm

import (
	"testing"
)

func sampleTree() *Document {
	root := NewElement(PName("urn:app", "a", "data"))
	root.DeclareNamespace("a", "urn:app")
	root.SetAttr(LocalName("version"), StringValue("2"))
	root.Append(
		NewLeaf(Name("urn:app", "count"), int32(3)),
		NewLeaf(Name("urn:app", "mean"), 2.75),
		NewArray(Name("urn:app", "values"), []float64{1, 2, 3.5}),
		NewElement(Name("urn:app", "meta"),
			NewText("hello "),
			&Comment{Data: "c"},
			&PI{Target: "app", Data: "hint"},
			NewText("world"),
		),
	)
	return NewDocument(root)
}

func TestKinds(t *testing.T) {
	cases := []struct {
		n    Node
		k    Kind
		elem bool
	}{
		{&Document{}, KindDocument, false},
		{&Element{}, KindElement, true},
		{&LeafElement{}, KindLeafElement, true},
		{&ArrayElement{}, KindArrayElement, true},
		{&Text{}, KindText, false},
		{&Comment{}, KindComment, false},
		{&PI{}, KindPI, false},
	}
	for _, c := range cases {
		if c.n.Kind() != c.k {
			t.Errorf("Kind = %v, want %v", c.n.Kind(), c.k)
		}
		if c.n.Kind().IsElement() != c.elem {
			t.Errorf("%v.IsElement() = %v", c.k, !c.elem)
		}
	}
}

func TestDocumentRoot(t *testing.T) {
	d := sampleTree()
	r := d.Root()
	if r == nil || r.ElemName().Local != "data" {
		t.Fatalf("Root = %v", r)
	}
	empty := &Document{Children: []Node{&Comment{Data: "only"}}}
	if empty.Root() != nil {
		t.Error("Root of element-less document should be nil")
	}
}

func TestAttrAccessors(t *testing.T) {
	e := NewElement(LocalName("e"))
	if _, ok := e.Attr(LocalName("x")); ok {
		t.Error("missing attribute reported present")
	}
	e.SetAttr(LocalName("x"), Int32Value(1))
	e.SetAttr(LocalName("x"), Int32Value(2)) // replace
	e.SetAttr(LocalName("y"), StringValue("z"))
	if len(e.Attributes) != 2 {
		t.Fatalf("attr count = %d, want 2", len(e.Attributes))
	}
	if v, ok := e.Attr(LocalName("x")); !ok || v.Int64() != 2 {
		t.Errorf("x = %v, %v", v, ok)
	}
}

func TestDeclareNamespaceReplaces(t *testing.T) {
	e := NewElement(LocalName("e"))
	e.DeclareNamespace("p", "urn:a")
	e.DeclareNamespace("p", "urn:b")
	e.DeclareNamespace("q", "urn:c")
	if len(e.NamespaceDecls) != 2 {
		t.Fatalf("decl count = %d, want 2", len(e.NamespaceDecls))
	}
	if e.NamespaceDecls[0].URI != "urn:b" {
		t.Errorf("redeclared prefix p = %q, want urn:b", e.NamespaceDecls[0].URI)
	}
}

func TestFirstChildAndChildElements(t *testing.T) {
	d := sampleTree()
	root := d.Root().(*Element)
	if got := len(root.ChildElements()); got != 4 {
		t.Fatalf("ChildElements = %d, want 4", got)
	}
	c := root.FirstChild(Name("urn:app", "mean"))
	if c == nil || c.Kind() != KindLeafElement {
		t.Fatalf("FirstChild(mean) = %v", c)
	}
	if root.FirstChild(Name("urn:app", "nope")) != nil {
		t.Error("FirstChild of absent name should be nil")
	}
}

func TestTextContent(t *testing.T) {
	d := sampleTree()
	root := d.Root().(*Element)
	meta := root.FirstChild(Name("urn:app", "meta")).(*Element)
	if got := meta.TextContent(); got != "hello world" {
		t.Errorf("TextContent = %q", got)
	}
	arr := root.FirstChild(Name("urn:app", "values")).(*ArrayElement)
	wrapped := NewElement(LocalName("w"), arr)
	if got := wrapped.TextContent(); got != "1 2 3.5" {
		t.Errorf("array TextContent = %q", got)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := sampleTree()
	b := sampleTree()
	if !Equal(a, b) {
		t.Fatal("identical trees not Equal")
	}
	c := Clone(a)
	if !Equal(a, c) {
		t.Fatal("Clone not Equal to original")
	}
	// Mutating the clone must not affect the original.
	cr := c.(*Document).Root().(*Element)
	cr.SetAttr(LocalName("version"), StringValue("3"))
	items, _ := Items[float64](cr.FirstChild(Name("urn:app", "values")).(*ArrayElement).Data)
	items[0] = 99 // Clone deep-copies arrays, so this hits the copy
	if Equal(a, c) {
		t.Fatal("mutated clone still Equal")
	}
	if v, _ := a.Root().Attr(LocalName("version")); v.Text() != "2" {
		t.Error("original mutated through clone")
	}
	orig, _ := Items[float64](a.Root().(*Element).FirstChild(Name("urn:app", "values")).(*ArrayElement).Data)
	if orig[0] != 1 {
		t.Error("original array mutated through clone")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	base := sampleTree()
	mutations := []func(*Document){
		func(d *Document) { d.Root().(*Element).Name.Local = "other" },
		func(d *Document) { d.Root().(*Element).SetAttr(LocalName("extra"), Int32Value(1)) },
		func(d *Document) { d.Root().(*Element).Children = d.Root().(*Element).Children[:2] },
		func(d *Document) {
			leaf := d.Root().(*Element).FirstChild(Name("urn:app", "count")).(*LeafElement)
			leaf.Value = Int32Value(4)
		},
		func(d *Document) {
			leaf := d.Root().(*Element).FirstChild(Name("urn:app", "count")).(*LeafElement)
			leaf.Value = Int64Value(3) // same number, different type
		},
		func(d *Document) {
			arr := d.Root().(*Element).FirstChild(Name("urn:app", "values")).(*ArrayElement)
			items, _ := Items[float64](arr.Data)
			items[2] = 3.25
		},
		func(d *Document) { d.Root().(*Element).NamespaceDecls[0].URI = "urn:other" },
	}
	for i, mut := range mutations {
		m := Clone(base).(*Document)
		mut(m)
		if Equal(base, m) {
			t.Errorf("mutation %d not detected by Equal", i)
		}
	}
}

func TestWalkOrderAndSkip(t *testing.T) {
	d := sampleTree()
	var kinds []Kind
	if err := Walk(d, func(n Node) error {
		kinds = append(kinds, n.Kind())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindDocument, KindElement, KindLeafElement, KindLeafElement,
		KindArrayElement, KindElement, KindText, KindComment, KindPI, KindText}
	if len(kinds) != len(want) {
		t.Fatalf("visited %d nodes, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("visit order %v, want %v", kinds, want)
		}
	}

	// Pruning at the root element yields just document + element.
	var count int
	if err := Walk(d, func(n Node) error {
		count++
		if n.Kind() == KindElement {
			return SkipChildren
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("pruned walk visited %d, want 2", count)
	}
}

type countingVisitor struct {
	enters, leaves, leafs, arrays, texts, comments, pis int
}

func (v *countingVisitor) EnterDocument(*Document) error { v.enters++; return nil }
func (v *countingVisitor) LeaveDocument(*Document) error { v.leaves++; return nil }
func (v *countingVisitor) EnterElement(*Element) error   { v.enters++; return nil }
func (v *countingVisitor) LeaveElement(*Element) error   { v.leaves++; return nil }
func (v *countingVisitor) VisitLeaf(*LeafElement) error  { v.leafs++; return nil }
func (v *countingVisitor) VisitArray(*ArrayElement) error {
	v.arrays++
	return nil
}
func (v *countingVisitor) VisitText(*Text) error       { v.texts++; return nil }
func (v *countingVisitor) VisitComment(*Comment) error { v.comments++; return nil }
func (v *countingVisitor) VisitPI(*PI) error           { v.pis++; return nil }

func TestAcceptVisitor(t *testing.T) {
	var v countingVisitor
	if err := Accept(sampleTree(), &v); err != nil {
		t.Fatal(err)
	}
	if v.enters != 3 || v.leaves != 3 { // document, root, meta
		t.Errorf("enters/leaves = %d/%d, want 3/3", v.enters, v.leaves)
	}
	if v.leafs != 2 || v.arrays != 1 || v.texts != 2 || v.comments != 1 || v.pis != 1 {
		t.Errorf("leaf/array/text/comment/pi = %d/%d/%d/%d/%d",
			v.leafs, v.arrays, v.texts, v.comments, v.pis)
	}
}

func TestQName(t *testing.T) {
	q := Name("urn:x", "local")
	if !q.Matches(PName("urn:x", "pfx", "local")) {
		t.Error("Matches should ignore prefix")
	}
	if q.Matches(Name("urn:y", "local")) || q.Matches(Name("urn:x", "other")) {
		t.Error("Matches too lax")
	}
	if q.String() != "{urn:x}local" || LocalName("a").String() != "a" {
		t.Error("String format wrong")
	}
}
