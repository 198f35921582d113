package bxsa

import (
	"bytes"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/shape"
	"bxsoap/internal/xbs"
)

// tmplDoc builds a document with one element holding a numeric leaf, a
// bool leaf, a string leaf, and a packed array — all the slot kinds.
func tmplDoc(n int32, flag bool, s string, items []float64) *bxdm.Document {
	e := bxdm.NewElement(bxdm.PName("urn:t", "t", "op"))
	e.DeclareNamespace("t", "urn:t")
	e.Append(
		bxdm.NewLeaf(bxdm.Name("urn:t", "n"), n),
		bxdm.NewLeaf(bxdm.Name("urn:t", "flag"), flag),
		bxdm.NewLeafValue(bxdm.Name("urn:t", "s"), bxdm.StringValue(s)),
		bxdm.NewArray(bxdm.Name("urn:t", "a"), items),
		bxdm.NewText("sep"),
	)
	return bxdm.NewDocument(e)
}

func docVars(t *testing.T, doc *bxdm.Document) []shape.Var {
	t.Helper()
	var vars []shape.Var
	root := doc.Root().(*bxdm.Element)
	if _, ok := shape.Fingerprint(nil, []bxdm.Node{root}, &vars); !ok {
		t.Fatal("fingerprint rejected document")
	}
	return vars
}

func TestTemplateEncodeMatchesGeneric(t *testing.T) {
	for _, order := range []xbs.ByteOrder{xbs.LittleEndian, xbs.BigEndian} {
		opts := EncodeOptions{Order: order}
		tmpl, err := CompileTemplate(tmplDoc(1, false, "..", []float64{0, 0, 0}), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(tmpl.slots) != 4 {
			t.Fatalf("slots = %d, want 4", len(tmpl.slots))
		}
		other := tmplDoc(-7, true, "hi", []float64{1.5, -2.5, 3})
		want, err := Marshal(other, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tmpl.AppendEncode(nil, docVars(t, other))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("order %v: templated encode differs from generic:\n got %x\nwant %x", order, got, want)
		}
		if tmpl.Size() != len(want) {
			t.Fatalf("Size() = %d, want %d", tmpl.Size(), len(want))
		}
	}
}

func TestTemplateMatchExtractsVars(t *testing.T) {
	tmpl, err := CompileTemplate(tmplDoc(0, false, "xy", []float64{0, 0}), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := tmplDoc(42, true, "ok", []float64{9.5, -1})
	data, err := Marshal(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var vars []shape.Var
	if !tmpl.Match(data, &vars) {
		t.Fatal("same-shape message did not match")
	}
	want := docVars(t, doc)
	if len(vars) != len(want) {
		t.Fatalf("got %d vars, want %d", len(vars), len(want))
	}
	if vars[0].Value.Int64() != 42 || !vars[1].Value.Bool() || vars[2].Value.Text() != "ok" {
		t.Fatalf("leaf vars wrong: %+v", vars[:3])
	}
	if !vars[3].Data.EqualData(want[3].Data) {
		t.Fatalf("array var = %v", vars[3].Data)
	}
}

func TestTemplateMatchRejectsOtherShapes(t *testing.T) {
	tmpl, err := CompileTemplate(tmplDoc(0, false, "xy", []float64{0, 0}), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var vars []shape.Var
	// Different string length → different size → no match.
	d1, _ := Marshal(tmplDoc(0, false, "xyz", []float64{0, 0}), EncodeOptions{})
	if tmpl.Match(d1, &vars) {
		t.Error("different string length matched")
	}
	// Same size, different static content (element name) → no match.
	doc := tmplDoc(0, false, "xy", []float64{0, 0})
	doc.Root().(*bxdm.Element).Children[2].(*bxdm.LeafElement).Name.Local = "z"
	d2, _ := Marshal(doc, EncodeOptions{})
	pad, _ := Marshal(tmplDoc(0, false, "xy", []float64{0, 0}), EncodeOptions{})
	if len(d2) == len(pad) && tmpl.Match(d2, &vars) {
		t.Error("different static bytes matched")
	}
	// A corrupted bool byte must be rejected, as the generic decoder does.
	d3, _ := Marshal(tmplDoc(0, false, "xy", []float64{0, 0}), EncodeOptions{})
	if !tmpl.Match(d3, &vars) {
		t.Fatal("baseline did not match")
	}
	vars = vars[:0]
	// Find the bool window via a fresh compile and flip it to 7.
	for i := range tmpl.slots {
		if tmpl.slots[i].code == bxdm.TBool {
			d3[tmpl.slots[i].win.Off] = 7
		}
	}
	if tmpl.Match(d3, &vars) {
		t.Error("invalid bool byte matched")
	}
	if len(vars) != 0 {
		t.Errorf("failed match left %d vars behind", len(vars))
	}
}

func TestTemplateAppendEncodeRejectsMismatchedVars(t *testing.T) {
	tmpl, err := CompileTemplate(tmplDoc(0, false, "xy", []float64{0, 0}), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.AppendEncode(nil, nil); err == nil {
		t.Error("wrong var count accepted")
	}
	vars := docVars(t, tmplDoc(0, false, "xy", []float64{0, 0}))
	vars[2] = shape.Var{Value: bxdm.StringValue("wrong length")}
	if _, err := tmpl.AppendEncode(nil, vars); err == nil {
		t.Error("wrong string length accepted")
	}
	vars = docVars(t, tmplDoc(0, false, "xy", []float64{0, 0}))
	vars[3] = shape.Var{Data: bxdm.Array[float64]{Items: []float64{1}}}
	if _, err := tmpl.AppendEncode(nil, vars); err == nil {
		t.Error("wrong array count accepted")
	}
}
