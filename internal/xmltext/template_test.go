package xmltext

import (
	"bytes"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/shape"
)

func tmplDoc(n int32, s string, items []float64) *bxdm.Document {
	e := bxdm.NewElement(bxdm.PName("urn:t", "t", "op"))
	e.DeclareNamespace("t", "urn:t")
	e.Append(
		bxdm.NewLeaf(bxdm.Name("urn:t", "n"), n),
		bxdm.NewLeafValue(bxdm.Name("urn:t", "s"), bxdm.StringValue(s)),
		bxdm.NewArray(bxdm.Name("urn:t", "a"), items),
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

var hinted = EncodeOptions{TypeHints: true}

func TestTemplateEncodeMatchesGeneric(t *testing.T) {
	tmpl, err := CompileTemplate(tmplDoc(0, "..", []float64{0, 0}), hinted)
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl.slots) != 3 {
		t.Fatalf("slots = %d, want 3", len(tmpl.slots))
	}
	// Same shape, hostile values: the string needs escaping (&, <, >, CR)
	// but keeps the same raw length as the two-byte prototype string.
	for _, doc := range []*bxdm.Document{
		tmplDoc(42, "a&", []float64{1.5, -2}),
		tmplDoc(-1, "<\r", []float64{0.001, 9e9}),
	} {
		want, err := Marshal(doc, hinted)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tmpl.AppendEncode(nil, docVars(t, doc))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("templated encode differs:\n got %s\nwant %s", got, want)
		}
	}
}

func TestTemplateMatchAgreesWithParser(t *testing.T) {
	tmpl, err := CompileTemplate(tmplDoc(0, "..", []float64{0, 0}), hinted)
	if err != nil {
		t.Fatal(err)
	}
	doc := tmplDoc(7, "ok", []float64{2.25, -8})
	data, err := Marshal(doc, hinted)
	if err != nil {
		t.Fatal(err)
	}
	var vars []shape.Var
	if !tmpl.Match(data, &vars) {
		t.Fatal("same-shape message did not match")
	}
	if len(vars) != 3 {
		t.Fatalf("got %d vars", len(vars))
	}
	if vars[0].Value.Int64() != 7 || vars[1].Value.Text() != "ok" {
		t.Fatalf("leaf vars wrong: %+v", vars[:2])
	}
	want := docVars(t, doc)
	if !vars[2].Data.EqualData(want[2].Data) {
		t.Fatalf("array var = %v", vars[2].Data)
	}
}

func TestTemplateMatchBailsOutConservatively(t *testing.T) {
	tmpl, err := CompileTemplate(tmplDoc(0, "..", []float64{0, 0}), hinted)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Marshal(tmplDoc(0, "..", []float64{0, 0}), hinted)
	if err != nil {
		t.Fatal(err)
	}
	var vars []shape.Var
	if !tmpl.Match(baseline, &vars) {
		t.Fatal("baseline did not match")
	}
	cases := map[string][]byte{
		"entity in string":       bytes.Replace(baseline, []byte(">..<"), []byte(">&lt;..<"), 1),
		"whitespace-only string": bytes.Replace(baseline, []byte(">..<"), []byte(">  <"), 1),
		"carriage return":        bytes.Replace(baseline, []byte(">..<"), []byte(">.\r<"), 1),
		"extra array item":       bytes.Replace(baseline, []byte("<i>0</i><i>0</i>"), []byte("<i>0</i><i>0</i><i>0</i>"), 1),
		"trailing bytes":         append(append([]byte{}, baseline...), ' '),
		"different static tag":   bytes.Replace(baseline, []byte("t:n"), []byte("t:m"), 2),
	}
	for what, data := range cases {
		if bytes.Equal(data, baseline) {
			t.Fatalf("%s: mutation did not apply", what)
		}
		vars = vars[:0]
		if tmpl.Match(data, &vars) {
			t.Errorf("%s: matched; must fall back to generic parser", what)
		}
		if len(vars) != 0 {
			t.Errorf("%s: failed match left %d vars behind", what, len(vars))
		}
	}
	// Whitespace around numeric items is trimmed exactly like the generic
	// fast-array scan, so it still matches.
	padded := bytes.Replace(baseline, []byte("<i>0</i><i>0</i>"), []byte("<i> 0</i><i>0 </i>"), 1)
	vars = vars[:0]
	if !tmpl.Match(padded, &vars) {
		t.Error("trimmed numeric items should match")
	}
}

func TestCompileTemplateRequiresHints(t *testing.T) {
	if _, err := CompileTemplate(tmplDoc(0, "..", nil), EncodeOptions{}); err == nil {
		t.Error("hintless compile accepted")
	}
}
