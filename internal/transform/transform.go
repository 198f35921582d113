// Package transform implements XDM-based tree transformation over bXDM —
// the "XSLT" slot in the paper's Figure 3 stack: rewriting runs on the
// logical structure, so the same transformation applies to documents that
// arrived as textual XML or as BXSA.
//
// Besides a generic rewriting engine, the package provides the
// transformations that make the paper's unification practical in the field:
// Retype and PromoteArrays upgrade schema-less textual documents (numbers
// as character data, arrays as repeated elements) into the typed, packed
// bXDM form that BXSA encodes with near-zero overhead — "bXDM-ification"
// of legacy XML.
package transform

import (
	"strconv"
	"strings"

	"bxsoap/internal/bxdm"
)

// Action tells Rewrite what to do with a visited node.
type Action struct {
	kind        actionKind
	replacement []bxdm.Node
}

type actionKind int

const (
	actKeep actionKind = iota
	actReplace
)

// Keep retains the node and rewrites its children.
func Keep() Action { return Action{kind: actKeep} }

// Replace substitutes the node with the given nodes (not recursed into);
// with none it deletes the node and its subtree.
func Replace(nodes ...bxdm.Node) Action {
	return Action{kind: actReplace, replacement: nodes}
}

// RewriteFunc decides the fate of each node, visited top-down.
type RewriteFunc func(n bxdm.Node) Action

// Rewrite produces a transformed deep copy of the tree; the input is never
// mutated. Replacement nodes are adopted as-is (clone them yourself if they
// alias the input).
func Rewrite(n bxdm.Node, fn RewriteFunc) bxdm.Node {
	out := rewriteNode(n, fn)
	if len(out) == 1 {
		return out[0]
	}
	if len(out) == 0 {
		return nil
	}
	// Multiple roots: wrap in a document.
	return &bxdm.Document{Children: out}
}

func rewriteNode(n bxdm.Node, fn RewriteFunc) []bxdm.Node {
	if act := fn(n); act.kind == actReplace {
		return act.replacement
	}
	switch x := n.(type) {
	case *bxdm.Document:
		d := &bxdm.Document{}
		for _, c := range x.Children {
			d.Children = append(d.Children, rewriteNode(c, fn)...)
		}
		return []bxdm.Node{d}
	case *bxdm.Element:
		e := &bxdm.Element{ElemCommon: cloneCommon(&x.ElemCommon)}
		for _, c := range x.Children {
			e.Children = append(e.Children, rewriteNode(c, fn)...)
		}
		return []bxdm.Node{e}
	default:
		return []bxdm.Node{bxdm.Clone(n)}
	}
}

func cloneCommon(c *bxdm.ElemCommon) bxdm.ElemCommon {
	out := bxdm.ElemCommon{Name: c.Name}
	out.NamespaceDecls = append([]bxdm.NamespaceDecl(nil), c.NamespaceDecls...)
	out.Attributes = append([]bxdm.Attribute(nil), c.Attributes...)
	return out
}

// Retype converts generic elements whose entire content is one numeric or
// boolean token into typed LeafElements (int64, float64, or bool). This is
// the schema-less version of the typing that xsi:type hints provide: it
// upgrades plain parsed XML into the typed model so that BXSA encodes the
// values natively.
func Retype(n bxdm.Node) bxdm.Node {
	return Rewrite(n, func(n bxdm.Node) Action {
		el, ok := n.(*bxdm.Element)
		if !ok {
			return Keep()
		}
		if len(el.Children) != 1 {
			return Keep()
		}
		t, ok := el.Children[0].(*bxdm.Text)
		if !ok {
			return Keep()
		}
		v, ok := parseToken(t.Data)
		if !ok {
			return Keep()
		}
		leaf := &bxdm.LeafElement{ElemCommon: cloneCommon(&el.ElemCommon), Value: v}
		return Replace(leaf)
	})
}

// parseToken recognizes a single numeric or boolean token, tolerating
// surrounding whitespace (which Retype normalizes away).
func parseToken(s string) (bxdm.Value, bool) {
	tok := strings.TrimSpace(s)
	if tok == "" {
		return bxdm.Value{}, false
	}
	switch tok {
	case "true":
		return bxdm.BoolValue(true), true
	case "false":
		return bxdm.BoolValue(false), true
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return bxdm.Int64Value(i), true
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return bxdm.Float64Value(f), true
	}
	return bxdm.Value{}, false
}

// PromoteArrays collapses runs of at least minRun consecutive sibling leaf
// elements that share a name and a numeric type into a single packed
// ArrayElement named after the run's element name. Apply after Retype to
// turn `<v><i>1</i><i>2</i>…</v>` (the textual rendering of an array) back
// into one ArrayElement with packed storage.
func PromoteArrays(n bxdm.Node, minRun int) bxdm.Node {
	if minRun < 2 {
		minRun = 2
	}
	out := bxdm.Clone(n)
	bxdm.Walk(out, func(n bxdm.Node) error {
		if el, ok := n.(*bxdm.Element); ok {
			el.Children = promoteRuns(el.Children, minRun)
		}
		return nil
	})
	return out
}

func promoteRuns(children []bxdm.Node, minRun int) []bxdm.Node {
	var out []bxdm.Node
	i := 0
	for i < len(children) {
		run := leafRun(children[i:])
		if run < minRun {
			out = append(out, children[i])
			i++
			continue
		}
		first := children[i].(*bxdm.LeafElement)
		code := first.Value.Type()
		var data bxdm.ArrayData
		switch code {
		case bxdm.TInt64:
			items := make([]int64, run)
			for j := 0; j < run; j++ {
				items[j] = children[i+j].(*bxdm.LeafElement).Value.Int64()
			}
			data = bxdm.Array[int64]{Items: items}
		case bxdm.TFloat64:
			items := make([]float64, run)
			for j := 0; j < run; j++ {
				items[j] = children[i+j].(*bxdm.LeafElement).Value.Float64()
			}
			data = bxdm.Array[float64]{Items: items}
		case bxdm.TInt32:
			items := make([]int32, run)
			for j := 0; j < run; j++ {
				items[j] = int32(children[i+j].(*bxdm.LeafElement).Value.Int64())
			}
			data = bxdm.Array[int32]{Items: items}
		default:
			out = append(out, children[i])
			i++
			continue
		}
		arr := &bxdm.ArrayElement{
			ElemCommon: bxdm.ElemCommon{Name: first.Name},
			Data:       data,
		}
		out = append(out, arr)
		i += run
	}
	return out
}

// leafRun measures how many consecutive leading children are leaf elements
// sharing the first one's name and type, carrying no attributes or
// namespace declarations of their own (those would be lost in packing).
func leafRun(children []bxdm.Node) int {
	first, ok := children[0].(*bxdm.LeafElement)
	if !ok || len(first.Attributes) > 0 || len(first.NamespaceDecls) > 0 {
		return 0
	}
	code := first.Value.Type()
	switch code {
	case bxdm.TInt64, bxdm.TFloat64, bxdm.TInt32:
	default:
		return 0
	}
	n := 0
	for _, c := range children {
		l, ok := c.(*bxdm.LeafElement)
		if !ok || !l.Name.Matches(first.Name) || l.Value.Type() != code ||
			len(l.Attributes) > 0 || len(l.NamespaceDecls) > 0 {
			break
		}
		n++
	}
	return n
}
