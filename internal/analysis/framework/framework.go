// Package framework is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic,
// object facts), sized to what the paylint suite needs. The real x/tools
// module is deliberately not vendored: the repository is stdlib-only, and
// the subset below — type-checked syntax in, position-tagged diagnostics
// out, facts flowing across package boundaries — is small enough to own.
//
// The shapes match x/tools closely enough that the analyzers read like any
// other go/analysis analyzer and could be ported to the real driver by
// swapping import paths.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //paylint:ignore suppressions. It must be a valid Go identifier.
	Name string
	// Doc is the help text shown by cmd/paylint.
	Doc string
	// Run applies the analyzer to one package. It reports findings via
	// pass.Reportf and may exchange Facts through the pass.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, tagged with the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Fact is an arbitrary value attached to a types.Object by one analyzer in
// the defining package and visible to the same analyzer in every dependent
// package. Facts must be comparable-free plain data; they live for the
// duration of one driver run (the driver type-checks the whole dependency
// graph in process, so no serialization is needed).
type Fact any

// factKey scopes facts per analyzer so two analyzers can attach distinct
// facts to the same object.
type factKey struct {
	analyzer *Analyzer
	object   types.Object
}

// FactStore holds the facts exchanged between packages during one driver
// run. A single store is shared by every Pass of the run.
type FactStore struct {
	m     map[factKey][]Fact
	state map[*Analyzer]any
}

// NewFactStore creates an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey][]Fact), state: make(map[*Analyzer]any)}
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives diagnostics; the driver installs it.
	Report func(Diagnostic)

	facts *FactStore
}

// NewPass assembles a pass over a package for the given analyzer. The store
// may be shared across passes to let facts cross package boundaries.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, store *FactStore, report func(Diagnostic)) *Pass {
	if store == nil {
		store = NewFactStore()
	}
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    report,
		facts:     store,
	}
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Report == nil {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer})
}

// canonicalObject folds instantiated generic functions and variables back
// to their declaration object, so a fact attached to Engine[E, B].CallPayload
// is found at every instantiation's call sites.
func canonicalObject(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// ExportObjectFact attaches fact to obj for this pass's analyzer.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || fact == nil {
		return
	}
	k := factKey{p.Analyzer, canonicalObject(obj)}
	p.facts.m[k] = append(p.facts.m[k], fact)
}

// ObjectFacts returns every fact this analyzer attached to obj, in any
// defining package analyzed earlier in the run (or this one).
func (p *Pass) ObjectFacts(obj types.Object) []Fact {
	if obj == nil {
		return nil
	}
	return p.facts.m[factKey{p.Analyzer, canonicalObject(obj)}]
}

// RunState returns this analyzer's driver-run-scoped mutable state,
// creating it with init on first use. Unlike object facts — which are keyed
// to a types.Object and flow strictly from a defining package to its
// importers — run state is one value shared by every package the analyzer
// visits, in visit order. lockorder accumulates its repo-wide
// lock-acquisition graph here: edges contributed by independent packages
// (which no fact on a single object could relate) meet in the shared graph,
// and the cycle check on each package sees every edge discovered so far.
func (p *Pass) RunState(init func() any) any {
	if v, ok := p.facts.state[p.Analyzer]; ok {
		return v
	}
	v := init()
	p.facts.state[p.Analyzer] = v
	return v
}

// --- //paylint: annotations -------------------------------------------------

// The analyzers are configured in source, with machine-readable marker
// comments of the form
//
//	//paylint:VERB [args...]
//
// attached to a function's doc comment (facts about that function) or to a
// package comment (per-package switches). Annotation parses them.
type Annotation struct {
	// Verb is the word after "paylint:", e.g. "transfers".
	Verb string
	// Args are the space-separated words after the verb.
	Args []string
}

const annotPrefix = "paylint:"

// parseAnnotLine returns the annotation on one comment line, if any.
func parseAnnotLine(text string) (Annotation, bool) {
	t := strings.TrimPrefix(text, "//")
	t = strings.TrimSpace(t)
	if !strings.HasPrefix(t, annotPrefix) {
		return Annotation{}, false
	}
	fields := strings.Fields(strings.TrimPrefix(t, annotPrefix))
	if len(fields) == 0 {
		return Annotation{}, false
	}
	return Annotation{Verb: fields[0], Args: fields[1:]}, true
}

// Annotations extracts every //paylint: annotation from a comment group.
func Annotations(cg *ast.CommentGroup) []Annotation {
	if cg == nil {
		return nil
	}
	var out []Annotation
	for _, c := range cg.List {
		if a, ok := parseAnnotLine(c.Text); ok {
			out = append(out, a)
		}
	}
	return out
}

// FuncAnnotations returns the annotations on a function declaration's doc
// comment.
func FuncAnnotations(fn *ast.FuncDecl) []Annotation { return Annotations(fn.Doc) }

// PackageMarked reports whether any file's package doc (or a floating
// comment before the package clause) carries the given annotation verb.
// Analyzers use it for per-package opt-in switches such as
// //paylint:deterministic-clock.
func PackageMarked(files []*ast.File, verb string) bool {
	for _, f := range files {
		for _, cg := range beforePackageClause(f) {
			for _, a := range Annotations(cg) {
				if a.Verb == verb {
					return true
				}
			}
		}
	}
	return false
}

// PackageAnnotations returns every //paylint: annotation in the files'
// package docs (and detached header comments), for analyzers whose
// per-package switches carry arguments, e.g. //paylint:nil-sink Observer.
func PackageAnnotations(files []*ast.File) []Annotation {
	var out []Annotation
	for _, f := range files {
		for _, cg := range beforePackageClause(f) {
			out = append(out, Annotations(cg)...)
		}
	}
	return out
}

// beforePackageClause returns comment groups ending at or before the
// package keyword — the package doc plus any detached header comments.
func beforePackageClause(f *ast.File) []*ast.CommentGroup {
	var out []*ast.CommentGroup
	for _, cg := range f.Comments {
		if cg.End() <= f.Package {
			out = append(out, cg)
		}
	}
	if f.Doc != nil {
		out = append(out, f.Doc)
	}
	return out
}

// --- suppression ------------------------------------------------------------

// Suppression is one //paylint:ignore comment. It covers its own line and,
// when it is the only thing on its line, the line below — the two placements
// gofmt produces:
//
//	conn.Write(b) //paylint:ignore errclass reason...
//
//	//paylint:ignore errclass reason...
//	conn.Write(b)
//
// The analyzer name "all" (or no name) suppresses every analyzer. Used
// records whether any diagnostic was actually swallowed, so the driver can
// report suppressions that have rotted.
type Suppression struct {
	Pos      token.Pos
	File     string
	Line     int    // the comment's own line
	Analyzer string // analyzer name or "all"
	Used     bool
}

// CollectSuppressions scans a file for //paylint:ignore comments.
func CollectSuppressions(fset *token.FileSet, f *ast.File) []*Suppression {
	var out []*Suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			a, ok := parseAnnotLine(c.Text)
			if !ok || a.Verb != "ignore" {
				continue
			}
			name := "all"
			if len(a.Args) > 0 {
				name = a.Args[0]
			}
			pos := fset.Position(c.Pos())
			out = append(out, &Suppression{
				Pos:      c.Pos(),
				File:     pos.Filename,
				Line:     pos.Line,
				Analyzer: name,
			})
		}
	}
	return out
}

// SuppressKey identifies one suppressed (file, line, analyzer) cell.
type SuppressKey struct {
	File     string
	Line     int
	Analyzer string // analyzer name or "all"
}

// SuppressionSet indexes suppressions by the cells they cover for one
// package's files.
type SuppressionSet struct {
	byKey map[SuppressKey][]*Suppression
	all   []*Suppression
}

// NewSuppressionSet indexes the given suppressions.
func NewSuppressionSet(sups []*Suppression) *SuppressionSet {
	s := &SuppressionSet{byKey: make(map[SuppressKey][]*Suppression), all: sups}
	for _, sup := range sups {
		// A suppression covers its own line and the line below.
		s.byKey[SuppressKey{sup.File, sup.Line, sup.Analyzer}] = append(s.byKey[SuppressKey{sup.File, sup.Line, sup.Analyzer}], sup)
		s.byKey[SuppressKey{sup.File, sup.Line + 1, sup.Analyzer}] = append(s.byKey[SuppressKey{sup.File, sup.Line + 1, sup.Analyzer}], sup)
	}
	return s
}

// Suppressed reports whether a diagnostic at pos from analyzer name is
// covered, marking every covering suppression as used.
func (s *SuppressionSet) Suppressed(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	hit := false
	for _, key := range []SuppressKey{{p.Filename, p.Line, name}, {p.Filename, p.Line, "all"}} {
		for _, sup := range s.byKey[key] {
			sup.Used = true
			hit = true
		}
	}
	return hit
}

// Unused returns the suppressions that swallowed no diagnostic, in input
// order.
func (s *SuppressionSet) Unused() []*Suppression {
	var out []*Suppression
	for _, sup := range s.all {
		if !sup.Used {
			out = append(out, sup)
		}
	}
	return out
}

// SortDiagnostics orders diagnostics by position for stable output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
