// Package payown enforces the repo's payload-ownership protocol: every
// *core.Payload checked out of the pool must be released exactly once on
// every path, and never touched again afterwards. Violations are exactly
// the bugs the pooled pipeline turns nasty — a missed Release leaks the
// pooled buffer (PayloadsInUse climbs forever), a double Release corrupts
// the pool, a use-after-release reads a buffer another exchange may
// already own.
//
// Ownership flows are declared in source with //paylint: annotations on
// the functions that move payloads around, exported as object facts so the
// protocol crosses package boundaries:
//
//	//paylint:returns owned    — the caller receives ownership and must
//	                             release (core.NewPayload, ReadPayload,
//	                             ChunkSource.ReadChunk — what
//	                             Channel.ReceiveRequest hands back, ...)
//	//paylint:transfers        — the callee takes ownership of its
//	                             *core.Payload parameter; the caller must
//	                             not release it afterwards
//	                             (ChunkSink.WriteChunk — the sink
//	                             Channel.SendResponse opens)
//	//paylint:borrows          — the callee uses the payload only for the
//	                             duration of the call; the caller still
//	                             owns it (Binding.SendRequest,
//	                             Engine.CallPayload)
//
// Within a function the analyzer walks the body path by path. A local
// variable assigned once from a //paylint:returns owned call is tracked as
// Owned; Release moves it to Released (twice is a diagnostic, any later
// use is a diagnostic); a //paylint:transfers call releases it by
// hand-off; returning it hands ownership to the caller. Anything the
// analyzer cannot follow — storing the payload into a struct or slice,
// capturing it in a closure, passing it to an unannotated function,
// Retain — quietly ends tracking rather than guessing: the analyzer
// prefers silence to false positives, and the annotations are how you buy
// back precision.
//
// The (payload, err) idiom is understood: after `p, err := ReadPayload(...)`,
// a branch taken on err != nil treats p as absent, so error-path early
// returns are not reported as leaks. Functions annotated
// //paylint:transfers are themselves checked from the callee side: their
// payload parameter starts Owned and must be consumed on every path.
// //paylint:ignore payown suppresses a single line.
package payown

import (
	"go/ast"
	"go/token"
	"go/types"

	"bxsoap/internal/analysis/framework"
)

// Analyzer is the payown check.
var Analyzer = &framework.Analyzer{
	Name: "payown",
	Doc:  "pooled payloads must be released exactly once on every path and never used afterwards",
	Run:  run,
}

const corePath = "bxsoap/internal/core"

// Facts attached to function objects, exported across packages.
type (
	ownedFact     struct{} // returns a payload the caller owns
	transfersFact struct{} // takes ownership of its payload parameter
	borrowsFact   struct{} // borrows its payload parameter
)

// status of one tracked payload variable along the current path.
type status int

const (
	stOwned    status = iota // holds a live pooled buffer; must be consumed
	stReleased               // consumed; any further use is a bug
	stAbsent                 // statically nil on this path (error branch)
	stEscaped                // left the analyzer's sight; no further claims
)

func run(pass *framework.Pass) error {
	c := &checker{pass: pass}

	// Harvest annotations — function declarations and interface method
	// declarations both carry them — and export the facts before checking
	// any body, so in-package calls resolve regardless of declaration
	// order.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				c.exportAnnotations(pass.TypesInfo.Defs[n.Name], framework.Annotations(n.Doc))
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					if len(m.Names) == 1 {
						c.exportAnnotations(pass.TypesInfo.Defs[m.Names[0]], framework.Annotations(m.Doc))
					}
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				c.checkFunc(fn)
			}
		}
	}
	return nil
}

type checker struct {
	pass *framework.Pass
}

func (c *checker) exportAnnotations(obj types.Object, annots []framework.Annotation) {
	if obj == nil {
		return
	}
	for _, a := range annots {
		switch {
		case a.Verb == "returns" && len(a.Args) > 0 && a.Args[0] == "owned":
			c.pass.ExportObjectFact(obj, ownedFact{})
		case a.Verb == "transfers":
			c.pass.ExportObjectFact(obj, transfersFact{})
		case a.Verb == "borrows":
			c.pass.ExportObjectFact(obj, borrowsFact{})
		}
	}
}

func (c *checker) hasFact(obj types.Object, want framework.Fact) bool {
	if obj == nil {
		return false
	}
	for _, f := range c.pass.ObjectFacts(obj) {
		if f == want {
			return true
		}
	}
	return false
}

// isPayloadPtr reports whether t is *core.Payload.
func isPayloadPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Payload" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == corePath
}

// state is the per-path view of every tracked variable.
type state struct {
	vars     map[types.Object]status
	deferred map[types.Object]bool         // a `defer v.Release()` is registered
	errOf    map[types.Object]types.Object // tracked var -> its paired err var
}

func newState() *state {
	return &state{
		vars:     make(map[types.Object]status),
		deferred: make(map[types.Object]bool),
		errOf:    make(map[types.Object]types.Object),
	}
}

func (st *state) clone() *state {
	n := newState()
	for k, v := range st.vars {
		n.vars[k] = v
	}
	for k, v := range st.deferred {
		n.deferred[k] = v
	}
	for k, v := range st.errOf {
		n.errOf[k] = v
	}
	return n
}

// merge joins two open paths. Identical knowledge survives; an absent
// payload defers to the other path; disagreement about Owned/Released
// means the paths consumed differently — rather than guess, tracking ends.
func (st *state) merge(other *state) {
	for v, a := range st.vars {
		b, ok := other.vars[v]
		if !ok || a == b {
			continue
		}
		switch {
		case a == stAbsent:
			st.vars[v] = b
		case b == stAbsent:
			// keep a
		default:
			st.vars[v] = stEscaped
		}
	}
	for v, b := range other.vars {
		if _, ok := st.vars[v]; !ok {
			st.vars[v] = b
		}
	}
	for v := range st.deferred {
		if !other.deferred[v] {
			delete(st.deferred, v)
		}
	}
}

// checkFunc analyzes one function body.
func (c *checker) checkFunc(fn *ast.FuncDecl) {
	st := newState()

	// A //paylint:transfers function owns its payload parameter from entry.
	if obj := c.pass.TypesInfo.Defs[fn.Name]; c.hasFact(obj, transfersFact{}) && fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if p := c.pass.TypesInfo.Defs[name]; p != nil && isPayloadPtr(p.Type()) {
					st.vars[p] = stOwned
				}
			}
		}
	}

	terminated := c.walkStmt(fn.Body, st)
	if !terminated {
		c.checkLeaks(st, fn.Body.End())
	}
}

// checkLeaks reports every variable still Owned (and not covered by a
// deferred release) at an exit point.
func (c *checker) checkLeaks(st *state, pos token.Pos) {
	for v, s := range st.vars {
		if s == stOwned && !st.deferred[v] {
			c.pass.Reportf(pos, "payload %s is not released on every path (owner must call Release exactly once)", v.Name())
		}
	}
}

// walkStmt interprets one statement, returning whether the path terminates
// (returns or panics) inside it.
func (c *checker) walkStmt(s ast.Stmt, st *state) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			if c.walkStmt(sub, st) {
				return true
			}
		}
		return false

	case *ast.AssignStmt:
		c.walkAssign(s, st)
		return false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						c.walkExpr(val, st)
					}
				}
			}
		}
		return false

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				for _, a := range call.Args {
					c.walkExpr(a, st)
				}
				return true
			}
		}
		c.walkExpr(s.X, st)
		return false

	case *ast.DeferStmt:
		// `defer v.Release()` counts as a release at every later exit.
		if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && len(s.Call.Args) == 0 {
			if v := c.trackedIdent(sel.X, st); v != nil {
				if st.vars[v] == stReleased {
					c.pass.Reportf(s.Pos(), "payload %s released twice", v.Name())
				}
				st.deferred[v] = true
				return false
			}
		}
		// Any other defer (including closures) is walked for escapes.
		c.walkExpr(s.Call.Fun, st)
		for _, a := range s.Call.Args {
			c.walkExpr(a, st)
		}
		return false

	case *ast.GoStmt:
		c.walkExpr(s.Call.Fun, st)
		for _, a := range s.Call.Args {
			c.walkExpr(a, st)
		}
		return false

	case *ast.ReturnStmt:
		for _, res := range s.Results {
			// Returning a tracked payload hands ownership out; the result
			// is the caller's problem (annotate //paylint:returns owned).
			if v := c.trackedIdent(res, st); v != nil {
				c.useCheck(res.Pos(), v, st)
				st.vars[v] = stEscaped
				continue
			}
			c.walkExpr(res, st)
		}
		c.checkLeaks(st, s.Pos())
		return true

	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		thenSt, elseSt := st.clone(), st.clone()
		c.applyCond(s.Cond, thenSt, elseSt, st)
		thenTerm := c.walkStmt(s.Body, thenSt)
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.walkStmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			thenSt.merge(elseSt)
			*st = *thenSt
		}
		return false

	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.walkExpr(s.Cond, st)
		}
		body := st.clone()
		c.walkStmt(s.Body, body)
		if s.Post != nil {
			c.walkStmt(s.Post, body)
		}
		// `for { ... }` with no break never falls through: every exit is a
		// return inside the body, already checked there.
		if s.Cond == nil && !hasLoopBreak(s.Body) {
			return true
		}
		st.merge(body)
		return false

	case *ast.RangeStmt:
		c.walkExpr(s.X, st)
		body := st.clone()
		c.walkStmt(s.Body, body)
		st.merge(body)
		return false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.walkBranches(s, st)

	case *ast.SendStmt:
		c.walkExpr(s.Chan, st)
		c.walkExpr(s.Value, st)
		return false

	case *ast.IncDecStmt:
		c.walkExpr(s.X, st)
		return false

	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)

	case *ast.BranchStmt:
		// break/continue/goto: path leaves this statement list but not the
		// function; treat as open and let the enclosing merge handle it.
		return false
	}
	return false
}

// walkBranches handles switch/type-switch/select uniformly: every clause
// runs on its own clone; open clauses merge back.
func (c *checker) walkBranches(s ast.Stmt, st *state) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.walkExpr(s.Tag, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var open []*state
	allTerm := true
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				c.walkExpr(e, st)
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			clSt := st.clone()
			if cl.Comm != nil {
				c.walkStmt(cl.Comm, clSt)
			}
			term := false
			for _, sub := range cl.Body {
				if c.walkStmt(sub, clSt) {
					term = true
					break
				}
			}
			if !term {
				allTerm = false
				open = append(open, clSt)
			}
			continue
		}
		clSt := st.clone()
		term := false
		for _, sub := range body {
			if c.walkStmt(sub, clSt) {
				term = true
				break
			}
		}
		if !term {
			allTerm = false
			open = append(open, clSt)
		}
	}
	if _, isSelect := s.(*ast.SelectStmt); isSelect {
		hasDefault = true // a select blocks until some clause runs
	}
	if allTerm && hasDefault && len(clauses) > 0 {
		return true
	}
	if len(open) > 0 {
		first := open[0]
		for _, o := range open[1:] {
			first.merge(o)
		}
		// Paths that skip the switch entirely (no default) keep st as-is.
		if hasDefault {
			*st = *first
		} else {
			st.merge(first)
		}
	}
	return false
}

// applyCond refines branch states from a condition: the (payload, err)
// pairing and explicit nil checks on the payload itself.
func (c *checker) applyCond(cond ast.Expr, thenSt, elseSt, st *state) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		c.walkExpr(cond, st)
		return
	}
	x, xIsIdent := ast.Unparen(bin.X).(*ast.Ident)
	if !xIsIdent || !isNil(bin.Y) {
		c.walkExpr(cond, st)
		return
	}
	obj := c.pass.TypesInfo.Uses[x]
	if obj == nil {
		return
	}
	nilSide, liveSide := thenSt, elseSt
	switch bin.Op {
	case token.NEQ: // x != nil: then-branch has x live
		nilSide, liveSide = elseSt, thenSt
	case token.EQL: // x == nil: then-branch has x nil
	default:
		c.walkExpr(cond, st)
		return
	}
	_ = liveSide
	// Payload nil-checked directly.
	if _, tracked := st.vars[obj]; tracked {
		nilSide.vars[obj] = stAbsent
		return
	}
	// The paired err checked: err non-nil means the payload is nil.
	for v, errv := range st.errOf {
		if errv == obj && st.vars[v] == stOwned {
			// err != nil branch = payload absent; err == nil branch = live.
			if bin.Op == token.NEQ {
				thenSt.vars[v] = stAbsent
			} else {
				elseSt.vars[v] = stAbsent
			}
		}
	}
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// walkAssign handles definitions (tracking new payloads) and assignments
// (escapes and retracking).
func (c *checker) walkAssign(s *ast.AssignStmt, st *state) {
	// New payload from a source call: p, err := ReadPayload(...) or
	// p := NewPayload(n).
	if s.Tok == token.DEFINE && len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && c.hasFact(c.calleeObject(call), ownedFact{}) {
			c.walkCall(call, st)
			var payloadVar, errVar types.Object
			ok := true
			for _, lhs := range s.Lhs {
				id, isIdent := ast.Unparen(lhs).(*ast.Ident)
				if !isIdent {
					ok = false
					break
				}
				if id.Name == "_" {
					continue
				}
				// In a mixed := some variables (typically err) are reused,
				// not redeclared; they land in Uses, not Defs.
				obj := c.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = c.pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				if isPayloadPtr(obj.Type()) {
					payloadVar = obj
				} else if isErrorType(obj.Type()) {
					errVar = obj
				}
			}
			if ok && payloadVar != nil {
				st.vars[payloadVar] = stOwned
				if errVar != nil {
					st.errOf[payloadVar] = errVar
				}
				return
			}
		}
	}
	// Ordinary assignment: RHS uses are checked/escaped; a tracked var on
	// the LHS is being overwritten — if it still owned a buffer, that's a
	// leak; either way tracking ends.
	for _, rhs := range s.Rhs {
		c.walkExpr(rhs, st)
	}
	for _, lhs := range s.Lhs {
		if v := c.trackedIdent(lhs, st); v != nil {
			if st.vars[v] == stOwned && !st.deferred[v] {
				c.pass.Reportf(s.Pos(), "payload %s overwritten while still owned (leaks the pooled buffer)", v.Name())
			}
			st.vars[v] = stEscaped
			continue
		}
		// Writes through an index/selector may hide a payload; walk for
		// escapes of tracked vars appearing inside.
		if _, ok := lhs.(*ast.Ident); !ok {
			c.walkExpr(lhs, st)
		}
	}
}

// trackedIdent resolves e to a tracked variable, or nil.
func (c *checker) trackedIdent(e ast.Expr, st *state) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if _, tracked := st.vars[obj]; tracked {
		return obj
	}
	return nil
}

// useCheck reports a use of v when the path already released it.
func (c *checker) useCheck(pos token.Pos, v types.Object, st *state) {
	if st.vars[v] == stReleased {
		c.pass.Reportf(pos, "payload %s used after Release", v.Name())
	}
}

// walkExpr processes an expression for ownership effects: method calls on
// tracked payloads, annotated call sites, and escapes.
func (c *checker) walkExpr(e ast.Expr, st *state) {
	switch e := ast.Unparen(e).(type) {
	case nil:
		return
	case *ast.CallExpr:
		c.walkCall(e, st)
	case *ast.Ident:
		if v := c.trackedIdent(e, st); v != nil {
			// A bare mention outside a recognized pattern: the payload
			// escapes (copied, stored, captured); check use-after-release
			// first.
			c.useCheck(e.Pos(), v, st)
			if st.vars[v] != stReleased {
				st.vars[v] = stEscaped
			}
		}
	case *ast.FuncLit:
		// A closure capturing a tracked payload takes it out of sight.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := c.trackedIdent(id, st); v != nil {
					st.vars[v] = stEscaped
				}
			}
			return true
		})
	case *ast.UnaryExpr:
		c.walkExpr(e.X, st)
	case *ast.BinaryExpr:
		c.walkExpr(e.X, st)
		c.walkExpr(e.Y, st)
	case *ast.StarExpr:
		c.walkExpr(e.X, st)
	case *ast.SelectorExpr:
		// Reading a field/method value off a tracked var is a use, not an
		// escape.
		if v := c.trackedIdent(e.X, st); v != nil {
			c.useCheck(e.X.Pos(), v, st)
			return
		}
		c.walkExpr(e.X, st)
	case *ast.IndexExpr:
		c.walkExpr(e.X, st)
		c.walkExpr(e.Index, st)
	case *ast.SliceExpr:
		c.walkExpr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			c.walkExpr(el, st)
		}
	case *ast.KeyValueExpr:
		c.walkExpr(e.Value, st)
	case *ast.TypeAssertExpr:
		c.walkExpr(e.X, st)
	}
}

// walkCall applies a call's ownership semantics.
func (c *checker) walkCall(call *ast.CallExpr, st *state) {
	// Method call on a tracked payload?
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v := c.trackedIdent(sel.X, st); v != nil {
			switch sel.Sel.Name {
			case "Release":
				switch st.vars[v] {
				case stReleased:
					c.pass.Reportf(call.Pos(), "payload %s released twice", v.Name())
				case stOwned:
					if st.deferred[v] {
						c.pass.Reportf(call.Pos(), "payload %s released twice (a deferred Release is already registered)", v.Name())
					}
					st.vars[v] = stReleased
				case stAbsent, stEscaped:
					// Releasing a nil/escaped payload is the guarded-release
					// idiom or out of scope; stay quiet.
				}
			case "Retain":
				c.useCheck(call.Pos(), v, st)
				st.vars[v] = stEscaped
			default:
				// Bytes, Len, Write, ...: a read of the live buffer.
				c.useCheck(call.Pos(), v, st)
			}
			for _, a := range call.Args {
				c.walkExpr(a, st)
			}
			return
		}
	}

	callee := c.calleeObject(call)
	transfers := c.hasFact(callee, transfersFact{})
	borrows := c.hasFact(callee, borrowsFact{})
	for _, a := range call.Args {
		if v := c.trackedIdent(a, st); v != nil {
			c.useCheck(a.Pos(), v, st)
			switch {
			case transfers:
				if st.vars[v] == stOwned {
					st.vars[v] = stReleased
				}
			case borrows:
				// Caller still owns; nothing changes.
			default:
				if st.vars[v] != stReleased {
					st.vars[v] = stEscaped
				}
			}
			continue
		}
		c.walkExpr(a, st)
	}
	c.walkExpr(call.Fun, st)
}

func (c *checker) calleeObject(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if s := c.pass.TypesInfo.Selections[fun]; s != nil {
			return s.Obj()
		}
		return c.pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// hasLoopBreak reports whether body contains a break binding to this loop
// (unlabeled, not inside a nested loop/switch/select).
func hasLoopBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // break inside binds elsewhere
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		}
		return !found
	}
	ast.Inspect(body, walk)
	return found
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
