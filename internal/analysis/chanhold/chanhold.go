// Package chanhold forbids blocking while holding a mutex. Whatever a
// critical section waits on — a channel peer, the network, a timer —
// every other goroutine that wants the lock waits on it too, so one slow
// counterparty stalls the whole structure; and if the peer needs the same
// lock to make progress, the wait is a deadlock. The analyzer runs the
// heldset may-held dataflow over every function body and flags, under any
// tracked mutex:
//
//   - channel sends and receives outside a select (a buffered channel is
//     no defense the checker can see; restructure to send after unlock)
//   - range over a channel
//   - selects with neither a default clause nor a cancellation arm (a
//     receive from a struct{}-element channel — ctx.Done(), a quit/done
//     channel — counts as one)
//   - network I/O: net Dial/Listen functions, methods on values satisfying
//     the net.Conn/net.Listener shapes, http.Client round trips
//   - time.Sleep and sync.WaitGroup.Wait
//   - calls to functions that may themselves block, tracked transitively
//     through the call graph and across packages as object facts
//
// Exempt: sync.Cond.Wait (it releases the mutex), Close methods (shutdown
// paths legitimately run under locks), and acquiring another mutex —
// that is lockorder's domain.
//
// Escape hatches, each demanding a justification:
//
//	//paylint:serializes-io <reason>   on a mutex struct field whose whole
//	                                   point is to serialize I/O (tcpbind's
//	                                   one-exchange-per-binding lock); the
//	                                   mutex stops being tracked here, but
//	                                   still participates in lockorder
//	//paylint:nonblocking <reason>     on a function the analyzer wrongly
//	                                   considers blocking
//	//paylint:blocks <reason>          on a function, or on a func-typed
//	                                   struct field, that blocks in a way
//	                                   the analyzer cannot see (a dialer
//	                                   field, an interface seam)
package chanhold

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"bxsoap/internal/analysis/callgraph"
	"bxsoap/internal/analysis/cfg"
	"bxsoap/internal/analysis/framework"
	"bxsoap/internal/analysis/heldset"
)

// Analyzer is the chanhold analyzer.
var Analyzer = &framework.Analyzer{
	Name: "chanhold",
	Doc:  "no blocking operation (channel, network, sleep) while a mutex is held",
	Run:  run,
}

// blocksFact marks a function that may block, with the root reason, so
// importing packages flag calls to it made under a lock.
type blocksFact struct {
	Reason string
}

type analysis struct {
	pass *framework.Pass
	ix   *callgraph.Index

	summaries   map[types.Object]string // func -> blocking reason ("" = does not block)
	pinned      map[types.Object]string // from //paylint:nonblocking ("") and //paylint:blocks
	exemptMu    map[string]bool         // serializes-io mutex identities
	fieldBlocks map[types.Object]string // //paylint:blocks on func-typed fields
	selOK       map[*ast.SelectStmt]bool
	reportedSel map[*ast.SelectStmt]bool
}

func run(pass *framework.Pass) error {
	a := &analysis{
		pass:        pass,
		ix:          callgraph.NewIndex(pass.TypesInfo, pass.Files),
		summaries:   make(map[types.Object]string),
		pinned:      make(map[types.Object]string),
		exemptMu:    make(map[string]bool),
		fieldBlocks: make(map[types.Object]string),
		selOK:       make(map[*ast.SelectStmt]bool),
		reportedSel: make(map[*ast.SelectStmt]bool),
	}
	a.collectFieldAnnotations()
	a.collectFuncAnnotations()

	callgraph.Fixpoint(a.ix, 12, a.summarize)
	for _, obj := range a.ix.Funcs() {
		if reason := a.summaries[obj]; reason != "" {
			pass.ExportObjectFact(obj, &blocksFact{Reason: reason})
		}
	}

	for _, obj := range a.ix.Funcs() {
		decl := a.ix.Decl(obj)
		a.checkBody(decl.Body)
		for _, lit := range funcLits(decl.Body) {
			a.checkBody(lit.Body)
		}
	}
	return nil
}

// collectFieldAnnotations walks struct declarations for the two field
// verbs: serializes-io on mutex fields (exempts that lock here) and blocks
// on func-typed fields (calls through them count as blocking).
func (a *analysis) collectFieldAnnotations() {
	pkgName := a.pass.Pkg.Name()
	for _, f := range a.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				var annots []framework.Annotation
				annots = append(annots, framework.Annotations(field.Doc)...)
				annots = append(annots, framework.Annotations(field.Comment)...)
				for _, an := range annots {
					switch an.Verb {
					case "serializes-io":
						if len(an.Args) == 0 {
							a.pass.Reportf(field.Pos(), "//paylint:serializes-io needs a reason")
							continue
						}
						for _, name := range field.Names {
							a.exemptMu[pkgName+"."+ts.Name.Name+"."+name.Name] = true
						}
					case "blocks":
						reason := strings.Join(an.Args, " ")
						if reason == "" {
							a.pass.Reportf(field.Pos(), "//paylint:blocks needs a reason")
							continue
						}
						for _, name := range field.Names {
							if obj := a.pass.TypesInfo.Defs[name]; obj != nil {
								a.fieldBlocks[obj] = reason
							}
						}
					}
				}
			}
			return true
		})
	}
}

// collectFuncAnnotations pins summaries declared by //paylint:nonblocking
// and //paylint:blocks on function declarations.
func (a *analysis) collectFuncAnnotations() {
	for _, obj := range a.ix.Funcs() {
		decl := a.ix.Decl(obj)
		for _, an := range framework.FuncAnnotations(decl) {
			switch an.Verb {
			case "nonblocking":
				if len(an.Args) == 0 {
					a.pass.Reportf(decl.Pos(), "//paylint:nonblocking needs a reason")
					continue
				}
				a.pinned[obj] = ""
			case "blocks":
				reason := strings.Join(an.Args, " ")
				if reason == "" {
					a.pass.Reportf(decl.Pos(), "//paylint:blocks needs a reason")
					continue
				}
				a.pinned[obj] = reason
			}
		}
	}
}

// summarize recomputes whether one function may block. Returns whether the
// summary changed.
func (a *analysis) summarize(obj types.Object, decl *ast.FuncDecl) bool {
	var reason string
	if pinnedReason, isPinned := a.pinned[obj]; isPinned {
		reason = pinnedReason
	} else {
		reason = a.bodyBlocks(decl.Body)
	}
	if a.summaries[obj] == reason {
		return false
	}
	a.summaries[obj] = reason
	return true
}

// bodyBlocks returns the first blocking operation in body ("" if none):
// the per-function half of the transitive may-block summary. Operations in
// func literals, go statements, and defers happen on other timelines (or
// after the body's own work) and do not make the function itself blocking.
func (a *analysis) bodyBlocks(body *ast.BlockStmt) string {
	commStmts := a.commStmtSet(body)
	var reason string
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		if commStmts[n] {
			return false // comm ops are judged at their select
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			if !a.selectOK(n) {
				reason = "select with no default or cancellation arm at " + a.shortPos(n.Pos())
				return false
			}
		case *ast.SendStmt:
			reason = "channel send at " + a.shortPos(n.Pos())
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reason = "channel receive at " + a.shortPos(n.Pos())
				return false
			}
		case *ast.RangeStmt:
			if isChan(a.pass.TypesInfo.TypeOf(n.X)) {
				reason = "range over channel at " + a.shortPos(n.Pos())
				return false
			}
		case *ast.CallExpr:
			if r, isBlocking := a.blockingCall(n); isBlocking {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// commStmtSet collects the comm statements of every select under body so
// the flat walk does not re-judge them as bare channel operations.
func (a *analysis) commStmtSet(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if sel, isSel := n.(*ast.SelectStmt); isSel {
			for _, c := range sel.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm != nil {
					out[cc.Comm] = true
				}
			}
		}
		return true
	})
	return out
}

// selectOK reports whether a select is acceptable under a lock: it has a
// default clause, or a cancellation arm — a receive from a
// struct{}-element channel (ctx.Done(), a done/quit channel).
func (a *analysis) selectOK(s *ast.SelectStmt) bool {
	if ok, seen := a.selOK[s]; seen {
		return ok
	}
	ok := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			ok = true
			break
		}
		var recvFrom ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, isRecv := comm.X.(*ast.UnaryExpr); isRecv && u.Op == token.ARROW {
				recvFrom = u.X
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if u, isRecv := comm.Rhs[0].(*ast.UnaryExpr); isRecv && u.Op == token.ARROW {
					recvFrom = u.X
				}
			}
		}
		if recvFrom != nil && isSignalChan(a.pass.TypesInfo.TypeOf(recvFrom)) {
			ok = true
			break
		}
	}
	a.selOK[s] = ok
	return ok
}

// blockingCall classifies one call as blocking or not, by callee.
func (a *analysis) blockingCall(call *ast.CallExpr) (string, bool) {
	info := a.pass.TypesInfo

	// Mutex operations are lockorder's domain.
	if _, _, isMutexOp := heldset.Classify(info, call); isMutexOp {
		return "", false
	}

	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		// A call through a //paylint:blocks func-typed field.
		if selection := info.Selections[sel]; selection != nil {
			if reason, isAnnotated := a.fieldBlocks[callgraph.Canonical(selection.Obj())]; isAnnotated {
				return fmt.Sprintf("call through %s, declared blocking: %s", sel.Sel.Name, reason), true
			}
		}
	}

	callee := callgraph.FuncObj(info, call.Fun)
	if fn, isFn := callee.(*types.Func); isFn {
		if reason, isBlocking := wellKnownBlocking(fn); isBlocking {
			return reason, true
		}
		if isExemptCall(fn) {
			return "", false
		}
	}
	// Duck-typed network I/O through an interface value (net.Conn and
	// friends resolve to no static callee).
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if reason, isIO := netDuckCall(info, sel); isIO {
			return reason, true
		}
	}
	if callee == nil {
		return "", false
	}
	if isExemptObj(callee) {
		return "", false
	}
	if reason, isLocal := a.summaries[callee]; isLocal && reason != "" {
		return fmt.Sprintf("calls %s, which may block: %s", callee.Name(), reason), true
	}
	if _, isPinned := a.pinned[callee]; isPinned {
		return "", false // nonblocking pin; blocks pin lands in summaries
	}
	for _, f := range a.pass.ObjectFacts(callee) {
		if bf, isFact := f.(*blocksFact); isFact {
			return fmt.Sprintf("calls %s, which may block: %s", callee.Name(), bf.Reason), true
		}
	}
	return "", false
}

// wellKnownBlocking recognizes stdlib calls that block by contract.
func wellKnownBlocking(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "net":
		if strings.HasPrefix(fn.Name(), "Dial") || strings.HasPrefix(fn.Name(), "Listen") {
			return "net." + fn.Name(), true
		}
	case "sync":
		if fn.Name() == "Wait" && recvNamed(fn) == "WaitGroup" {
			return "sync.WaitGroup.Wait", true
		}
	case "net/http":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "http round trip (" + fn.Name() + ")", true
		}
	case "bufio":
		// A bufio.Reader/Writer almost always wraps a connection in this
		// codebase; its I/O methods block whenever the buffer spills to
		// (or drains from) the underlying stream.
		for _, prefix := range []string{"Read", "Write", "Peek", "Discard", "Flush"} {
			if strings.HasPrefix(fn.Name(), prefix) {
				return "buffered I/O (bufio." + recvNamed(fn) + "." + fn.Name() + ")", true
			}
		}
	}
	return "", false
}

// recvNamed returns the name of a method's receiver type ("" for
// functions).
func recvNamed(fn *types.Func) string {
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return named.Obj().Name()
	}
	return ""
}

// isExemptCall: sync.Cond.Wait releases the mutex while waiting; that is
// its whole design.
func isExemptCall(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait" && recvNamed(fn) == "Cond"
}

// isExemptObj: Close methods run on shutdown paths that legitimately hold
// the owner's lock.
func isExemptObj(obj types.Object) bool {
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Name() != "Close" {
		return false
	}
	sig, isSig := fn.Type().(*types.Signature)
	return isSig && sig.Recv() != nil
}

// netDuckCall flags Read/Write-family methods on values satisfying the
// net.Conn shape and Accept on the net.Listener shape — the same duck
// fingerprints errclass uses, so shaped test doubles count like real
// sockets.
func netDuckCall(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	recv := info.TypeOf(sel.X)
	if recv == nil {
		return "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Read", "Write":
		if implementsConn(recv) {
			return "network I/O (" + name + " on a net.Conn)", true
		}
	case "Accept":
		if implementsListener(recv) {
			return "network accept", true
		}
	}
	return "", false
}

// implementsConn duck-types the net.Conn essentials.
func implementsConn(t types.Type) bool {
	return hasMethod(t, "Read") && hasMethod(t, "Write") && hasMethod(t, "RemoteAddr") && hasMethod(t, "SetDeadline")
}

// implementsListener duck-types net.Listener.
func implementsListener(t types.Type) bool {
	return hasMethod(t, "Accept") && hasMethod(t, "Addr") && hasMethod(t, "Close")
}

func hasMethod(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, isFn := obj.(*types.Func)
	return isFn
}

// checkBody runs the held-lock dataflow over one body and reports blocking
// operations under tracked locks.
func (a *analysis) checkBody(body *ast.BlockStmt) {
	info := a.pass.TypesInfo
	heldset.Walk(info, body, func(n ast.Node, blk *cfg.Block, held heldset.Held) {
		eff := a.effectiveHeld(held)
		if len(eff) == 0 {
			return
		}
		// The comm op of a select clause is judged at select level: blocked
		// arms are fine when some arm is a default or cancellation escape.
		if blk.Sel != nil {
			if cc, isComm := blk.Stmt.(*ast.CommClause); isComm && cc.Comm == n {
				if !a.selectOK(blk.Sel) && !a.reportedSel[blk.Sel] {
					a.reportedSel[blk.Sel] = true
					a.reportf(blk.Sel.Pos(), "select with no default or cancellation arm", eff, held)
				}
				return
			}
		}
		// A range head's node is the ranged expression.
		if blk.Kind == "range.head" {
			if rs, isRange := blk.Stmt.(*ast.RangeStmt); isRange && rs.X == n && isChan(info.TypeOf(rs.X)) {
				a.reportf(rs.Pos(), "range over channel", eff, held)
				return
			}
		}
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.SendStmt:
				a.reportf(x.Pos(), "channel send", eff, held)
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					a.reportf(x.Pos(), "channel receive", eff, held)
				}
			case *ast.CallExpr:
				if reason, isBlocking := a.blockingCall(x); isBlocking {
					a.reportf(x.Pos(), reason, eff, held)
				}
			}
			return true
		})
	})
}

// effectiveHeld drops serializes-io-exempt mutexes from the held set.
func (a *analysis) effectiveHeld(held heldset.Held) []string {
	var out []string
	for id := range held {
		if !a.exemptMu[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func (a *analysis) reportf(pos token.Pos, what string, eff []string, held heldset.Held) {
	since := a.shortPos(held[eff[0]].Pos)
	a.pass.Reportf(pos, "%s while holding %s (held since %s)", what, strings.Join(eff, ", "), since)
}

func (a *analysis) shortPos(pos token.Pos) string {
	p := a.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, isCh := t.Underlying().(*types.Chan)
	return isCh
}

// isSignalChan reports whether t is a channel of empty structs — the
// conventional cancellation/done shape, including ctx.Done()'s.
func isSignalChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, isCh := t.Underlying().(*types.Chan)
	if !isCh {
		return false
	}
	st, isStruct := ch.Elem().Underlying().(*types.Struct)
	return isStruct && st.NumFields() == 0
}

// funcLits collects every func literal under body; each is analyzed as its
// own lock-free-entry body.
func funcLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, isLit := n.(*ast.FuncLit); isLit {
			out = append(out, lit)
		}
		return true
	})
	return out
}
