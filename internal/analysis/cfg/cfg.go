// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies for the paylint concurrency analyzers. Like the rest of
// internal/analysis it is a stdlib-only re-implementation of the
// golang.org/x/tools shape (here go/cfg), sized to what lockorder and
// chanhold's held-lock dataflow and golife's loop-exit reasoning need.
//
// A CFG is a list of basic blocks connected by Succs edges. Block.Nodes
// holds the straight-line operations of the block in execution order:
// simple statements plus the condition expressions of if/for headers.
// Nodes never contains a compound statement, so walking a block's nodes
// with ast.Inspect visits each operation exactly once — with one
// deliberate exception: analyzers must skip *ast.FuncLit subtrees, which
// belong to a different function's CFG.
//
// Control context that dataflow needs but flat nodes cannot carry rides on
// the block itself: a range header block (Kind "range.head") records its
// *ast.RangeStmt in Stmt, and a select clause block (Kind "select.case" /
// "select.default") records its *ast.CommClause in Stmt and the owning
// *ast.SelectStmt in Sel, so an analyzer seeing a communication op knows it
// is one arm of a select rather than an unconditional block.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block.
type Block struct {
	Index int
	// Kind names the construct that created the block, e.g. "entry",
	// "if.then", "for.head", "range.body", "select.default", "exit".
	Kind string
	// Stmt is the construct-level statement some kinds carry: the
	// *ast.RangeStmt for "range.head", the *ast.CommClause for select
	// clauses, the *ast.CaseClause for switch cases.
	Stmt ast.Stmt
	// Sel is the owning select statement for "select.*" blocks.
	Sel *ast.SelectStmt
	// Nodes are the block's operations in execution order.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block // in creation order; Blocks[i].Index == i
	Entry  *Block
	// Exit is the single virtual exit block every return reaches (and the
	// fall-off end of the body). Deferred calls conceptually run here.
	Exit *Block
}

// New builds the CFG of a function body.
func New(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &builder{cfg: g, labels: make(map[string]*Block)}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.cur = g.Entry
	b.stmtList(body.List)
	b.linkCur(g.Exit)
	return g
}

// frame is one break/continue context (loop, switch, or select).
type frame struct {
	label          string
	breakTarget    *Block
	continueTarget *Block // nil for switch/select frames
}

type builder struct {
	cfg               *CFG
	cur               *Block // nil after a terminator (return/break/goto/...)
	frames            []frame
	labels            map[string]*Block // goto/label targets
	pendingLabel      string            // label of the construct about to be built
	fallthroughTarget *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func edge(from, to *Block) { from.Succs = append(from.Succs, to) }

// linkCur adds an edge from the current block (when reachable) to target
// and terminates the current block.
func (b *builder) linkCur(target *Block) {
	if b.cur != nil {
		edge(b.cur, target)
	}
	b.cur = nil
}

// add appends an operation to the current block, reviving an unreachable
// region into a disconnected block so dead code still gets analyzed.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// seq moves the current position to next, linking from cur when reachable.
func (b *builder) seq(next *Block) {
	if b.cur != nil {
		edge(b.cur, next)
	}
	b.cur = next
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.pendingLabel = ""
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock("if.then")
		edge(cond, then)
		var elseBlk *Block
		if s.Else != nil {
			elseBlk = b.newBlock("if.else")
			edge(cond, elseBlk)
		}
		join := b.newBlock("if.join")
		if s.Else == nil {
			edge(cond, join)
		}
		b.cur = then
		b.stmt(s.Body)
		b.linkCur(join)
		if s.Else != nil {
			b.cur = elseBlk
			b.stmt(s.Else)
			b.linkCur(join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			edge(post, head)
		}
		b.seq(head)
		if s.Cond != nil {
			b.add(s.Cond)
			edge(head, done)
		}
		edge(head, body)
		cont := head
		if post != nil {
			cont = post
		}
		b.frames = append(b.frames, frame{label: label, breakTarget: done, continueTarget: cont})
		b.cur = body
		b.stmt(s.Body)
		b.linkCur(cont)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		head.Stmt = s
		head.Nodes = append(head.Nodes, s.X)
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.seq(head)
		edge(head, body)
		edge(head, done)
		b.frames = append(b.frames, frame{label: label, breakTarget: done, continueTarget: head})
		b.cur = body
		b.stmt(s.Body)
		b.linkCur(head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.buildSwitch(label, s.Body, "switch")

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.buildSwitch(label, s.Body, "typeswitch")

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.cur
		if sel == nil {
			sel = b.newBlock("unreachable")
			b.cur = sel
		}
		join := b.newBlock("select.done")
		b.frames = append(b.frames, frame{label: label, breakTarget: join})
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			cb := b.newBlock(kind)
			cb.Stmt = cc
			cb.Sel = s
			edge(sel, cb)
			if cc.Comm != nil {
				cb.Nodes = append(cb.Nodes, cc.Comm)
			}
			b.cur = cb
			b.stmtList(cc.Body)
			b.linkCur(join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		// A select with no clauses blocks forever; its join is unreachable.
		b.cur = join
		if len(s.Body.List) == 0 {
			b.cur.Kind = "select.blocked"
		}

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.seq(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.linkCur(b.cfg.Exit)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.linkCur(f.breakTarget)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.linkCur(f.continueTarget)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			b.linkCur(b.labelBlock(s.Label.Name))
		case token.FALLTHROUGH:
			b.linkCur(b.fallthroughTarget)
		}

	default:
		// Simple statements: assignments, expressions, sends, go, defer,
		// declarations, inc/dec, empty.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// buildSwitch shares the clause wiring of switch and type switch.
func (b *builder) buildSwitch(label string, body *ast.BlockStmt, kind string) {
	sw := b.cur
	if sw == nil {
		sw = b.newBlock("unreachable")
		b.cur = sw
	}
	join := b.newBlock(kind + ".done")
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		k := kind + ".case"
		if cc.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(k)
		blocks[i].Stmt = cc
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		edge(sw, blocks[i])
	}
	if !hasDefault {
		edge(sw, join)
	}
	b.frames = append(b.frames, frame{label: label, breakTarget: join})
	savedFT := b.fallthroughTarget
	for i, cc := range clauses {
		b.fallthroughTarget = nil
		if i+1 < len(blocks) {
			b.fallthroughTarget = blocks[i+1]
		}
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		b.linkCur(join)
	}
	b.fallthroughTarget = savedFT
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

// findFrame resolves a break (continueOnly=false) or continue
// (continueOnly=true) target, honoring an optional label.
func (b *builder) findFrame(label *ast.Ident, continueOnly bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if continueOnly && f.continueTarget == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}
