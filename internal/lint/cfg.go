package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// This file builds per-function control-flow graphs, the substrate every
// dataflow analyzer (map-order-leak, lock-balance, flat-bounds) runs on.
// The builder covers the full Go statement surface the solver code uses:
// if/for/range/switch/select, goto and labeled break/continue, defer, and
// short-circuit && / || (conditions are decomposed into one block per leaf
// so edge facts can be refined per comparison).

// Block is one basic block: a maximal straight-line sequence of statements
// (and condition leaves) with branching only at the end.
//
// Edge ordering is part of the contract: when Cond is non-nil the block
// ends in a two-way branch and Succs[0] is the true edge, Succs[1] the
// false edge. A range head (Kind "range.head") likewise has Succs[0] enter
// the loop body and Succs[1] leave it.
type Block struct {
	Index int
	Kind  string     // "entry", "exit", "if.then", "for.head", ... (stable, used by golden tests)
	Nodes []ast.Node // statements and condition expressions in execution order
	Cond  ast.Expr   // the branch condition leaf, when this block branches
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body. Exit is the single
// synthetic exit block every return, panic and fall-off-the-end reaches.
// Deferred calls are not spliced into the exit edges; a defer statement is
// an ordinary node of the block it appears in.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// BuildCFG constructs the CFG of one function body. It never fails: constructs
// the builder does not model precisely (e.g. recover-based resumption) degrade
// to conservative extra edges, not errors.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		labels: make(map[string]*labelInfo),
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = &Block{Kind: "exit"}
	b.cur = b.newBlock("body")
	b.edge(b.g.Entry, b.cur)
	b.stmtList(body.List)
	b.terminate(b.g.Exit) // fall off the end
	// Place the exit block last and index it.
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

// labelInfo tracks one label: the goto target block and, when the label
// names a loop/switch/select, the break/continue destinations.
type labelInfo struct {
	target     *Block // goto destination (also the loop head for labeled loops)
	breakTo    *Block
	continueTo *Block
}

// loopCtx is the enclosing break/continue context (innermost last).
type loopCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block // nil after a terminator until the next block starts
	loops  []loopCtx
	labels map[string]*labelInfo
	// fallthroughTo is the next case body while building a switch case.
	fallthroughTo *Block
	// pendingLabel carries a label name into the immediately following
	// loop/switch statement so labeled break/continue can resolve to it.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// block returns the current block, reviving an unreachable one after a
// terminator (dead code still needs a home so analyzers can see it).
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

// terminate ends the current block with an edge to dst (if reachable).
func (b *cfgBuilder) terminate(dst *Block) {
	if b.cur != nil {
		b.edge(b.cur, dst)
	}
	b.cur = nil
}

func (b *cfgBuilder) add(n ast.Node) { blk := b.block(); blk.Nodes = append(blk.Nodes, n) }

// takeLabel consumes the pending label of a labeled loop/switch/select so
// nested statements do not inherit it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// setLoopLabel records the break/continue destinations of a labeled
// statement, preserving the goto target the enclosing LabeledStmt placed.
func (b *cfgBuilder) setLoopLabel(label string, target, breakTo, continueTo *Block) {
	li := b.labels[label]
	if li == nil {
		li = &labelInfo{target: target}
		b.labels[label] = li
	}
	li.breakTo = breakTo
	li.continueTo = continueTo
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if _, isLoop := s.(*ast.LabeledStmt); !isLoop {
		defer func() { b.pendingLabel = "" }()
	}
	switch s := s.(type) {
	case *ast.DeclStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
		b.add(s)
	case *ast.EmptyStmt:
		// nothing
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.terminate(b.g.Exit)
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.terminate(b.g.Exit)
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	default:
		b.add(s)
	}
}

// cond decomposes a condition into leaf blocks: short-circuit && and ||
// become explicit branches, so every leaf comparison gets its own block
// with [true, false] successor edges dataflow can refine on.
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock("cond.and")
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock("cond.or")
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	blk := b.block()
	blk.Nodes = append(blk.Nodes, e)
	blk.Cond = ast.Unparen(e)
	b.edge(blk, t)
	b.edge(blk, f)
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	then := b.newBlock("if.then")
	after := b.newBlock("if.after")
	var alt *Block
	if s.Else != nil {
		alt = b.newBlock("if.else")
	} else {
		alt = after
	}
	b.cond(s.Cond, then, alt)
	b.cur = then
	b.stmtList(s.Body.List)
	b.terminate(after)
	if s.Else != nil {
		b.cur = alt
		b.stmt(s.Else)
		b.terminate(after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	contTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		contTo = post
	}
	b.terminate(head)
	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, after)
	} else {
		b.terminate(body)
	}
	if label != "" {
		b.setLoopLabel(label, head, after, contTo)
	}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: contTo})
	b.cur = body
	b.stmtList(s.Body.List)
	b.terminate(contTo)
	b.loops = b.loops[:len(b.loops)-1]
	if post != nil {
		b.cur = post
		b.add(s.Post)
		b.terminate(head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	b.terminate(head)
	head.Nodes = append(head.Nodes, s)
	b.edge(head, body)  // Succs[0]: next element
	b.edge(head, after) // Succs[1]: exhausted
	if label != "" {
		b.setLoopLabel(label, head, after, head)
	}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.terminate(head)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause, blk *Block) {
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
	})
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause, blk *Block) {
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
	})
}

// caseClauses lowers a (type) switch body: a chain of test blocks, one per
// clause, each branching to its case body or the next test; the default
// clause (or fall-off) closes the chain. fallthrough edges go body→body.
func (b *cfgBuilder) caseClauses(clauses []ast.Stmt, label string, addTests func(*ast.CaseClause, *Block)) {
	after := b.newBlock("switch.after")
	if label != "" {
		b.setLoopLabel(label, b.block(), after, nil)
	}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})

	var cases []*ast.CaseClause
	var defaultCase *ast.CaseClause
	for _, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			defaultCase = cc
		} else {
			cases = append(cases, cc)
		}
	}
	// Bodies first, so fallthrough targets exist while tests are wired.
	bodies := make(map[*ast.CaseClause]*Block)
	for _, cc := range cases {
		bodies[cc] = b.newBlock("case.body")
	}
	if defaultCase != nil {
		bodies[defaultCase] = b.newBlock("case.default")
	}
	// Test chain.
	for _, cc := range cases {
		test := b.newBlock("case.test")
		b.terminate(test)
		b.cur = test
		addTests(cc, test)
		b.edge(test, bodies[cc])
		b.cur = test // next edge continues the chain
	}
	// Last test (or the head when there are no cases) falls to default/after.
	if defaultCase != nil {
		b.terminate(bodies[defaultCase])
	} else {
		b.terminate(after)
	}
	// Case bodies, in source order so fallthrough finds the next body.
	ordered := make([]*ast.CaseClause, 0, len(clauses))
	for _, cs := range clauses {
		ordered = append(ordered, cs.(*ast.CaseClause))
	}
	for i, cc := range ordered {
		b.cur = bodies[cc]
		if i+1 < len(ordered) {
			b.fallthroughTo = bodies[ordered[i+1]]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(cc.Body)
		b.terminate(after)
	}
	b.fallthroughTo = nil
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.block()
	head.Kind = "select.head"
	after := b.newBlock("select.after")
	if label != "" {
		b.setLoopLabel(label, head, after, nil)
	}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CommClause)
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.terminate(after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	// A select with no clauses blocks forever: after is unreachable, which
	// the graph represents faithfully (no head→after edge).
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	// A label is a goto target even when nothing loops on it; create (or
	// adopt) its block so forward gotos resolve.
	li := b.labels[name]
	target := b.newBlock("label." + name)
	if li != nil && li.target != nil {
		// Forward goto already made a placeholder: redirect it here.
		placeholder := li.target
		for _, p := range placeholder.Preds {
			for i, sc := range p.Succs {
				if sc == placeholder {
					p.Succs[i] = target
				}
			}
			target.Preds = append(target.Preds, p)
		}
		placeholder.Preds = nil
		placeholder.Kind = "label.dead"
	}
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	li.target = target
	b.terminate(target)
	b.cur = target
	b.pendingLabel = name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.breakTo != nil {
				b.terminate(li.breakTo)
				return
			}
			// Labeled loop not yet built (label on a following statement):
			// resolve via the loop stack by name.
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].label == s.Label.Name {
					b.terminate(b.loops[i].breakTo)
					return
				}
			}
			b.cur = nil
			return
		}
		for i := len(b.loops) - 1; i >= 0; i-- {
			b.terminate(b.loops[i].breakTo)
			return
		}
		b.cur = nil
	case token.CONTINUE:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.continueTo != nil {
				b.terminate(li.continueTo)
				return
			}
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].label == s.Label.Name && b.loops[i].continueTo != nil {
					b.terminate(b.loops[i].continueTo)
					return
				}
			}
			b.cur = nil
			return
		}
		for i := len(b.loops) - 1; i >= 0; i-- {
			if b.loops[i].continueTo != nil {
				b.terminate(b.loops[i].continueTo)
				return
			}
		}
		b.cur = nil
	case token.GOTO:
		if s.Label == nil {
			b.cur = nil
			return
		}
		li := b.labels[s.Label.Name]
		if li == nil || li.target == nil {
			// Forward goto: park an placeholder the label will adopt.
			li = &labelInfo{target: b.newBlock("label." + s.Label.Name + ".pending")}
			b.labels[s.Label.Name] = li
		}
		b.terminate(li.target)
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.terminate(b.fallthroughTo)
		} else {
			b.cur = nil
		}
	}
}

// isPanicCall reports whether e is a call to the builtin panic. Without type
// information this is syntactic; a local function named panic is rare enough
// (and forbidden by panic-in-library anyway) that the over-approximation is
// harmless for control flow.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the canonical iteration order for forward dataflow.
func (g *CFG) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks)+1)
	var order []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if b.Index < len(seen) && seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
		order = append(order, b)
	}
	visit(g.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// LoopHeads returns the set of blocks that are targets of a back edge under
// the reverse-postorder numbering — the widening points of the interval
// analysis.
func (g *CFG) LoopHeads() map[*Block]bool {
	rpo := g.ReversePostorder()
	num := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		num[b] = i
	}
	heads := make(map[*Block]bool)
	for _, b := range rpo {
		for _, s := range b.Succs {
			if ns, ok := num[s]; ok && ns <= num[b] {
				heads[s] = true
			}
		}
	}
	return heads
}

// String renders the graph one block per line:
//
//	b1 for.head [i < n] -> b2 b4
//
// Conditional blocks print the condition; the successor order is the edge
// order (true first). Used by the golden CFG tests and for debugging.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		if blk.Kind == "label.dead" {
			continue // placeholder emptied by label adoption
		}
		fmt.Fprintf(&sb, "b%d %s", blk.Index, blk.Kind)
		if blk.Cond != nil {
			fmt.Fprintf(&sb, " [%s]", renderNode(blk.Cond))
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// renderNode prints an AST node as compact single-line source.
func renderNode(n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := buf.String()
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
