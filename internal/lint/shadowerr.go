package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShadowErr flags the classic shadowed-error bug: an inner `:=` rebinds an
// error variable that also exists in an enclosing function scope, and the
// OUTER variable is read again after the inner scope has closed — so
// whatever the shadowed assignment produced is invisible to the later
// check, which silently consults stale state. Runs on test files too (via
// the loader's combined type-check): table-driven tests redefine err in
// nested blocks constantly and are where this bug hides best.
//
// "Read again" follows control flow: a read counts only when a path runs
// from the shadowing statement to it without writing the outer variable
// first. So a later `x, err := g()` (a write, not a read) followed by its
// own check is clean, and so is a check on a sibling branch the shadowing
// block never falls into.
//
// Shadows introduced in an if/for/switch init clause
// (`if err := f(); err != nil`) are exempt: there the declaration is
// syntactically bound to its own check, which is the idiom Go recommends
// precisely to LIMIT scope — confusing it with the outer variable is not
// plausible.
var ShadowErr = &Analyzer{
	Name:         "shadow-err",
	Doc:          "an inner err := shadowing an outer error later re-checked reads stale state",
	NeedsTypes:   true,
	IncludeTests: true,
	Run:          runShadowErr,
}

func runShadowErr(p *Pass) {
	info := p.Info()
	errType := types.Universe.Lookup("error").Type()

	// Collect the identifiers written by = or := (they are not reads) and
	// the init-clause assignments, whose shadows are idiomatic.
	written := make(map[*ast.Ident]bool)
	initStmts := make(map[ast.Stmt]bool)
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
					for _, lhs := range s.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							written[id] = true
						}
					}
				}
			case *ast.IfStmt:
				initStmts[s.Init] = true
			case *ast.ForStmt:
				initStmts[s.Init] = true
			case *ast.SwitchStmt:
				initStmts[s.Init] = true
			case *ast.TypeSwitchStmt:
				initStmts[s.Init] = true
			}
			return true
		})
	}

	// Index every read reference per variable object.
	readPos := make(map[types.Object][]token.Pos)
	for id, obj := range info.Uses {
		if _, isVar := obj.(*types.Var); isVar && !written[id] {
			readPos[obj] = append(readPos[obj], id.Pos())
		}
	}

	forEachFuncBody(p, func(body *ast.BlockStmt) {
		inspectShallow(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE || initStmts[as] {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				inner, ok := info.Defs[id].(*types.Var)
				if !ok || !types.Identical(inner.Type(), errType) {
					continue
				}
				outer := shadowedVar(inner, id.Name)
				if outer == nil || !types.Identical(outer.Type(), errType) {
					continue
				}
				// Only function-local outers: shadowing a package-level
				// error variable and reading it later is a different (and
				// rarer) story than the stale-err pattern.
				if outer.Parent() == nil || outer.Parent().Parent() == types.Universe {
					continue
				}
				// The bug needs the outer value to be consulted after the
				// inner binding's scope has ended; reads before (or none)
				// cannot observe stale state.
				scopeEnd := inner.Parent().End()
				var late []token.Pos
				for _, pos := range readPos[outer] {
					if pos >= scopeEnd {
						late = append(late, pos)
					}
				}
				if len(late) == 0 || !staleReadReachable(p, info, body, as, outer, late) {
					continue
				}
				p.Reportf(id.Pos(), "%s := shadows %s from an enclosing scope; the check after this block reads the outer (stale) value", id.Name, id.Name)
			}
			return true
		})
	})
}

// staleReadReachable reports whether one of the late reads of outer can
// run after the shadowing statement as with no write of outer in between.
// A read on a sibling branch never follows the shadow, and a read after
// `x, err := g()` sees g's error, not a stale one; both are cleared here.
// When outer belongs to an enclosing function (the shadow sits in a
// closure), the positional verdict stands.
func staleReadReachable(p *Pass, info *types.Info, body *ast.BlockStmt, as *ast.AssignStmt, outer *types.Var, late []token.Pos) bool {
	if outer.Pos() < body.Pos() || outer.Pos() >= body.End() {
		return true
	}
	reads := func(n ast.Node) bool {
		lo, hi := n.Pos(), n.End()
		if r, ok := n.(*ast.RangeStmt); ok {
			lo, hi = r.X.Pos(), r.X.End() // the range head evaluates only X
		}
		for _, pos := range late {
			if pos >= lo && pos < hi {
				return true
			}
		}
		return false
	}
	writes := func(n ast.Node) bool {
		w, ok := n.(*ast.AssignStmt)
		if !ok || (w.Tok != token.ASSIGN && w.Tok != token.DEFINE) {
			return false
		}
		for _, lhs := range w.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && info.Uses[id] == types.Object(outer) {
				return true
			}
		}
		return false
	}
	g := p.Pkg.CFG(body)
	var start *Block
	from := 0
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == ast.Node(as) {
				start, from = b, i+1
			}
		}
	}
	if start == nil {
		return true
	}
	// Forward search from just after the shadow; a write of outer ends a
	// path, a read of it is the stale read.
	seen := make(map[*Block]bool)
	queue := []*Block{start}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		killed := false
		for _, n := range b.Nodes[from:] {
			if reads(n) {
				return true
			}
			if writes(n) {
				killed = true
				break
			}
		}
		from = 0
		if killed {
			continue
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}

// shadowedVar finds the variable named name in a scope strictly enclosing
// inner's own scope, visible at inner's position.
func shadowedVar(inner *types.Var, name string) *types.Var {
	scope := inner.Parent()
	if scope == nil || scope.Parent() == nil {
		return nil
	}
	_, obj := scope.Parent().LookupParent(name, inner.Pos())
	if obj == nil || obj == inner {
		return nil
	}
	v, _ := obj.(*types.Var)
	return v
}
