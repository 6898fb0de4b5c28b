package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockBalance runs a CFG dataflow tracking sync.Mutex / sync.RWMutex
// acquire state per lock expression. It reports a Lock whose critical
// section can reach function exit without the matching Unlock on some path
// (unless a deferred release is registered on every such path), and an
// Unlock on a lock the analysis proves was already released.
//
// Write locks (Lock/Unlock) and read locks (RLock/RUnlock) are balanced
// independently; promoted methods through embedding resolve to the same
// sync methods and are handled identically.
var LockBalance = &Analyzer{
	Name:       "lock-balance",
	Doc:        "every sync.Mutex Lock must be released on all paths to function exit",
	NeedsTypes: true,
	Run:        runLockBalance,
}

// lockMethods maps the fully-qualified sync locking methods to their role.
// The value is +1 for acquire, -1 for release; the bool marks the read side
// of an RWMutex.
var lockMethods = map[string]struct {
	delta int
	read  bool
}{
	"(*sync.Mutex).Lock":      {+1, false},
	"(*sync.Mutex).Unlock":    {-1, false},
	"(*sync.RWMutex).Lock":    {+1, false},
	"(*sync.RWMutex).Unlock":  {-1, false},
	"(*sync.RWMutex).RLock":   {+1, true},
	"(*sync.RWMutex).RUnlock": {-1, true},
}

type lockState uint8

const (
	lockUnknown  lockState = iota // not seen / balance unknown (entry state)
	lockHeld                      // acquired on every path reaching here
	lockReleased                  // an Unlock provably executed most recently
	lockMaybe                     // held on some path, not on another
)

// lockFact is the dataflow fact: the state of each lock key plus the locks
// for which a deferred release is registered on every path reaching here,
// and those for which one is registered on every path that may hold them.
// The second set is what the exit check needs: a path that never acquired
// the lock (a nil guard's early return) needs no deferred release.
type lockFact struct {
	state    map[string]lockState
	pos      map[string]token.Pos // earliest acquire site while held/maybe
	deferred map[string]bool      // must-analysis: deferred Unlock registered
	covered  map[string]bool      // deferred Unlock on every path holding the lock
}

func newLockFact() lockFact {
	return lockFact{
		state:    map[string]lockState{},
		pos:      map[string]token.Pos{},
		deferred: map[string]bool{},
		covered:  map[string]bool{},
	}
}

// coveredOn reports whether f's paths that may hold k all registered a
// deferred release (vacuously true when none holds it).
func (f lockFact) coveredOn(k string) bool {
	st := f.state[k]
	return f.covered[k] || (st != lockHeld && st != lockMaybe)
}

func (f lockFact) clone() lockFact {
	c := newLockFact()
	for k, v := range f.state {
		c.state[k] = v
	}
	for k, v := range f.pos {
		c.pos[k] = v
	}
	for k := range f.deferred {
		c.deferred[k] = true
	}
	for k := range f.covered {
		c.covered[k] = true
	}
	return c
}

type lockProblem struct {
	lb *lockInterp
}

func (p lockProblem) Entry() lockFact { return newLockFact() }

func (p lockProblem) Transfer(b *Block, in lockFact) lockFact {
	out := in
	for _, n := range b.Nodes {
		out = p.lb.step(out, n, nil)
	}
	return out
}

func (p lockProblem) Join(a, b lockFact) lockFact {
	j := newLockFact()
	keys := map[string]bool{}
	for k := range a.state {
		keys[k] = true
	}
	for k := range b.state {
		keys[k] = true
	}
	for k := range keys {
		sa, sb := a.state[k], b.state[k]
		switch {
		case sa == sb:
			j.state[k] = sa
		case sa == lockHeld || sb == lockHeld || sa == lockMaybe || sb == lockMaybe:
			j.state[k] = lockMaybe
		default: // unknown vs released: the release is no longer proven
			j.state[k] = lockUnknown
		}
		if a.coveredOn(k) && b.coveredOn(k) {
			j.covered[k] = true
		}
		pa, pb := a.pos[k], b.pos[k]
		switch {
		case pa != token.NoPos && pb != token.NoPos:
			j.pos[k] = min(pa, pb)
		case pa != token.NoPos:
			j.pos[k] = pa
		case pb != token.NoPos:
			j.pos[k] = pb
		}
	}
	// Deferred releases only count when registered on every incoming path.
	for k := range a.deferred {
		if b.deferred[k] {
			j.deferred[k] = true
		}
	}
	return j
}

func (p lockProblem) Equal(a, b lockFact) bool {
	if len(a.state) != len(b.state) || len(a.pos) != len(b.pos) ||
		len(a.deferred) != len(b.deferred) || len(a.covered) != len(b.covered) {
		return false
	}
	for k, v := range a.state {
		if b.state[k] != v {
			return false
		}
	}
	for k, v := range a.pos {
		if b.pos[k] != v {
			return false
		}
	}
	for k := range a.deferred {
		if !b.deferred[k] {
			return false
		}
	}
	for k := range a.covered {
		if !b.covered[k] {
			return false
		}
	}
	return true
}

type lockInterp struct {
	pass *Pass
	info *types.Info
}

func runLockBalance(p *Pass) {
	info := p.Info()
	forEachFuncBody(p, func(body *ast.BlockStmt) {
		analyzeLockBalance(p, info, body)
	})
}

func analyzeLockBalance(p *Pass, info *types.Info, body *ast.BlockStmt) {
	lb := &lockInterp{pass: p, info: info}
	if !lb.mentionsLocks(body) {
		return
	}
	g := p.Pkg.CFG(body)
	in := SolveForward[lockFact](g, lockProblem{lb})

	// Replay blocks for path-sensitive reports (double unlock).
	for _, b := range g.ReversePostorder() {
		fact, ok := in[b]
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			fact = lb.step(fact, n, p)
		}
	}

	// Exit check: any lock held (or maybe held) at exit without a deferred
	// release on every path holding it leaks out of the function.
	exit, ok := in[g.Exit]
	if !ok {
		return
	}
	keys := make([]string, 0, len(exit.state))
	for k := range exit.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := exit.state[k]
		if exit.coveredOn(k) {
			continue
		}
		pos := exit.pos[k]
		if pos == token.NoPos {
			pos = body.Pos()
		}
		verb := "reaches"
		if st == lockMaybe {
			verb = "can reach"
		}
		lb.pass.Reportf(pos, "%s acquired here %s function exit without release", lockKeyLabel(k), verb)
	}
}

// step applies one CFG node; when p is non-nil, double unlocks are
// reported.
func (lb *lockInterp) step(f lockFact, n ast.Node, p *Pass) lockFact {
	switch s := n.(type) {
	case *ast.ExprStmt:
		key, delta, pos, ok := lb.lockOp(s.X)
		if !ok {
			return f
		}
		out := f.clone()
		if delta > 0 {
			out.state[key] = lockHeld
			// Only a release deferred on every path covers this acquire.
			if out.deferred[key] {
				out.covered[key] = true
			} else {
				delete(out.covered, key)
			}
			if cur, have := out.pos[key]; !have || pos < cur {
				out.pos[key] = pos
			}
		} else {
			if p != nil && f.state[key] == lockReleased {
				p.Reportf(pos, "%s released twice on this path", lockKeyLabel(key))
			}
			out.state[key] = lockReleased
			delete(out.pos, key)
		}
		return out
	case *ast.DeferStmt:
		keys := lb.deferredReleases(s)
		if len(keys) == 0 {
			return f
		}
		out := f.clone()
		for _, k := range keys {
			out.deferred[k] = true
			out.covered[k] = true
		}
		return out
	}
	return f
}

// lockOp decodes a call expression as a lock/unlock on a sync primitive.
// The key is the rendered receiver expression, suffixed for the read side.
func (lb *lockInterp) lockOp(e ast.Expr) (key string, delta int, pos token.Pos, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", 0, token.NoPos, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, token.NoPos, false
	}
	fn, isFn := lb.info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", 0, token.NoPos, false
	}
	op, known := lockMethods[fn.FullName()]
	if !known {
		return "", 0, token.NoPos, false
	}
	key = renderNode(sel.X)
	if op.read {
		key += "\x00R"
	}
	return key, op.delta, call.Pos(), true
}

// deferredReleases returns the lock keys a defer statement releases: either
// `defer mu.Unlock()` directly, or unlock calls inside an immediately
// deferred function literal.
func (lb *lockInterp) deferredReleases(s *ast.DeferStmt) []string {
	if key, delta, _, ok := lb.lockOp(s.Call); ok && delta < 0 {
		return []string{key}
	}
	lit, isLit := ast.Unparen(s.Call.Fun).(*ast.FuncLit)
	if !isLit {
		return nil
	}
	var keys []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		es, isExpr := n.(*ast.ExprStmt)
		if !isExpr {
			return true
		}
		if key, delta, _, ok := lb.lockOp(es.X); ok && delta < 0 {
			keys = append(keys, key)
		}
		return true
	})
	return keys
}

// mentionsLocks is a cheap pre-filter so functions without sync calls skip
// the dataflow entirely.
func (lb *lockInterp) mentionsLocks(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		if fn, ok := lb.info.Uses[sel.Sel].(*types.Func); ok {
			if _, known := lockMethods[fn.FullName()]; known {
				found = true
			}
		}
		return !found
	})
	return found
}

// lockKeyLabel renders a lock key back to source form for diagnostics.
func lockKeyLabel(key string) string {
	if expr, read := cutLockSuffix(key); read {
		return "read lock " + expr
	} else {
		return "mutex " + expr
	}
}

func cutLockSuffix(key string) (string, bool) {
	const suffix = "\x00R"
	if len(key) > len(suffix) && key[len(key)-len(suffix):] == suffix {
		return key[:len(key)-len(suffix)], true
	}
	return key, false
}
