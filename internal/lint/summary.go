package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// Interprocedural layer, part 2: bottom-up function summaries.
//
// Boolean summaries (Polls, Allocates) are propagated over the SCC
// condensation in callee-first order, iterating inside each SCC to a
// fixpoint so recursion converges. Both take the least fixpoint from false:
// a fact must be witnessed by some path.
//
// On top of the booleans sit two value-level summaries:
//
//   - ceiling taint: a whole-program fixpoint marking every variable,
//     field, parameter and result that may carry a "ceiling-scale" int64 —
//     a value derived from a constant ≥ 2^32 (MaxInt64 sentinels,
//     AutoPenaltyCeiling, Theorem-1 U) through +, -, *, <<. The int-overflow
//     analyzer flags raw arithmetic on such values. Element reads and
//     writes through an index expression deliberately launder taint: the
//     coupling kernels store *clamped* values into slices, so a slice
//     element is at most AutoPenaltyCeiling and a bounded sum of them
//     cannot overflow — this boundary is what keeps the η kernels clean.
//
//   - result intervals: for a single-int-result function, the symbolic
//     interval of its return value expressed over parameter atoms ($n,
//     len($xs)), computed by running the intraprocedural interval dataflow
//     over the callee body and joining at returns. Call sites substitute
//     argument intervals for the atoms, which is how flat-bounds proves
//     indices across call boundaries and int-overflow certifies results
//     like satAdd's hi = AutoPenaltyCeiling.

// scanBase computes the local (non-transitive) facts of one function.
func scanBase(fi *FuncInfo) {
	info := fi.Pkg.Info
	inspectShallow(fi.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPollCall(info, call) {
			fi.pollsBase = true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch {
			case id.Name == "make":
				fi.allocBase = true
			case id.Name == "append" && len(call.Args) > 0 && freshSliceBase(call.Args[0]):
				fi.allocBase = true
			}
		}
		return true
	})
}

// spanContains reports whether pos lies inside the function's source span
// (including the parameter list, so parameter writes count as local).
func (fi *FuncInfo) spanContains(pos token.Pos) bool {
	if fi.Decl != nil {
		return pos >= fi.Decl.Pos() && pos <= fi.Decl.End()
	}
	if fi.Lit != nil {
		return pos >= fi.Lit.Pos() && pos <= fi.Lit.End()
	}
	return false
}

// isPollCall reports a direct cancellation poll: a method call Err or Done
// on a context.Context value. interrupt.Checker.Stop and .Now poll through
// their own bodies (they call c.ctx.Err()), so they need no axiom — the
// transitive closure reaches them like any other helper.
func isPollCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if name := sel.Sel.Name; name != "Err" && name != "Done" {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	return isContextType(s.Recv())
}

// summarize propagates the boolean summaries bottom-up over prog.sccs.
func (prog *Program) summarize() {
	for _, fi := range prog.all {
		scanBase(fi)
	}
	for _, scc := range prog.sccs {
		for {
			changed := false
			for _, fi := range scc {
				polls := fi.pollsBase
				allocs := fi.allocBase
				for _, e := range fi.Edges {
					polls = polls || e.To.Polls
					if !e.Dyn {
						// Dynamic dispatch is a may-call set; charging every
						// tracked closure's allocations to every caller of the
						// dispatching helper (pool.forRange) would drown the
						// hotalloc signal, so Allocates follows static edges.
						allocs = allocs || e.To.Allocates
					}
				}
				if polls != fi.Polls || allocs != fi.Allocates {
					fi.Polls, fi.Allocates = polls, allocs
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// ceilingScale is the taint threshold: any int64 constant at or above 2^32
// is "ceiling-scale". AutoPenaltyCeiling (≈ 5.5·10^11), Theorem-1 U on
// large instances, and the MaxInt64 sentinels all clear it; component
// weights, wire counts and partition capacities never come close.
const ceilingScale = int64(1) << 32

// ceilingFixpoint runs the whole-program taint propagation to a fixpoint:
// local variable taint feeds field stores, argument-to-parameter bindings
// and returns, which feed other functions' local taint on the next pass.
func (prog *Program) ceilingFixpoint() {
	prog.scanTopLevelVars()
	for pass := 0; pass < 32; pass++ {
		changed := false
		for _, fi := range prog.all {
			if prog.taintScan(fi) {
				changed = true
			}
		}
		if prog.scanTopLevelVars() {
			changed = true
		}
		if !changed {
			break
		}
	}
}

// scanTopLevelVars taints package-level variables initialized to
// ceiling-scale expressions.
func (prog *Program) scanTopLevelVars() bool {
	changed := false
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != len(vs.Values) {
						continue
					}
					for i, name := range vs.Names {
						v, _ := pkg.Info.Defs[name].(*types.Var)
						if v == nil || prog.fieldCeil[v] {
							continue
						}
						if prog.exprCeilIn(pkg.Info, localEnv{}, vs.Values[i]) {
							prog.fieldCeil[v] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return changed
}

// taintScan recomputes fi's local taint under the current global maps and
// propagates it outward (fields, parameters, results). Reports whether any
// global fact changed.
func (prog *Program) taintScan(fi *FuncInfo) bool {
	local := prog.localTaintFixpoint(fi)
	prog.localCeil[fi] = local
	info := fi.Pkg.Info
	changed := false
	markField := func(v *types.Var) {
		if v != nil && !prog.fieldCeil[v] {
			prog.fieldCeil[v] = true
			changed = true
		}
	}
	inspectShallow(fi.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			taintingTok := x.Tok == token.ASSIGN || x.Tok == token.DEFINE ||
				x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN ||
				x.Tok == token.MUL_ASSIGN || x.Tok == token.SHL_ASSIGN
			if !taintingTok || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				if !prog.exprCeilIn(info, localEnv{fi, local}, x.Rhs[i]) {
					continue
				}
				lhs = ast.Unparen(lhs)
				if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
					continue // laundering boundary: element stores drop taint
				}
				if id, isIdent := lhs.(*ast.Ident); isIdent {
					if v := localTaintTarget(info, fi, id); v != nil {
						continue // already in the local set
					}
				}
				markField(lvalueVar(info, lhs))
			}
		case *ast.CompositeLit:
			prog.taintCompositeFields(info, localEnv{fi, local}, x, markField)
		case *ast.CallExpr:
			tgts, dyn := prog.funTargets(info, x.Fun)
			if dyn {
				return true
			}
			for _, t := range tgts {
				if t == nil || t.Sig == nil {
					continue
				}
				params := t.Sig.Params()
				np := params.Len()
				if t.Sig.Variadic() {
					np--
				}
				for i := 0; i < np && i < len(x.Args); i++ {
					if prog.exprCeilIn(info, localEnv{fi, local}, x.Args[i]) {
						p := params.At(i)
						if !prog.paramCeil[p] {
							prog.paramCeil[p] = true
							changed = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			if fi.Ceiling {
				return true
			}
			for _, r := range x.Results {
				if prog.exprCeilIn(info, localEnv{fi, local}, r) {
					fi.Ceiling = true
					changed = true
					break
				}
			}
			if len(x.Results) == 0 && fi.Sig != nil {
				// Naked return: taint flows through named result variables.
				res := fi.Sig.Results()
				for i := 0; i < res.Len(); i++ {
					if local[res.At(i)] {
						fi.Ceiling = true
						changed = true
						break
					}
				}
			}
		}
		return true
	})
	return changed
}

func (prog *Program) taintCompositeFields(info *types.Info, env localEnv, cl *ast.CompositeLit, markField func(*types.Var)) {
	tv, ok := info.Types[cl]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range cl.Elts {
		if kv, isKV := el.(*ast.KeyValueExpr); isKV {
			key, isIdent := kv.Key.(*ast.Ident)
			if !isIdent || !prog.exprCeilIn(info, env, kv.Value) {
				continue
			}
			if v, isVar := info.Uses[key].(*types.Var); isVar {
				markField(v)
			}
			continue
		}
		if i < st.NumFields() && prog.exprCeilIn(info, env, el) {
			markField(st.Field(i))
		}
	}
}

// localEnv bundles a function with its local taint set for exprCeilIn.
type localEnv struct {
	fi    *FuncInfo
	local map[*types.Var]bool
}

// localTaintFixpoint computes the flow-insensitive local taint set of fi
// under the current global maps: every local variable assigned (directly
// or via +=, -=, *=, <<=) a ceiling-scale expression.
func (prog *Program) localTaintFixpoint(fi *FuncInfo) map[*types.Var]bool {
	info := fi.Pkg.Info
	local := make(map[*types.Var]bool)
	for {
		changed := false
		env := localEnv{fi, local}
		mark := func(lhs ast.Expr, rhs ast.Expr) {
			if !prog.exprCeilIn(info, env, rhs) {
				return
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return
			}
			if v := localTaintTarget(info, fi, id); v != nil && !local[v] {
				local[v] = true
				changed = true
			}
		}
		inspectShallow(fi.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				switch x.Tok {
				case token.ASSIGN, token.DEFINE,
					token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.SHL_ASSIGN:
					if len(x.Lhs) == len(x.Rhs) {
						for i := range x.Lhs {
							mark(x.Lhs[i], x.Rhs[i])
						}
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for i := range x.Names {
						mark(x.Names[i], x.Values[i])
					}
				}
			}
			return true
		})
		if !changed {
			return local
		}
	}
}

// localTaintTarget resolves id to a variable declared within fi (captured
// and package-level variables propagate through fieldCeil instead).
func localTaintTarget(info *types.Info, fi *FuncInfo, id *ast.Ident) *types.Var {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !fi.spanContains(v.Pos()) {
		return nil
	}
	return v
}

// ExprCeil reports whether e may evaluate to a ceiling-scale int64 inside
// fi, using the converged taint state.
func (prog *Program) ExprCeil(fi *FuncInfo, e ast.Expr) bool {
	return prog.exprCeilIn(fi.Pkg.Info, localEnv{fi, prog.localCeil[fi]}, e)
}

// exprCeilIn is the taint transfer over expressions. Constants decide by
// magnitude; identifiers/fields consult the taint maps; +, -, *, << and
// sign flips propagate; integer division, shifts right, comparisons and —
// crucially — index expressions do not.
func (prog *Program) exprCeilIn(info *types.Info, env localEnv, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		val := constant.ToInt(tv.Value)
		if val.Kind() != constant.Int {
			return false
		}
		c, exact := constant.Int64Val(val)
		if !exact {
			return true // doesn't fit int64: certainly ceiling-scale
		}
		return c >= ceilingScale || c <= -ceilingScale
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			return (env.local != nil && env.local[v]) || prog.paramCeil[v] || prog.fieldCeil[v]
		}
	case *ast.SelectorExpr:
		if v := lvalueVar(info, x); v != nil {
			return prog.fieldCeil[v]
		}
	case *ast.CallExpr:
		tgts, dyn := prog.funTargets(info, x.Fun)
		if dyn {
			return false
		}
		for _, t := range tgts {
			if t != nil && t.Ceiling {
				return true
			}
		}
		// Conversions preserve the operand's taint: int64(x).
		if tv, ok := info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() && len(x.Args) == 1 {
			return prog.exprCeilIn(info, env, x.Args[0])
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return prog.exprCeilIn(info, env, x.X)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.SHL:
			return prog.exprCeilIn(info, env, x.X) || prog.exprCeilIn(info, env, x.Y)
		}
	}
	return false
}

// --- result interval summaries ---------------------------------------------

// resultSummary is the symbolic interval of a function's single integer
// result, expressed over parameter atoms: "$n" for an integer parameter n,
// "len($xs)" for the length of a parameter xs that the body never
// reassigns. Bounds mentioning anything else (receiver fields, locals,
// globals) are dropped at the call site.
type resultSummary struct {
	iv        ival
	intParams map[string]int // "$name" → parameter index
	lenParams map[string]int // "len($name)" → parameter index
}

// ResultSummary computes (and memoizes) the result interval of fn, or nil
// when the function is unknown, recursive, multi-result, non-integer, or
// yields no usable bound. Soundness rides on the prover's atoms-nonnegative
// premise, so call sites must prove every integer argument ≥ 0 before
// substituting (callResultIval does).
func (prog *Program) ResultSummary(fn *types.Func) *resultSummary {
	if rs, ok := prog.results[fn]; ok {
		return rs
	}
	fi := prog.funcs[fn]
	if fi == nil || fi.Sig == nil || prog.resultBusy[fn] {
		return nil // unknown or recursive: no summary (do not cache the busy case)
	}
	res := fi.Sig.Results()
	var resultVar *types.Var
	if res.Len() == 1 {
		resultVar = res.At(0)
	}
	if resultVar == nil || !isIntegerVar(resultVar) {
		prog.results[fn] = nil
		return nil
	}
	prog.resultBusy[fn] = true
	defer delete(prog.resultBusy, fn)

	mutated := mutatedVars(fi.Pkg.Info, fi.Body)
	ii := &intervalInterp{
		info:       fi.Pkg.Info,
		pr:         newProver(),
		prog:       prog,
		paramAtoms: make(map[*types.Var]string),
		lenAtoms:   make(map[*types.Var]string),
	}
	params := fi.Sig.Params()
	for i := 0; i < params.Len(); i++ {
		v := params.At(i)
		if v.Name() == "" || v.Name() == "_" {
			continue
		}
		atom := "$" + v.Name()
		if isIntegerVar(v) {
			// Seeded into the entry environment; sound under mutation since
			// the atom denotes the entry value and transfer tracks the rest.
			ii.paramAtoms[v] = atom
		} else if !mutated[v] {
			// len($v) names the length of an unreassigned slice/map/chan
			// parameter; reassignment would silently change the quantity.
			ii.lenAtoms[v] = atom
		}
	}

	g := fi.Pkg.CFG(fi.Body)
	in := SolveForward[intervalEnv](g, intervalProblem{ii})
	var out ival
	first := true
	for _, b := range g.ReversePostorder() {
		env, ok := in[b]
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			if ret, isRet := n.(*ast.ReturnStmt); isRet {
				var iv ival
				switch {
				case len(ret.Results) == 1:
					iv = ii.eval(env, ret.Results[0])
				case len(ret.Results) == 0 && resultVar.Name() != "":
					iv = env[resultVar]
				}
				if first {
					out, first = iv, false
				} else {
					out = ivalJoin(out, iv, ii.pr)
				}
			}
			env = ii.transferNode(env, n)
		}
	}
	if first || (!out.hasLo && !out.hasHi) {
		prog.results[fn] = nil
		return nil
	}
	rs := &resultSummary{iv: out, intParams: make(map[string]int), lenParams: make(map[string]int)}
	for i := 0; i < params.Len(); i++ {
		v := params.At(i)
		if a, ok := ii.paramAtoms[v]; ok {
			rs.intParams[a] = i
		}
		if a, ok := ii.lenAtoms[v]; ok {
			rs.lenParams[lenSymbol(a)] = i
		}
	}
	prog.results[fn] = rs
	return rs
}

// callResultIval substitutes caller-side argument intervals into the
// callee's result summary. Reports ok = false when no bound survives.
func (prog *Program) callResultIval(caller *intervalInterp, env intervalEnv, call *ast.CallExpr) (ival, bool) {
	tgts, dyn := prog.funTargets(caller.info, call.Fun)
	if dyn || len(tgts) != 1 || tgts[0] == nil || tgts[0].Fn == nil || tgts[0].Sig == nil {
		return ival{}, false
	}
	fi := tgts[0]
	if fi.Sig.Variadic() {
		return ival{}, false
	}
	params := fi.Sig.Params()
	if len(call.Args) != params.Len() {
		return ival{}, false // f(g()) tuple spread
	}
	rs := prog.ResultSummary(fi.Fn)
	if rs == nil {
		return ival{}, false
	}
	argIv := make([]ival, len(call.Args))
	for i, a := range call.Args {
		argIv[i] = caller.eval(env, a)
	}
	// Atoms-nonnegative premise: the callee's derivation may have assumed
	// any of its integer parameter atoms ≥ 0.
	for _, idx := range rs.intParams {
		if !argIv[idx].hasLo || !caller.pr.ge0(argIv[idx].lo) {
			return ival{}, false
		}
	}
	subst := func(p poly, upper bool) (poly, bool) {
		out := poly{}
		// Sorted monomials: the sum is commutative, but failure (a cap hit
		// inside polyAdd/polyMul) must not depend on map iteration order.
		monos := make([]string, 0, len(p))
		for mono := range p {
			monos = append(monos, mono)
		}
		sort.Strings(monos)
		for _, mono := range monos {
			c := p[mono]
			var term poly
			if mono == "" {
				term = polyConst(c)
			} else if idx, isInt := rs.intParams[mono]; isInt {
				av := argIv[idx]
				var bp poly
				if (c > 0) == upper {
					if !av.hasHi {
						return nil, false
					}
					bp = av.hi
				} else {
					if !av.hasLo {
						return nil, false
					}
					bp = av.lo
				}
				var ok bool
				if term, ok = polyMul(bp, polyConst(c)); !ok {
					return nil, false
				}
			} else if idx, isLen := rs.lenParams[mono]; isLen {
				arg := ast.Unparen(call.Args[idx])
				if !caller.pureChain(arg) {
					return nil, false
				}
				var ok bool
				if term, ok = polyMul(polyAtom(lenSymbol(symbolFor(arg))), polyConst(c)); !ok {
					return nil, false
				}
			} else {
				return nil, false // receiver field, local, quotient, product atom
			}
			var ok bool
			if out, ok = polyAdd(out, term); !ok {
				return nil, false
			}
		}
		return out, true
	}
	var r ival
	if rs.iv.hasLo {
		if lo, ok := subst(rs.iv.lo, false); ok {
			r.lo, r.hasLo = lo, true
		}
	}
	if rs.iv.hasHi {
		if hi, ok := subst(rs.iv.hi, true); ok {
			r.hi, r.hasHi = hi, true
		}
	}
	if !r.hasLo && !r.hasHi {
		return ival{}, false
	}
	return r, true
}

// mutatedVars collects variables whose value (not element) may change in
// body: assignment or ++/-- targets, range loop variables reusing existing
// names, and address-taken variables.
func mutatedVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, isVar := obj.(*types.Var); isVar {
			out[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.RangeStmt:
			mark(x.Key)
			mark(x.Value)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if base := rootIdent(x.X); base != nil {
					mark(base)
				}
			}
		}
		return true
	})
	return out
}
