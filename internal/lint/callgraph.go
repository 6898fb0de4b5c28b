package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Interprocedural layer, part 1: the module-internal call graph.
//
// A Program is the whole-run view over every package the loader has
// type-checked: one FuncInfo per declared function/method and per function
// literal, connected by resolved call edges. Resolution is CHA-style over
// the existing go/types info:
//
//   - direct calls (idents, package-qualified names, concrete-receiver
//     methods) resolve to their single definition;
//   - interface method calls fan out to every module-internal method with
//     the same name whose receiver type implements the interface;
//   - calls through function values (the Options callback fields, worker
//     closures handed to pool.forRange, ...) fan out to every function
//     ever stored into that variable, field or parameter, collected by a
//     whole-program store/argument-binding pass.
//
// Dyn marks an edge from function-value dispatch (a "may call one of
// these" set, excluded from must-not-allocate propagation). Calls the graph
// cannot resolve (standard library, method values, channels of closures)
// simply contribute no edge.
type Program struct {
	modPath string
	pkgs    []*Package

	funcs map[*types.Func]*FuncInfo
	lits  map[*ast.FuncLit]*FuncInfo
	all   []*FuncInfo // stable (package dir, file, position) order

	// varFuncs is the function-value tracking table: every function or
	// literal ever stored into a variable, struct field or parameter.
	varFuncs map[*types.Var][]*FuncInfo

	sccs  [][]*FuncInfo // Tarjan output, callee-first (bottom-up) order
	reach map[*FuncInfo]bool

	// Ceiling-taint state (see summary.go).
	fieldCeil map[*types.Var]bool
	paramCeil map[*types.Var]bool

	results    map[*types.Func]*resultSummary
	resultBusy map[*types.Func]bool
	localCeil  map[*FuncInfo]map[*types.Var]bool
}

// FuncInfo is one function in the Program: a declared function or method
// (Fn != nil) or a function literal (Lit != nil).
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package
	Body *ast.BlockStmt
	Sig  *types.Signature

	Edges []CallEdge

	// Bottom-up summaries over the SCC condensation (see summary.go).
	Polls     bool // may reach a cancellation poll (ctx.Err/ctx.Done)
	Allocates bool // may make() or append onto a fresh slice (static paths)
	Ceiling   bool // result may carry a ceiling-scale int64 (see taint)

	pollsBase bool
	allocBase bool

	// Tarjan scratch.
	index, lowlink int
	onStack        bool
}

// Name returns a human-readable identifier for diagnostics.
func (fi *FuncInfo) Name() string {
	if fi.Fn != nil {
		return fi.Fn.Name()
	}
	return "func literal"
}

// CallEdge is one resolved call site target.
type CallEdge struct {
	To  *FuncInfo
	Dyn bool // dispatched through a tracked function value
}

// Program returns the interprocedural view over every package loaded so
// far, rebuilt only when new packages have been loaded since the last call.
func (l *Loader) Program() *Program {
	if l.prog != nil && l.progGen == len(l.pkgs) {
		return l.prog
	}
	dirs := make([]string, 0, len(l.pkgs))
	for d := range l.pkgs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, d := range dirs {
		if p := l.pkgs[d]; p.Info != nil {
			pkgs = append(pkgs, p)
		}
	}
	l.prog = buildProgram(l.ModPath, pkgs)
	l.progGen = len(l.pkgs)
	return l.prog
}

func buildProgram(modPath string, pkgs []*Package) *Program {
	prog := &Program{
		modPath:    modPath,
		pkgs:       pkgs,
		funcs:      make(map[*types.Func]*FuncInfo),
		lits:       make(map[*ast.FuncLit]*FuncInfo),
		varFuncs:   make(map[*types.Var][]*FuncInfo),
		reach:      make(map[*FuncInfo]bool),
		fieldCeil:  make(map[*types.Var]bool),
		paramCeil:  make(map[*types.Var]bool),
		results:    make(map[*types.Func]*resultSummary),
		resultBusy: make(map[*types.Func]bool),
		localCeil:  make(map[*FuncInfo]map[*types.Var]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil || d.Body == nil {
						return true
					}
					sig, _ := fn.Type().(*types.Signature)
					fi := &FuncInfo{Fn: fn, Decl: d, Pkg: pkg, Body: d.Body, Sig: sig}
					prog.funcs[fn] = fi
					prog.all = append(prog.all, fi)
				case *ast.FuncLit:
					sig, _ := pkg.Info.Types[d].Type.(*types.Signature)
					fi := &FuncInfo{Lit: d, Pkg: pkg, Body: d.Body, Sig: sig}
					prog.lits[d] = fi
					prog.all = append(prog.all, fi)
				}
				return true
			})
		}
	}
	prog.trackFuncValues()
	for _, fi := range prog.all {
		prog.buildEdges(fi)
	}
	prog.tarjan()
	prog.summarize()
	prog.findReachable()
	prog.ceilingFixpoint()
	return prog
}

// FuncsOf returns the package's functions and literals in source order.
func (prog *Program) FuncsOf(pkg *Package) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range prog.all {
		if fi.Pkg == pkg {
			out = append(out, fi)
		}
	}
	return out
}

// FuncOf maps a declared function object to its FuncInfo (nil if unknown).
func (prog *Program) FuncOf(fn *types.Func) *FuncInfo { return prog.funcs[fn] }

// Reachable reports whether fi is reachable from a solver entry point.
func (prog *Program) Reachable(fi *FuncInfo) bool { return prog.reach[fi] }

// trackFuncValues records, for every variable/field/parameter, the set of
// functions ever stored into it: plain assignments, var declarations,
// composite-literal fields (keyed and positional), and function-typed
// arguments bound to the parameters of statically-resolved callees.
// Variable-to-variable copies (poll := func(){...}; Options{On: poll}) are
// collected as edges and resolved to a fixpoint afterwards, so the set is
// insensitive to the order stores appear in the source.
func (prog *Program) trackFuncValues() {
	copies := make(map[*types.Var][]*types.Var) // dst <- srcs
	for _, pkg := range prog.pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					if len(x.Lhs) == len(x.Rhs) {
						for i := range x.Lhs {
							prog.recordStore(info, copies, x.Lhs[i], x.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					if len(x.Names) == len(x.Values) {
						for i := range x.Names {
							prog.recordStore(info, copies, x.Names[i], x.Values[i])
						}
					}
				case *ast.CompositeLit:
					prog.recordCompositeStores(info, copies, x)
				case *ast.CallExpr:
					prog.recordArgBindings(info, copies, x)
				}
				return true
			})
		}
	}
	prog.propagateCopies(copies)
}

// propagateCopies folds the functions known for each copy source into its
// destinations until nothing changes.
func (prog *Program) propagateCopies(copies map[*types.Var][]*types.Var) {
	for changed := true; changed; {
		changed = false
		for dst, srcs := range copies {
			have := make(map[*FuncInfo]bool, len(prog.varFuncs[dst]))
			for _, fi := range prog.varFuncs[dst] {
				have[fi] = true
			}
			for _, src := range srcs {
				for _, fi := range prog.varFuncs[src] {
					if !have[fi] {
						have[fi] = true
						prog.varFuncs[dst] = append(prog.varFuncs[dst], fi)
						changed = true
					}
				}
			}
		}
	}
}

func (prog *Program) recordStore(info *types.Info, copies map[*types.Var][]*types.Var, lhs ast.Expr, rhs ast.Expr) {
	v := lvalueVar(info, lhs)
	if v == nil {
		return
	}
	if tgts := prog.funcValues(info, rhs); len(tgts) > 0 {
		prog.varFuncs[v] = append(prog.varFuncs[v], tgts...)
	} else if src := funcVarRef(info, rhs); src != nil {
		copies[v] = append(copies[v], src)
	}
}

// funcVarRef resolves an expression to a function-typed variable it reads,
// for the copy-propagation pass.
func funcVarRef(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
				return v
			}
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
				return v
			}
		}
	}
	return nil
}

func (prog *Program) recordCompositeStores(info *types.Info, copies map[*types.Var][]*types.Var, cl *ast.CompositeLit) {
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
			if !isIdent {
				continue
			}
			if v, isVar := info.Uses[key].(*types.Var); isVar {
				if tgts := prog.funcValues(info, kv.Value); len(tgts) > 0 {
					prog.varFuncs[v] = append(prog.varFuncs[v], tgts...)
				} else if src := funcVarRef(info, kv.Value); src != nil {
					copies[v] = append(copies[v], src)
				}
			}
			continue
		}
		if i < st.NumFields() {
			if tgts := prog.funcValues(info, el); len(tgts) > 0 {
				prog.varFuncs[st.Field(i)] = append(prog.varFuncs[st.Field(i)], tgts...)
			} else if src := funcVarRef(info, el); src != nil {
				copies[st.Field(i)] = append(copies[st.Field(i)], src)
			}
		}
	}
}

// recordArgBindings binds function-typed arguments of statically-resolved
// calls to the callee's parameters, so later calls *through* the parameter
// resolve (the pool.forRange(n, fn) pattern).
func (prog *Program) recordArgBindings(info *types.Info, copies map[*types.Var][]*types.Var, call *ast.CallExpr) {
	tgts, dyn := prog.funTargets(info, call.Fun)
	if dyn || len(tgts) != 1 || tgts[0] == nil || tgts[0].Sig == nil {
		return
	}
	params := tgts[0].Sig.Params()
	n := params.Len()
	if tgts[0].Sig.Variadic() {
		n-- // skip the variadic tail: one param, many args
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		if tgts := prog.funcValues(info, call.Args[i]); len(tgts) > 0 {
			prog.varFuncs[params.At(i)] = append(prog.varFuncs[params.At(i)], tgts...)
		} else if src := funcVarRef(info, call.Args[i]); src != nil {
			copies[params.At(i)] = append(copies[params.At(i)], src)
		}
	}
}

// funcValues resolves an expression to the function values it may denote:
// what funcValue sees directly, plus — for a call with a single static
// target returning one function-typed result — the functions returned by
// the callee's return statements. That is how a constructed callback
// (OnProgress: progressPrinter(w, d)) connects to the literal inside the
// constructor.
func (prog *Program) funcValues(info *types.Info, e ast.Expr) []*FuncInfo {
	if tgt := prog.funcValue(info, e); tgt != nil {
		return []*FuncInfo{tgt}
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if tv, ok := info.Types[call]; !ok || tv.Type == nil {
		return nil
	} else if _, isSig := tv.Type.Underlying().(*types.Signature); !isSig {
		return nil
	}
	tgts, dyn := prog.funTargets(info, call.Fun)
	if dyn || len(tgts) != 1 || tgts[0] == nil || tgts[0].Body == nil {
		return nil
	}
	var out []*FuncInfo
	inspectShallow(tgts[0].Body, func(n ast.Node) bool {
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		for _, res := range ret.Results {
			if tgt := prog.funcValue(tgts[0].Pkg.Info, res); tgt != nil {
				out = append(out, tgt)
			}
		}
		return true
	})
	return out
}

// funcValue resolves an expression to the FuncInfo it denotes as a value:
// a function literal, or a reference to a declared function.
func (prog *Program) funcValue(info *types.Info, e ast.Expr) *FuncInfo {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return prog.lits[x]
	case *ast.Ident:
		if fn, ok := info.Uses[x].(*types.Func); ok {
			return prog.funcs[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
			return prog.funcs[fn]
		}
	}
	return nil
}

// lvalueVar resolves an assignment target to the variable it writes: a
// plain identifier, a struct field selector, or a package-level variable.
func lvalueVar(info *types.Info, lhs ast.Expr) *types.Var {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.Defs[x]
		if obj == nil {
			obj = info.Uses[x]
		}
		v, _ := obj.(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// buildEdges resolves every call site directly inside fi's body (nested
// function literals are their own nodes and get their own walk).
func (prog *Program) buildEdges(fi *FuncInfo) {
	info := fi.Pkg.Info
	seen := make(map[CallEdge]bool)
	inspectShallow(fi.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		tgts, dyn := prog.funTargets(info, call.Fun)
		for _, t := range tgts {
			e := CallEdge{To: t, Dyn: dyn}
			if t == nil || seen[e] {
				continue
			}
			seen[e] = true
			fi.Edges = append(fi.Edges, e)
		}
		return true
	})
}

// funTargets resolves the callee expression of a call. dyn reports the
// set came from function-value tracking (may-call, not must-call).
func (prog *Program) funTargets(info *types.Info, fun ast.Expr) (tgts []*FuncInfo, dyn bool) {
	switch x := ast.Unparen(fun).(type) {
	case *ast.FuncLit:
		return []*FuncInfo{prog.lits[x]}, false
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return prog.funTargets(info, x.X)
	case *ast.IndexListExpr:
		return prog.funTargets(info, x.X)
	case *ast.Ident:
		switch obj := info.Uses[x].(type) {
		case *types.Func:
			return []*FuncInfo{prog.funcs[obj]}, false
		case *types.Var:
			return prog.varFuncs[obj], true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn, _ := sel.Obj().(*types.Func)
				if fn == nil {
					return nil, false
				}
				if iface, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					return prog.chaTargets(iface, fn.Name()), false
				}
				return []*FuncInfo{prog.funcs[fn]}, false
			case types.FieldVal:
				if v, isVar := sel.Obj().(*types.Var); isVar {
					return prog.varFuncs[v], true
				}
			}
			return nil, false
		}
		// Package-qualified reference: pkg.Fn or pkg.Var.
		switch obj := info.Uses[x.Sel].(type) {
		case *types.Func:
			return []*FuncInfo{prog.funcs[obj]}, false
		case *types.Var:
			return prog.varFuncs[obj], true
		}
	}
	return nil, false
}

// chaTargets is class-hierarchy analysis for an interface method call:
// every module-internal method with the same name whose receiver type
// (or its pointer) implements the interface.
func (prog *Program) chaTargets(iface *types.Interface, name string) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range prog.all {
		if fi.Fn == nil || fi.Sig == nil || fi.Sig.Recv() == nil || fi.Fn.Name() != name {
			continue
		}
		rt := fi.Sig.Recv().Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			out = append(out, fi)
		}
	}
	return out
}

// tarjan computes strongly-connected components of the call graph in
// callee-first order: when an SCC is emitted, every SCC it calls into has
// already been emitted, so bottom-up summary propagation can walk prog.sccs
// front to back (iterating only within each SCC for recursion).
func (prog *Program) tarjan() {
	index := 1
	var stack []*FuncInfo
	var strongconnect func(fi *FuncInfo)
	strongconnect = func(fi *FuncInfo) {
		fi.index, fi.lowlink = index, index
		index++
		stack = append(stack, fi)
		fi.onStack = true
		for _, e := range fi.Edges {
			w := e.To
			switch {
			case w.index == 0:
				strongconnect(w)
				if w.lowlink < fi.lowlink {
					fi.lowlink = w.lowlink
				}
			case w.onStack:
				if w.index < fi.lowlink {
					fi.lowlink = w.index
				}
			}
		}
		if fi.lowlink == fi.index {
			var scc []*FuncInfo
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				scc = append(scc, w)
				if w == fi {
					break
				}
			}
			prog.sccs = append(prog.sccs, scc)
		}
	}
	for _, fi := range prog.all {
		if fi.index == 0 {
			strongconnect(fi)
		}
	}
}

// findReachable marks every function reachable from a solver entry point:
// an exported function of a non-main package that imports the interrupt
// package and either is named Solve* or takes a context.Context. These are
// exactly the API points whose documented contract promises cancellation.
func (prog *Program) findReachable() {
	interruptPath := prog.modPath + "/internal/interrupt"
	importsInterrupt := make(map[*Package]bool)
	for _, pkg := range prog.pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == interruptPath {
				importsInterrupt[pkg] = true
			}
		}
	}
	var work []*FuncInfo
	for _, fi := range prog.all {
		if fi.Fn == nil || !fi.Fn.Exported() || fi.Pkg.IsCommand() || !importsInterrupt[fi.Pkg] {
			continue
		}
		if strings.HasPrefix(fi.Fn.Name(), "Solve") || hasContextParam(fi.Sig) {
			prog.reach[fi] = true
			work = append(work, fi)
		}
	}
	for len(work) > 0 {
		fi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range fi.Edges {
			if !prog.reach[e.To] {
				prog.reach[e.To] = true
				work = append(work, e.To)
			}
		}
	}
}

func hasContextParam(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
