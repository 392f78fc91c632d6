// Summary facts: the interprocedural layer of gatherlint.
//
// This file computes, for every function of a package, a FuncSummary
// over the typed AST: the functions it calls, the allocation-introducing
// constructs in its body, and whether its function-typed parameters
// escape.
//
// Summaries travel between packages inside the same JSON vetx fact files
// as the //gather:* annotations, in the direction the vet protocol
// supports: callee to caller (a package sees the summaries of its
// dependencies). hotalloc composes them: it walks Calls to close
// //gather:hotpath roots over the call graph and charges foreign callees'
// Allocs to the local call site.
//
// Everything is an over-approximation from lexical structure, in line
// with the rest of gatherlint: precise enough to be quiet on this repo,
// simple enough to audit.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// An AllocSite is one allocation-introducing construct in a function
// body — the unit hotalloc reports. Kind is one of "append", "maplit",
// "makemap", "closure", "fmt"; Detail carries the destination variable
// (append) or callee name (fmt). Pos is set only for summaries computed
// from source in the current package; fact-decoded sites carry Loc alone.
type AllocSite struct {
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
	Loc    string    `json:"loc,omitempty"`
	Pos    token.Pos `json:"-"`
	// Waived marks a site carrying a //lint:allow hotalloc waiver. Waived
	// sites stay visible locally (the report/waiver dance is handled by
	// the framework) but are dropped from exported facts, so a
	// dependency's reasoned waiver silences dependent reports too.
	Waived bool `json:"-"`
}

// A CallSite is one static call edge out of a function.
type CallSite struct {
	Callee string    `json:"callee"`
	Loc    string    `json:"loc,omitempty"`
	Pos    token.Pos `json:"-"`
}

// A FuncSummary is the interprocedural fact computed for one function,
// keyed like function annotations ("<pkgpath>.<Func>" or
// "<pkgpath>.<Type>.<Method>").
type FuncSummary struct {
	Key string `json:"-"`
	Pkg string `json:"pkg,omitempty"`

	// Calls lists the statically resolvable callees (deduplicated by
	// callee, first site kept), including calls inside nested function
	// literals — reachability over-approximates.
	Calls []CallSite `json:"calls,omitempty"`
	// Allocs lists the allocation-introducing constructs of the body,
	// the same set hotalloc's lexical checks recognise.
	Allocs []AllocSite `json:"allocs,omitempty"`

	// NoEscapeParams indexes function-typed parameters that are only
	// ever called (or passed on to parameters that are themselves
	// non-escaping): a function literal argument for such a parameter
	// does not outlive the call, so the compiler keeps it off the heap.
	NoEscapeParams []int `json:"noEscapeParams,omitempty"`
}

// exportSummaries deep-copies sums for fact encoding: waived alloc sites
// are dropped and token positions zeroed (they are meaningless in another
// process).
func exportSummaries(sums map[string]*FuncSummary) map[string]*FuncSummary {
	if len(sums) == 0 {
		return nil
	}
	out := make(map[string]*FuncSummary, len(sums))
	for k, s := range sums {
		c := *s
		c.Allocs = nil
		for _, a := range s.Allocs {
			if a.Waived {
				continue
			}
			a.Pos = token.NoPos
			c.Allocs = append(c.Allocs, a)
		}
		c.Calls = append([]CallSite(nil), s.Calls...)
		for i := range c.Calls {
			c.Calls[i].Pos = token.NoPos
		}
		out[k] = &c
	}
	return out
}

// ShortLoc renders pos as "file.go:line:col" with the directory dropped —
// stable across build environments, compact in cross-package diagnostics.
func ShortLoc(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}

// ComputeSummaries builds the FuncSummary of every function declared in
// the package. depSums carries the dependencies' summaries (escape
// judgements about calls into them resolve through it).
func ComputeSummaries(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, depSums map[string]*FuncSummary) map[string]*FuncSummary {

	sc := &sumCtx{
		fset:    fset,
		info:    info,
		depSums: depSums,
		sums:    map[string]*FuncSummary{},
		sup:     ScanSuppressions(fset, files),
	}
	var decls []*ast.FuncDecl
	var keys []string
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := FuncDeclKey(pkg.Path(), fd)
			decls = append(decls, fd)
			keys = append(keys, key)
			sc.sums[key] = &FuncSummary{Key: key, Pkg: pkg.Path()}
		}
	}

	// Escape pass first: the alloc pass consults NoEscapeParams of local
	// functions when classifying closures. Non-escape is co-inductive —
	// a recursive walker forwards its visitor to itself — so start from
	// the optimistic assumption (every func-typed param is non-escaping)
	// and strip params until the contradictions stop: the greatest
	// fixpoint, reached monotonically because shrinking the assumption
	// set can only shrink what noEscapeParams proves.
	for i, fd := range decls {
		sc.sums[keys[i]].NoEscapeParams = funcParamIndexes(sc.info, fd)
	}
	for changed := true; changed; {
		changed = false
		for i, fd := range decls {
			next := sc.noEscapeParams(fd)
			if !equalInts(next, sc.sums[keys[i]].NoEscapeParams) {
				sc.sums[keys[i]].NoEscapeParams = next
				changed = true
			}
		}
	}

	for i, fd := range decls {
		sc.collectCalls(fd, sc.sums[keys[i]])
		sc.collectAllocs(fd, sc.sums[keys[i]])
	}
	return sc.sums
}

// sumCtx carries the shared state of one ComputeSummaries run.
type sumCtx struct {
	fset    *token.FileSet
	info    *types.Info
	depSums map[string]*FuncSummary
	sums    map[string]*FuncSummary
	sup     *Suppressions
}

// summaryOf resolves a callee key against the local pass first, then the
// dependency facts.
func (sc *sumCtx) summaryOf(key string) *FuncSummary {
	if s, ok := sc.sums[key]; ok {
		return s
	}
	return sc.depSums[key]
}

func (sc *sumCtx) loc(pos token.Pos) string { return ShortLoc(sc.fset, pos) }

// calleeKey resolves the annotation key of a static call, "" for
// builtins, indirect calls and anonymous functions.
func (sc *sumCtx) calleeKey(call *ast.CallExpr) string {
	fn := calleeFuncObj(sc.info, call)
	if fn == nil {
		return ""
	}
	return FuncKey(fn)
}

// calleeFuncObj resolves the called *types.Func of a call expression.
func calleeFuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Escape pass: function-typed parameters that never outlive a call.

// funcParamIndexes returns the indexes of fd's function-typed parameters —
// the optimistic seed of the escape fixpoint.
func funcParamIndexes(info *types.Info, fd *ast.FuncDecl) []int {
	sig, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	params := sig.Type().(*types.Signature).Params()
	var out []int
	for i := 0; i < params.Len(); i++ {
		if _, isFunc := params.At(i).Type().Underlying().(*types.Signature); isFunc {
			out = append(out, i)
		}
	}
	return out
}

// noEscapeParams returns the indexes of fd's function-typed parameters
// whose every use is a call (param()) or an argument position that the
// callee's summary declares non-escaping.
func (sc *sumCtx) noEscapeParams(fd *ast.FuncDecl) []int {
	sig, ok := sc.info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	params := sig.Type().(*types.Signature).Params()
	var out []int
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if _, isFunc := p.Type().Underlying().(*types.Signature); !isFunc {
			continue
		}
		if sc.paramOnlyCalled(fd, p) {
			out = append(out, i)
		}
	}
	return out
}

// paramOnlyCalled reports whether every use of obj in fd's body is either
// the function position of a call, a nil comparison, or an argument to a
// callee whose summary marks that parameter non-escaping.
func (sc *sumCtx) paramOnlyCalled(fd *ast.FuncDecl, obj types.Object) bool {
	ok := true
	// safe collects the idents used in approved contexts; any use of obj
	// outside it counts as an escape.
	safe := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, isID := ast.Unparen(x.Fun).(*ast.Ident); isID && sc.info.Uses[id] == obj {
				safe[id] = true
			}
			key := sc.calleeKey(x)
			if key == "" {
				break
			}
			callee := sc.summaryOf(key)
			if callee == nil {
				break
			}
			for ai, arg := range x.Args {
				id, isID := ast.Unparen(arg).(*ast.Ident)
				if !isID || sc.info.Uses[id] != obj {
					continue
				}
				for _, pi := range callee.NoEscapeParams {
					if pi == ai {
						safe[id] = true
					}
				}
			}
		case *ast.BinaryExpr:
			// visitor != nil guards are reads, not escapes.
			for _, side := range []ast.Expr{x.X, x.Y} {
				if id, isID := ast.Unparen(side).(*ast.Ident); isID && sc.info.Uses[id] == obj {
					if other, isO := ast.Unparen(x.Y).(*ast.Ident); isO && side == x.X && other.Name == "nil" {
						safe[id] = true
					}
					if other, isO := ast.Unparen(x.X).(*ast.Ident); isO && side == x.Y && other.Name == "nil" {
						safe[id] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, isID := n.(*ast.Ident)
		if !isID || sc.info.Uses[id] != obj {
			return true
		}
		if !safe[id] {
			ok = false
		}
		return true
	})
	return ok
}

// ---------------------------------------------------------------------
// Structural pass: calls and allocation sites.

// collectCalls records one CallSite per distinct resolvable callee,
// including calls inside nested literals (reachability over-approximates).
func (sc *sumCtx) collectCalls(fd *ast.FuncDecl, s *FuncSummary) {
	seen := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key := sc.calleeKey(call)
		if key == "" || seen[key] {
			return true
		}
		seen[key] = true
		s.Calls = append(s.Calls, CallSite{Callee: key, Loc: sc.loc(call.Pos()), Pos: call.Pos()})
		return true
	})
}

// collectAllocs records the allocation-introducing constructs hotalloc
// recognises — the same judgements as the PR 6 lexical checks, now stored
// as summary facts so they can be charged to foreign callers. Sites whose
// line carries a //lint:allow hotalloc waiver are marked Waived.
func (sc *sumCtx) collectAllocs(fd *ast.FuncDecl, s *FuncSummary) {
	unsized := collectUnsizedSlices(sc.info, fd)
	var walk func(n ast.Node) bool
	record := func(pos token.Pos, kind, detail string) {
		p := sc.fset.Position(pos)
		s.Allocs = append(s.Allocs, AllocSite{
			Kind:   kind,
			Detail: detail,
			Loc:    sc.loc(pos),
			Pos:    pos,
			Waived: sc.sup.matches(p.Filename, p.Line, "hotalloc"),
		})
	}
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isBuiltinPanic(sc.info, x) {
				return false // cold path: panic(fmt.Sprintf(...)) is fine
			}
			if id, ok := calleeIdentOf(x); ok {
				if obj := sc.info.Uses[id]; obj != nil {
					if fn, okf := obj.(*types.Func); okf && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
						record(x.Pos(), "fmt", fn.Name())
					}
					if _, okb := obj.(*types.Builtin); okb && id.Name == "append" {
						if dst, blind := appendToUnsized(sc.info, x, unsized); blind {
							record(x.Pos(), "append", dst)
						}
					}
					if _, okb := obj.(*types.Builtin); okb && id.Name == "make" {
						if unsizedMakeMap(sc.info, x) {
							record(x.Pos(), "makemap", "")
						}
					}
				}
			}
		case *ast.FuncLit:
			if !isImmediatelyInvoked(fd, x) && !sc.litPassedToNoEscape(fd, x) {
				record(x.Pos(), "closure", "")
			}
			ast.Inspect(x.Body, walk)
			return false
		case *ast.CompositeLit:
			t := sc.info.Types[x].Type
			if t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					record(x.Pos(), "maplit", "")
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// litPassedToNoEscape reports whether lit appears as an argument of a
// call whose callee summary declares that parameter non-escaping: such a
// literal never outlives the call, so the compiler stack-allocates it.
// This is what lets hotalloc prove the rtree visitor closures safe
// instead of waiving them.
func (sc *sumCtx) litPassedToNoEscape(fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for ai, arg := range call.Args {
			if ast.Unparen(arg) != ast.Expr(lit) {
				continue
			}
			key := sc.calleeKey(call)
			if key == "" {
				continue
			}
			callee := sc.summaryOf(key)
			if callee == nil {
				continue
			}
			for _, pi := range callee.NoEscapeParams {
				if pi == ai {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// collectUnsizedSlices returns the local slice variables declared with no
// capacity evidence (var s []T, s := []T{}, s := []T(nil)), including
// named results. Shared by the summary pass and kept behaviourally
// identical to the PR 6 hotalloc heuristic.
func collectUnsizedSlices(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	unsized := map[types.Object]bool{}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isSliceType(obj.Type()) {
					unsized[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if obj := info.Defs[name]; obj != nil && isSliceType(obj.Type()) {
						if len(vs.Values) == 0 || isZeroSliceExpr(info, vs.Values[i]) {
							unsized[obj] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || !isSliceType(obj.Type()) {
					continue
				}
				if isZeroSliceExpr(info, s.Rhs[i]) {
					unsized[obj] = true
				} else if !isSelfAppendExpr(s.Rhs[i], id) {
					// Any other re-binding (make, reslice, call result)
					// counts as capacity evidence.
					delete(unsized, obj)
				}
			}
		}
		return true
	})
	return unsized
}

// appendToUnsized reports whether call appends to a capacity-blind local,
// returning the destination name.
func appendToUnsized(info *types.Info, call *ast.CallExpr, unsized map[types.Object]bool) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj != nil && unsized[obj] {
		return id.Name, true
	}
	return "", false
}

// unsizedMakeMap reports make(map[...]...) with no size hint.
func unsizedMakeMap(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	t := info.Types[call.Args[0]].Type
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap && len(call.Args) == 1
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isZeroSliceExpr reports expressions that declare a slice with no
// capacity: []T{}, []T(nil), nil.
func isZeroSliceExpr(info *types.Info, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		t := info.Types[x].Type
		if t == nil {
			return false
		}
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice && len(x.Elts) == 0
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CallExpr:
		// []T(nil) conversion
		if len(x.Args) == 1 {
			if id, ok := x.Args[0].(*ast.Ident); ok && id.Name == "nil" {
				if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
					return true
				}
			}
		}
	}
	return false
}

// isSelfAppendExpr reports s = append(s, ...) — growth, not re-binding.
func isSelfAppendExpr(e ast.Expr, dst *ast.Ident) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" || len(call.Args) == 0 {
		return false
	}
	src, ok := call.Args[0].(*ast.Ident)
	return ok && src.Name == dst.Name
}

// isImmediatelyInvoked reports whether lit is invoked where it stands:
// func(){...}().
func isImmediatelyInvoked(fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == lit {
			found = true
		}
		return !found
	})
	return found
}

// isBuiltinPanic reports a call to the builtin panic.
func isBuiltinPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	obj := info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// calleeIdentOf extracts the identifier being called, through selectors.
func calleeIdentOf(call *ast.CallExpr) (*ast.Ident, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun, true
	case *ast.SelectorExpr:
		return fun.Sel, true
	}
	return nil, false
}
