// Summary facts: the interprocedural layer of gatherlint.
//
// The PR 6 analyzers were purely lexical — every judgement stopped at the
// function boundary. This file computes, for every function of a package,
// a FuncSummary over the typed AST: the functions it calls, the
// allocation-introducing constructs in its body, the locks it acquires
// (with the lock-order edges that implies), the calls it makes while
// holding locks, whether its function-typed parameters escape, whether it
// can terminate, and how attached-crowd taint flows through its
// parameters and returns.
//
// Summaries travel between packages inside the same JSON vetx fact files
// as the //gather:* annotations, in the direction the vet protocol
// supports: callee to caller (a package sees the summaries of its
// dependencies). The analyzers compose them:
//
//   - lockorder derives a module-global lock-acquisition-order graph from
//     Edges + CallsHolding × transitive Acquires and reports cycles;
//   - leakcheck consults Forever / WGDone / RangesChans / ClosesChans for
//     goroutines that launch named functions;
//   - hotalloc walks Calls to close //gather:hotpath roots over the call
//     graph and charges foreign callees' Allocs to the local call site;
//   - detachcheck extends its taint with ReturnsAttached / ParamToReturn
//     / ParamSinks, so attachment flows through helper calls.
//
// Everything is an over-approximation, in line with the rest of
// gatherlint: lock sets come from the CFG must-hold dataflow (cfg.go),
// the rest from lexical structure — precise enough to be quiet on this
// repo, simple enough to audit.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
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

// A LockSite is one lock acquisition (Lock or RLock) of a named lock
// identity inside a function body.
type LockSite struct {
	Lock string    `json:"lock"`
	Loc  string    `json:"loc,omitempty"`
	Pos  token.Pos `json:"-"`
}

// A LockEdge records that To was acquired while From was held, inside Fn
// at Loc — one arc of the global lock-acquisition-order graph.
type LockEdge struct {
	From string    `json:"from"`
	To   string    `json:"to"`
	Fn   string    `json:"fn"`
	Loc  string    `json:"loc,omitempty"`
	Pos  token.Pos `json:"-"`
}

// A HeldCall is a call made while locks were held; lockorder joins it
// with the callee's transitive acquisitions to derive cross-function
// lock-order edges.
type HeldCall struct {
	Callee string    `json:"callee"`
	Held   []string  `json:"held"`
	Loc    string    `json:"loc,omitempty"`
	Pos    token.Pos `json:"-"`
}

// A FieldAccess is one read or write of a field belonging to a
// lock-owning struct (a struct declaring a //gather:lock or a
// //gather:guardedby field), with the must-hold lock set at the access.
// Held uses the LockSet.Annotated rendering: a plain name is an
// exclusive hold, a ":r" suffix a read hold. racecheck checks these
// against the field's guard — in the owning package directly, and at
// the departing call site for cross-package accesses.
type FieldAccess struct {
	Field string    `json:"field"`
	Write bool      `json:"write,omitempty"`
	Held  []string  `json:"held,omitempty"`
	Loc   string    `json:"loc,omitempty"`
	Pos   token.Pos `json:"-"`
	// Waived marks an access carrying a //lint:allow racecheck waiver;
	// like waived alloc sites it is dropped from exported facts.
	Waived bool `json:"-"`
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

	// Acquires lists the named locks the body itself locks (directly;
	// transitive closure is computed by lockorder over Calls).
	Acquires []LockSite `json:"acquires,omitempty"`
	// Edges are the intra-function lock-order arcs (B locked under A).
	Edges []LockEdge `json:"edges,omitempty"`
	// CallsHolding are calls made with at least one lock held.
	CallsHolding []HeldCall `json:"callsHolding,omitempty"`
	// FieldAccesses are the body's reads/writes of lock-owning struct
	// fields with the must-hold set at each site (consumed by racecheck).
	FieldAccesses []FieldAccess `json:"fieldAccesses,omitempty"`

	// NoEscapeParams indexes function-typed parameters that are only
	// ever called (or passed on to parameters that are themselves
	// non-escaping): a function literal argument for such a parameter
	// does not outlive the call, so the compiler keeps it off the heap.
	NoEscapeParams []int `json:"noEscapeParams,omitempty"`

	// Forever marks a body containing an infinite for-loop with no
	// reachable exit (no return, no break out, no panic): a goroutine
	// running it never terminates.
	Forever bool `json:"forever,omitempty"`
	// WGDone marks a body that calls (*sync.WaitGroup).Done, possibly
	// deferred or wrapped in a literal.
	WGDone bool `json:"wgDone,omitempty"`
	// RangesChans lists field/package-level channels the body ranges
	// over with no other exit: the loop ends only when they are closed.
	RangesChans []string `json:"rangesChans,omitempty"`
	// ClosesChans lists field/package-level channels the body closes.
	ClosesChans []string `json:"closesChans,omitempty"`

	// ReturnsAttached marks a function some return value of which
	// carries //gather:attached taint.
	ReturnsAttached bool `json:"returnsAttached,omitempty"`
	// ParamToReturn indexes parameters whose taint flows to a return
	// value; ParamSinks indexes parameters stored into something that
	// outlives the call (field, package variable, container element, or
	// a callee that sinks them).
	ParamToReturn []int `json:"paramToReturn,omitempty"`
	ParamSinks    []int `json:"paramSinks,omitempty"`
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
		scrub := func(p *token.Pos) { *p = token.NoPos }
		c.Calls = append([]CallSite(nil), s.Calls...)
		for i := range c.Calls {
			scrub(&c.Calls[i].Pos)
		}
		c.Acquires = append([]LockSite(nil), s.Acquires...)
		for i := range c.Acquires {
			scrub(&c.Acquires[i].Pos)
		}
		c.Edges = append([]LockEdge(nil), s.Edges...)
		for i := range c.Edges {
			scrub(&c.Edges[i].Pos)
		}
		c.CallsHolding = append([]HeldCall(nil), s.CallsHolding...)
		for i := range c.CallsHolding {
			scrub(&c.CallsHolding[i].Pos)
		}
		c.FieldAccesses = nil
		for _, fa := range s.FieldAccesses {
			if fa.Waived {
				continue
			}
			fa.Pos = token.NoPos
			c.FieldAccesses = append(c.FieldAccesses, fa)
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
// the package. ann must already hold the package's own annotations merged
// with its dependencies' (lock names and attached sources resolve through
// it); depSums carries the dependencies' summaries (taint and escape
// judgements about calls into them resolve through it).
func ComputeSummaries(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, ann *Annotations, depSums map[string]*FuncSummary) map[string]*FuncSummary {

	sc := &sumCtx{
		fset:    fset,
		pkg:     pkg,
		info:    info,
		ann:     ann,
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
		sc.structural(fd, sc.sums[keys[i]])
	}

	// Attached-taint pass (to a fixpoint): local helper chains — f calls
	// g, g returns an attached value — converge in a few rounds because
	// the flag sets only grow.
	for changed := true; changed; {
		changed = false
		for i, fd := range decls {
			if sc.taint(fd, sc.sums[keys[i]]) {
				changed = true
			}
		}
	}
	return sc.sums
}

// sumCtx carries the shared state of one ComputeSummaries run.
type sumCtx struct {
	fset    *token.FileSet
	pkg     *types.Package
	info    *types.Info
	ann     *Annotations
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
// Structural pass: calls, allocs, locks, termination, channels.

// structural fills everything except the taint fields of s.
func (sc *sumCtx) structural(fd *ast.FuncDecl, s *FuncSummary) {
	sc.collectCalls(fd, s)
	sc.collectAllocs(fd, s)
	sc.lockFlow(fd, s)
	sc.collectTermination(fd, s)
}

// collectCalls records one CallSite per distinct resolvable callee,
// including calls inside nested literals (reachability over-approximates)
// but excluding sync lock operations, which the lock walker owns.
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

// ---------------------------------------------------------------------
// Lock flow: named acquisitions, order edges, calls and field accesses
// under locks — all driven by the CFG must-hold dataflow (cfg.go), so
// an early non-deferred Unlock in one branch kills the lock at the
// join instead of leaking it lexically.

// lockFlow walks fd.Body with WalkHeld, recording lock acquisitions
// (with the order edges the pre-acquire held set implies), calls made
// while holding locks, and every access to a field of a lock-owning
// struct together with the must-hold set at the access. Function
// literals are walked with a fresh lock state (they run on another
// goroutine or at an unknown time); their findings attach to the
// enclosing declaration's summary.
func (sc *sumCtx) lockFlow(fd *ast.FuncDecl, s *FuncSummary) {
	resolve := SyncLockResolver(sc.info, func(x ast.Expr) string {
		return LockIdentity(sc.info, sc.ann, x)
	})
	owners := lockOwnerTypes(sc.ann)
	writes := writtenSelectors(fd.Body)
	ctors := compositeLocals(sc.info, fd.Body)
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	var walk func(body *ast.BlockStmt)
	walk = func(body *ast.BlockStmt) {
		deferred := deferredCalls(body)
		WalkHeld(body, resolve, func(n ast.Node, held LockSet) {
			switch x := n.(type) {
			case *ast.FuncLit:
				walk(x.Body)
			case *ast.CallExpr:
				if id, op := resolve(x); op != "" {
					if (op == "Lock" || op == "RLock") && !deferred[x] {
						sc.recordAcquire(s, id, x.Pos(), held)
					}
					return
				}
				if held.Empty() || goCalls[x] {
					// A go statement's call runs on a goroutine that
					// does not inherit the spawner's locks: no held-call
					// edge.
					return
				}
				key := sc.calleeKey(x)
				if key == "" {
					return
				}
				s.CallsHolding = append(s.CallsHolding, HeldCall{
					Callee: key, Held: held.Names(), Loc: sc.loc(x.Pos()), Pos: x.Pos(),
				})
			case *ast.SelectorExpr:
				sc.recordFieldAccess(s, x, held, owners, writes, ctors)
			}
		})
	}
	walk(fd.Body)
}

// recordAcquire appends a named acquisition and the order edges the
// pre-acquire held set implies.
func (sc *sumCtx) recordAcquire(s *FuncSummary, lock string, pos token.Pos, held LockSet) {
	s.Acquires = append(s.Acquires, LockSite{Lock: lock, Loc: sc.loc(pos), Pos: pos})
	for _, from := range held.Names() {
		if from == lock {
			continue
		}
		s.Edges = append(s.Edges, LockEdge{
			From: from, To: lock, Fn: s.Key, Loc: sc.loc(pos), Pos: pos,
		})
	}
}

// recordFieldAccess appends a FieldAccess when sel is a field read or
// write of a lock-owning struct: sync/sync-atomic-typed fields are
// skipped (the locks and atomics themselves), as are accesses rooted
// at a local the function itself built from a composite literal — a
// constructor initialises its own value before it is shared, no lock
// required.
func (sc *sumCtx) recordFieldAccess(s *FuncSummary, sel *ast.SelectorExpr, held LockSet,
	owners map[string]bool, writes map[ast.Expr]bool, ctors map[types.Object]bool) {

	selInfo := sc.info.Selections[sel]
	if selInfo == nil || selInfo.Kind() != types.FieldVal {
		return
	}
	recv := TypeKey(selInfo.Recv())
	if recv == "" || !owners[recv] {
		return
	}
	if v, ok := selInfo.Obj().(*types.Var); ok && syncTyped(v.Type()) {
		return
	}
	if root := rootObj(sc.info, sel); root != nil && ctors[root] {
		return
	}
	p := sc.fset.Position(sel.Pos())
	s.FieldAccesses = append(s.FieldAccesses, FieldAccess{
		Field:  recv + "." + sel.Sel.Name,
		Write:  writes[sel],
		Held:   held.Annotated(),
		Loc:    sc.loc(sel.Pos()),
		Pos:    sel.Pos(),
		Waived: sc.sup.matches(p.Filename, p.Line, "racecheck"),
	})
}

// lockOwnerTypes returns the type keys that own a named lock or declare
// a guarded field — the structs whose field accesses are worth
// summarising.
func lockOwnerTypes(ann *Annotations) map[string]bool {
	out := map[string]bool{}
	add := func(fieldKey string) {
		if i := strings.LastIndex(fieldKey, "."); i > 0 {
			out[fieldKey[:i]] = true
		}
	}
	for k := range ann.Locks {
		add(k)
	}
	for k := range ann.GuardedBy {
		add(k)
	}
	return out
}

// syncTyped reports whether t is (a pointer to) a type declared in sync
// or sync/atomic — mutexes, conds, atomics — which racecheck exempts:
// they are the synchronisation, not the data.
func syncTyped(t types.Type) bool {
	named, ok := Deref(t).(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
}

// rootObj resolves the base identifier of a selector chain
// (e.shards[i].ticks -> e), nil when the chain is rooted in a call or
// other non-identifier.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// writtenSelectors marks the selector expressions written by body:
// assignment targets, inc/dec operands, and address-taken operands
// (conservatively a write — the pointer may be stored and written
// through). Writing an element through a field (x.f[i] = v) counts as
// a write of the field for guarding purposes.
func writtenSelectors(body *ast.BlockStmt) map[ast.Expr]bool {
	out := map[ast.Expr]bool{}
	mark := func(e ast.Expr) {
		if s := baseSelector(e); s != nil {
			out[s] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				mark(l)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		case *ast.RangeStmt:
			if x.Key != nil {
				mark(x.Key)
			}
			if x.Value != nil {
				mark(x.Value)
			}
		}
		return true
	})
	return out
}

// baseSelector unwraps indexing, slicing, dereference and parens to the
// selector a write ultimately lands on.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			s, _ := e.(*ast.SelectorExpr)
			return s
		}
	}
}

// compositeLocals collects the locals body assigns a (pointer to a)
// composite literal: the constructor pattern. Accesses through them
// are unshared until the value escapes and need no guard.
func compositeLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	fromLit := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		_, ok := e.(*ast.CompositeLit)
		return ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, l := range x.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || !fromLit(x.Rhs[i]) {
					continue
				}
				if o := info.Defs[id]; o != nil {
					out[o] = true
				} else if o := info.Uses[id]; o != nil {
					out[o] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				if i < len(x.Values) && fromLit(x.Values[i]) {
					if o := info.Defs[id]; o != nil {
						out[o] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// LockIdentity names the mutex behind a receiver expression: the
// //gather:lock name of the field when annotated, otherwise the field
// or package-variable key; locals and unresolvable receivers return ""
// (they cannot participate in a cross-function order).
func LockIdentity(info *types.Info, ann *Annotations, x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		selInfo := info.Selections[e]
		if selInfo == nil || selInfo.Kind() != types.FieldVal {
			return ""
		}
		key := TypeKey(selInfo.Recv())
		if key == "" {
			return ""
		}
		key += "." + e.Sel.Name
		if name, ok := ann.Locks[key]; ok {
			return name
		}
		return key
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			key := v.Pkg().Path() + "." + v.Name()
			if name, ok := ann.Locks[key]; ok {
				return name
			}
			return key
		}
		// A local whose type embeds the mutex (t.Lock() through an
		// embedded sync.Mutex): name it by the embedding type.
		if key := TypeKey(v.Type()); key != "" && v.Pkg() != nil && key != "sync.Mutex" && key != "sync.RWMutex" {
			return key + ".Mutex"
		}
		return ""
	}
	return ""
}

// ---------------------------------------------------------------------
// Termination pass: forever loops, WaitGroup.Done, channel lifecycle.

func (sc *sumCtx) collectTermination(fd *ast.FuncDecl, s *FuncSummary) {
	s.Forever = BodyRunsForever(sc.info, fd.Body)
	s.WGDone = callsWGDone(sc.info, fd.Body)
	chans := map[string]bool{}
	closes := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if t := sc.info.Types[x.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && !loopHasExit(x.Body, "") {
					if key := sc.chanKey(x.X); key != "" {
						chans[key] = true
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if _, isB := sc.info.Uses[id].(*types.Builtin); isB {
					if key := sc.chanKey(x.Args[0]); key != "" {
						closes[key] = true
					}
				}
			}
		}
		return true
	})
	s.RangesChans = sortedKeys(chans)
	s.ClosesChans = sortedKeys(closes)
}

// chanKey names a channel held in a struct field or package variable;
// locals return "" (their lifecycle is judged inside the owning function
// by leakcheck directly).
func (sc *sumCtx) chanKey(x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		selInfo := sc.info.Selections[e]
		if selInfo == nil || selInfo.Kind() != types.FieldVal {
			return ""
		}
		if key := TypeKey(selInfo.Recv()); key != "" {
			return key + "." + e.Sel.Name
		}
	case *ast.Ident:
		obj := sc.info.Uses[e]
		if obj == nil {
			obj = sc.info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// BodyRunsForever reports whether body contains (outside nested function
// literals) an infinite for-loop with no reachable exit: no condition, no
// return, no break out of the loop, no panic or process exit. A goroutine
// running such a body never terminates.
func BodyRunsForever(info *types.Info, body *ast.BlockStmt) bool {
	forever := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if x.Cond == nil && !loopHasExit(x.Body, labelOf(x, body)) {
				forever = true
			}
		}
		return !forever
	}
	ast.Inspect(body, walk)
	return forever
}

// labelOf finds the label naming loop, if the loop statement is wrapped
// in a LabeledStmt anywhere under root.
func labelOf(loop ast.Stmt, root ast.Node) string {
	label := ""
	ast.Inspect(root, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok && ls.Stmt == loop {
			label = ls.Label.Name
		}
		return label == ""
	})
	return label
}

// loopHasExit reports whether the body of a loop contains a statement
// that leaves the loop (or the whole function): return, goto, a break
// targeting this loop, panic, or a process-terminating call.
func loopHasExit(body *ast.BlockStmt, label string) bool {
	return scanExit(body, label, false)
}

// LoopHasExit is loopHasExit for unlabelled loops, exported for leakcheck
// to judge range loops in goroutine literals.
func LoopHasExit(body *ast.BlockStmt) bool {
	return loopHasExit(body, "")
}

// scanExit walks statements looking for loop exits. innerBreakable is
// true while inside a nested construct that captures unlabeled breaks
// (inner loop, select, switch).
func scanExit(n ast.Node, label string, innerBreakable bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
			return false
		case *ast.BranchStmt:
			switch x.Tok {
			case token.GOTO:
				found = true // conservative: may jump out
			case token.BREAK:
				if x.Label != nil {
					if x.Label.Name == label {
						found = true
					}
				} else if !innerBreakable {
					found = true
				}
			}
			return false
		case *ast.CallExpr:
			if isTerminatingCall(x) {
				found = true
				return false
			}
			return true
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			if m == n {
				return true // the node we were asked to scan itself
			}
			// Unlabeled breaks inside target the inner construct; keep
			// looking for returns/labeled breaks with the flag set.
			if scanExit(m, label, true) {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// isTerminatingCall recognises calls that do not come back: panic,
// os.Exit, runtime.Goexit, log.Fatal*, testing's t.Fatal*/t.Skip*.
func isTerminatingCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		switch name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// callsWGDone reports whether body calls Done on a sync.WaitGroup,
// directly, deferred, or inside a literal (defer func(){ wg.Done() }()).
func callsWGDone(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFuncObj(info, call)
		if fn == nil || fn.Name() != "Done" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if TypeKey(sig.Recv().Type()) == "sync.WaitGroup" {
				found = true
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------
// Taint pass: attached-crowd flow through parameters and returns.

// taint recomputes the attached-flow fields of s, returning whether any
// changed (the caller iterates to a fixpoint so local helper chains
// converge).
func (sc *sumCtx) taint(fd *ast.FuncDecl, s *FuncSummary) bool {
	tw := &taintWalker{sc: sc, vars: map[types.Object]uint64{}}
	fn, _ := sc.info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	params := fn.Type().(*types.Signature).Params()
	nparams := params.Len()
	if nparams > 62 {
		nparams = 62
	}
	for i := 0; i < nparams; i++ {
		tw.vars[params.At(i)] = paramBit(i)
	}
	paramOf := func(bit int) int { return bit - 1 }
	_ = paramOf

	// Propagate through local assignments to a fixed point.
	for {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := sc.info.Defs[id]
					if obj == nil {
						obj = sc.info.Uses[id]
					}
					if obj == nil {
						continue
					}
					m := tw.mask(st.Rhs[i])
					if m&^tw.vars[obj] != 0 {
						tw.vars[obj] |= m
						changed = true
					}
				}
			case *ast.RangeStmt:
				if st.Value != nil {
					if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
						obj := sc.info.Defs[id]
						if obj == nil {
							obj = sc.info.Uses[id]
						}
						if obj != nil {
							m := tw.mask(st.X)
							if m&^tw.vars[obj] != 0 {
								tw.vars[obj] |= m
								changed = true
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// Sinks: returns, long-lived stores, and calls that sink parameters.
	retMask, sinkMask := uint64(0), uint64(0)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				retMask |= tw.mask(res)
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				m := tw.mask(st.Rhs[i])
				if m == 0 {
					continue
				}
				if tw.longLivedDest(lhs) {
					sinkMask |= m
				}
			}
		case *ast.CallExpr:
			key := sc.calleeKey(st)
			if key == "" {
				return true
			}
			callee := sc.summaryOf(key)
			if callee == nil {
				return true
			}
			for _, pi := range callee.ParamSinks {
				if pi < len(st.Args) {
					sinkMask |= tw.mask(st.Args[pi])
				}
			}
		}
		return true
	})

	changed := false
	if retMask&attachedBit != 0 && !s.ReturnsAttached {
		s.ReturnsAttached = true
		changed = true
	}
	var ptr, ps []int
	for i := 0; i < nparams; i++ {
		if retMask&paramBit(i) != 0 {
			ptr = append(ptr, i)
		}
		if sinkMask&paramBit(i) != 0 {
			ps = append(ps, i)
		}
	}
	if !equalInts(ptr, s.ParamToReturn) {
		s.ParamToReturn = ptr
		changed = true
	}
	if !equalInts(ps, s.ParamSinks) {
		s.ParamSinks = ps
		changed = true
	}
	return changed
}

const attachedBit uint64 = 1

func paramBit(i int) uint64 { return 1 << uint(i+1) }

// taintWalker evaluates the taint mask of expressions: bit 0 is the
// //gather:attached source, bit i+1 traces parameter i.
type taintWalker struct {
	sc   *sumCtx
	vars map[types.Object]uint64
}

func (tw *taintWalker) mask(e ast.Expr) uint64 {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return tw.mask(x.X)
	case *ast.Ident:
		obj := tw.sc.info.Uses[x]
		if obj == nil {
			obj = tw.sc.info.Defs[x]
		}
		if obj == nil {
			return 0
		}
		return tw.vars[obj]
	case *ast.SelectorExpr:
		selInfo := tw.sc.info.Selections[x]
		if selInfo != nil && selInfo.Kind() == types.FieldVal {
			if key := TypeKey(selInfo.Recv()); key != "" {
				if tw.sc.ann.Attached[key+"."+x.Sel.Name] {
					return attachedBit
				}
			}
		}
		return 0
	case *ast.IndexExpr:
		return tw.mask(x.X)
	case *ast.SliceExpr:
		return tw.mask(x.X)
	case *ast.UnaryExpr:
		return tw.mask(x.X)
	case *ast.CallExpr:
		return tw.callMask(x)
	}
	return 0
}

func (tw *taintWalker) callMask(call *ast.CallExpr) uint64 {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := tw.sc.info.Uses[fun]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin && fun.Name == "append" {
				var m uint64
				for _, arg := range call.Args {
					m |= tw.mask(arg)
				}
				return m
			}
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Detached" {
			return 0 // the sanitiser
		}
	}
	key := tw.sc.calleeKey(call)
	if key == "" {
		return 0
	}
	var m uint64
	if tw.sc.ann.Attached[key] {
		m |= attachedBit
	}
	if callee := tw.sc.summaryOf(key); callee != nil {
		if callee.ReturnsAttached {
			m |= attachedBit
		}
		for _, pi := range callee.ParamToReturn {
			if pi < len(call.Args) {
				m |= tw.mask(call.Args[pi])
			}
		}
	}
	return m
}

// longLivedDest reports destinations that outlive the function: struct
// fields (and elements behind them) not themselves //gather:attached, and
// package variables.
func (tw *taintWalker) longLivedDest(lhs ast.Expr) bool {
	switch dst := lhs.(type) {
	case *ast.Ident:
		obj := tw.sc.info.Defs[dst]
		if obj == nil {
			obj = tw.sc.info.Uses[dst]
		}
		v, ok := obj.(*types.Var)
		return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
	case *ast.SelectorExpr:
		selInfo := tw.sc.info.Selections[dst]
		if selInfo == nil || selInfo.Kind() != types.FieldVal {
			return false
		}
		key := TypeKey(selInfo.Recv())
		return key == "" || !tw.sc.ann.Attached[key+"."+dst.Sel.Name]
	case *ast.IndexExpr:
		if inner, ok := dst.X.(*ast.SelectorExpr); ok {
			selInfo := tw.sc.info.Selections[inner]
			if selInfo != nil && selInfo.Kind() == types.FieldVal {
				key := TypeKey(selInfo.Recv())
				return key == "" || !tw.sc.ann.Attached[key+"."+inner.Sel.Name]
			}
		}
	}
	return false
}
