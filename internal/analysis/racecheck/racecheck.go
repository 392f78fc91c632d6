// Package racecheck statically detects unguarded accesses to shared
// struct fields — the gathering engine's defence against data races that
// the runtime race detector only catches when a test happens to
// interleave the right goroutines.
//
// A field is *guarded* in one of two ways:
//
//   - explicitly: the field's declaration carries //gather:guardedby
//     <lock>, naming a //gather:lock mutex. Every read needs at least a
//     read hold of that lock in the CFG must-hold set at the access
//     (framework.WalkHeld); every write needs the exclusive hold.
//
//   - by inference: a field with no annotation but at least four
//     summarised accesses module-wide, at least one of them a write, of
//     which ≥75% (but not all) hold one particular lock, is presumed
//     guarded by it — the minority accesses are reported with a prompt
//     to annotate the field or take the lock.
//
// Three refinements keep the check honest about calling context:
//
//   - Interprocedural inheritance. An unexported function whose address
//     is never taken is entered only through its local call sites, so it
//     inherits the meet (intersection) of the lock sets held at those
//     sites — a helper called only under e.mu may touch e.mu-guarded
//     fields without locking again. Exported functions and function
//     literals inherit nothing.
//
//   - Guard visibility. A guard that no //gather:lock in the package's
//     fact view names cannot be acquired here; fields guarded by such a
//     foreign lock are exempt locally and enforced instead at the call
//     sites of the packages that can see the lock (below). This is how
//     a storage type owned by a locked engine declares its discipline
//     without importing the engine.
//
//   - Departing calls. Calling into another package is checked against
//     that package's summarised field accesses: an access the callee
//     does not satisfy internally (fa.Held), and that the chain of
//     CallsHolding locks plus the local site's held set does not cover
//     either, is reported at the local call — the last place the
//     missing lock could have been taken.
//
// Accesses in _test.go files are ignored: tests own their fixtures and
// exercise internals single-goroutine.
package racecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the racecheck check.
var Analyzer = &framework.Analyzer{
	Name: "racecheck",
	Doc: "flags reads and writes of //gather:guardedby fields (and of fields " +
		"whose accesses hold one lock by strong majority) made without the " +
		"guarding lock in the CFG must-hold set, interprocedurally through " +
		"call-site lock inheritance and cross-package summaries",
	Run: run,
}

// Inference thresholds: a field qualifies for majority-guard inference
// with at least minInferAccesses summarised accesses, at least one
// write, and a candidate lock held at ≥ inferNum/inferDen of them.
const (
	minInferAccesses = 4
	inferNum         = 3
	inferDen         = 4
)

func run(pass *framework.Pass) error {
	rc := &checker{
		pass:    pass,
		here:    pass.Pkg.Path(),
		visible: map[string]bool{},
	}
	for _, name := range pass.Ann.Locks {
		rc.visible[name] = true
	}
	rc.collectSites()
	rc.solveInherited()
	rc.checkAnnotated()
	rc.checkInferred()
	rc.checkDeparting()
	return nil
}

// A callSite is one resolvable call in a local function body, with the
// must-hold set at the call. caller is the enclosing declaration's
// summary key, "" when the call sits inside a function literal (which
// inherits nothing — it may run on any goroutine at any time).
type callSite struct {
	callee string
	caller string
	held   framework.LockSet
	pos    token.Pos
}

type checker struct {
	pass *framework.Pass
	here string
	// visible holds the lock names this package can acquire — the values
	// of every //gather:lock in its fact view.
	visible map[string]bool

	sites    []callSite
	byCallee map[string][]callSite
	// inherited maps a local function key to the meet of the lock sets
	// held at its local call sites; top marks functions still at ⊤
	// (every caller is itself ⊤ — dead code or a closed recursion, where
	// assuming the lock held is vacuous).
	inherited map[string]framework.LockSet
	top       map[string]bool
	localFns  map[string]*ast.FuncDecl
}

// collectSites walks every local function body with the CFG must-hold
// dataflow, recording each statically resolvable call with the lock set
// held at it. Calls launched with `go` record an empty held set — the
// spawned goroutine does not inherit the spawner's locks.
func (rc *checker) collectSites() {
	rc.localFns = map[string]*ast.FuncDecl{}
	rc.byCallee = map[string][]callSite{}
	resolve := framework.SyncLockResolver(rc.pass.TypesInfo, func(x ast.Expr) string {
		return framework.LockIdentity(rc.pass.TypesInfo, rc.pass.Ann, x)
	})
	for _, file := range rc.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			rc.localFns[framework.FuncDeclKey(rc.here, fd)] = fd
		}
	}
	for key, fd := range rc.localFns {
		goCalls := map[*ast.CallExpr]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				goCalls[g.Call] = true
			}
			return true
		})
		var walk func(body *ast.BlockStmt, caller string)
		walk = func(body *ast.BlockStmt, caller string) {
			framework.WalkHeld(body, resolve, func(n ast.Node, held framework.LockSet) {
				switch x := n.(type) {
				case *ast.FuncLit:
					walk(x.Body, "")
				case *ast.CallExpr:
					if _, op := resolve(x); op != "" {
						return
					}
					fn := calleeFunc(rc.pass.TypesInfo, x)
					if fn == nil {
						return
					}
					h := held.Clone()
					if goCalls[x] {
						h = framework.LockSet{}
					}
					site := callSite{
						callee: framework.FuncKey(fn),
						caller: caller,
						held:   h,
						pos:    x.Pos(),
					}
					rc.sites = append(rc.sites, site)
					rc.byCallee[site.callee] = append(rc.byCallee[site.callee], site)
				}
			})
		}
		walk(fd.Body, key)
	}
}

// solveInherited computes, for each unexported local function whose
// address is never taken, the meet over its local call sites of the
// held set at the site unioned with the caller's own inherited set — a
// greatest-fixpoint iteration starting from ⊤ and only shrinking.
func (rc *checker) solveInherited() {
	rc.inherited = map[string]framework.LockSet{}
	rc.top = map[string]bool{}
	taken := rc.addressTaken()
	for key := range rc.localFns {
		if exportedName(key) || taken[key] || len(rc.byCallee[key]) == 0 {
			continue // entered from anywhere: inherits nothing
		}
		rc.top[key] = true
	}
	for changed := true; changed; {
		changed = false
		for key := range rc.localFns {
			if !rc.top[key] && rc.inherited[key] == nil {
				continue
			}
			acc, accTop := framework.LockSet(nil), true
			for _, s := range rc.byCallee[key] {
				if s.caller != "" && rc.top[s.caller] {
					continue // ⊤ contribution: identity of the meet
				}
				contrib := unionSets(s.held, rc.inherited[s.caller])
				if accTop {
					acc, accTop = contrib, false
				} else {
					acc = meetSets(acc, contrib)
				}
			}
			if accTop {
				continue // every caller still ⊤
			}
			if rc.top[key] || !equalSets(rc.inherited[key], acc) {
				delete(rc.top, key)
				rc.inherited[key] = acc
				changed = true
			}
		}
	}
}

// addressTaken returns the local function keys referenced anywhere
// other than the callee position of a call: stored, passed, deferred
// through a variable — all ways a function gains callers this analysis
// cannot see.
func (rc *checker) addressTaken() map[string]bool {
	inCallPos := map[*ast.Ident]bool{}
	for _, file := range rc.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				inCallPos[fun] = true
			case *ast.SelectorExpr:
				inCallPos[fun.Sel] = true
			}
			return true
		})
	}
	taken := map[string]bool{}
	for _, file := range rc.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || inCallPos[id] {
				return true
			}
			obj := rc.pass.TypesInfo.Uses[id]
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			key := framework.FuncKey(fn)
			if _, local := rc.localFns[key]; local {
				taken[key] = true
			}
			return true
		})
	}
	return taken
}

// inheritedHolds reports whether caller's inherited lock set covers
// lock at the strength write requires. A caller still at ⊤ has no
// reachable entry — vacuously covered.
func (rc *checker) inheritedHolds(caller, lock string, write bool) bool {
	if caller == "" {
		return false
	}
	if rc.top[caller] {
		return true
	}
	s := rc.inherited[caller]
	if write {
		return s.HoldsWrite(lock)
	}
	return s.Holds(lock)
}

// ---------------------------------------------------------------------
// Annotated guards: every local access of a //gather:guardedby field.

func (rc *checker) checkAnnotated() {
	for _, s := range rc.pass.Sums {
		if s.Pkg != rc.here {
			continue
		}
		for _, fa := range s.FieldAccesses {
			if fa.Waived || rc.inTestFile(fa.Pos) {
				continue
			}
			guard := rc.pass.Ann.GuardedBy[fa.Field]
			if guard == "" || !rc.visible[guard] {
				// No guard, or a guard this package cannot name: the
				// latter is enforced at the call sites of the packages
				// that declare the lock.
				continue
			}
			caller := s.Key
			if rc.inFuncLit(fa.Pos) {
				caller = ""
			}
			if framework.HeldListHolds(fa.Held, guard, fa.Write) ||
				rc.inheritedHolds(caller, guard, fa.Write) {
				continue
			}
			verb := "read"
			if fa.Write {
				verb = "write"
			}
			if fa.Write && (framework.HeldListHolds(fa.Held, guard, false) ||
				rc.inheritedHolds(caller, guard, false)) {
				rc.pass.Reportf(fa.Pos, "write to %s while holding %s read-locked; the //gather:guardedby contract needs the exclusive lock for writes",
					shortField(fa.Field), guard)
				continue
			}
			rc.pass.Reportf(fa.Pos, "unguarded %s of %s: the field is declared //gather:guardedby %s, which is not held here",
				verb, shortField(fa.Field), guard)
		}
	}
}

// ---------------------------------------------------------------------
// Inference: unannotated fields guarded by strong majority.

func (rc *checker) checkInferred() {
	type acc struct {
		held   []string
		write  bool
		local  bool
		caller string
		pos    token.Pos
		waived bool
	}
	pool := map[string][]acc{}
	for _, s := range rc.pass.Sums {
		for _, fa := range s.FieldAccesses {
			if rc.pass.Ann.GuardedBy[fa.Field] != "" {
				continue // annotated: the strict check owns it
			}
			if testLoc(fa.Loc) {
				continue
			}
			local := s.Pkg == rc.here
			caller := ""
			if local && !rc.inFuncLit(fa.Pos) {
				caller = s.Key
			}
			pool[fa.Field] = append(pool[fa.Field], acc{
				held: fa.Held, write: fa.Write, local: local,
				caller: caller, pos: fa.Pos, waived: fa.Waived,
			})
		}
	}
	fields := make([]string, 0, len(pool))
	for f := range pool {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, field := range fields {
		accs := pool[field]
		if len(accs) < minInferAccesses {
			continue
		}
		writes := 0
		cands := map[string]bool{}
		for _, a := range accs {
			if a.write {
				writes++
			}
			for _, h := range a.held {
				cands[strings.TrimSuffix(h, ":r")] = true
			}
		}
		if writes == 0 {
			continue
		}
		covered := func(a acc, lock string) bool {
			return framework.HeldListHolds(a.held, lock, false) ||
				rc.inheritedHolds(a.caller, lock, false)
		}
		best, bestCov := "", 0
		for _, lock := range sortedNames(cands) {
			cov := 0
			for _, a := range accs {
				if covered(a, lock) {
					cov++
				}
			}
			if cov > bestCov {
				best, bestCov = lock, cov
			}
		}
		if best == "" || bestCov*inferDen < len(accs)*inferNum || bestCov == len(accs) {
			continue
		}
		for _, a := range accs {
			if !a.local || a.waived || covered(a, best) {
				continue
			}
			verb := "read"
			if a.write {
				verb = "write"
			}
			rc.pass.Reportf(a.pos, "%s of %s without %s, which %d of %d accesses module-wide hold; annotate the field //gather:guardedby %s or acquire the lock",
				verb, shortField(field), best, bestCov, len(accs), best)
		}
	}
}

// ---------------------------------------------------------------------
// Departing calls: cross-package accesses checked at the local site.

// checkDeparting verifies, at every local call into another package,
// the callee's summarised field accesses that the callee does not
// guard internally: the guard must be covered by the local site's held
// set (plus the caller's inherited set), or by a lock acquired along
// the CallsHolding chain. The walk recurses only through CallsHolding
// edges — plain Calls are deduplicated per callee and have no per-site
// held set, so following them would fabricate context.
func (rc *checker) checkDeparting() {
	for _, site := range rc.sites {
		if rc.inTestFile(site.pos) {
			continue
		}
		callee := rc.pass.Sums[site.callee]
		if callee == nil || callee.Pkg == rc.here {
			continue
		}
		rc.foreignWalk(site, callee, nil, map[string]bool{site.callee: true})
	}
}

func (rc *checker) foreignWalk(site callSite, callee *framework.FuncSummary,
	chain []string, visited map[string]bool) {

	siteHolds := func(lock string, write bool) bool {
		if write {
			if site.held.HoldsWrite(lock) {
				return true
			}
		} else if site.held.Holds(lock) {
			return true
		}
		return rc.inheritedHolds(site.caller, lock, write)
	}
	for _, fa := range callee.FieldAccesses {
		guard := rc.pass.Ann.GuardedBy[fa.Field]
		if guard == "" || !rc.visible[guard] || testLoc(fa.Loc) {
			continue
		}
		if framework.HeldListHolds(fa.Held, guard, fa.Write) ||
			framework.HeldListHolds(chain, guard, fa.Write) ||
			siteHolds(guard, fa.Write) {
			continue
		}
		verb := "reads"
		if fa.Write {
			verb = "writes"
		}
		rc.pass.Reportf(site.pos, "call into %s %s %s (%s) without %s held; the field is //gather:guardedby %s — acquire it before this call",
			callee.Key, verb, shortField(fa.Field), fa.Loc, guard, guard)
	}
	for _, hc := range callee.CallsHolding {
		next := rc.pass.Sums[hc.Callee]
		if next == nil || next.Pkg == rc.here || visited[hc.Callee] {
			continue
		}
		visited[hc.Callee] = true
		rc.foreignWalk(site, next, append(append([]string(nil), chain...), hc.Held...), visited)
	}
}

// ---------------------------------------------------------------------
// Position helpers.

// inFuncLit reports whether pos sits inside a function literal — where
// call-site lock inheritance never applies.
func (rc *checker) inFuncLit(pos token.Pos) bool {
	in := false
	for _, file := range rc.pass.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if in || n == nil || pos < n.Pos() || pos >= n.End() {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				in = true
			}
			return true
		})
	}
	return in
}

func (rc *checker) inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(rc.pass.Fset.Position(pos).Filename, "_test.go")
}

// testLoc reports whether a summary location string ("file.go:l:c")
// points into a test file.
func testLoc(loc string) bool {
	i := strings.Index(loc, ":")
	return i > 0 && strings.HasSuffix(loc[:i], "_test.go")
}

// ---------------------------------------------------------------------
// Small utilities.

// calleeFunc resolves the called *types.Func, nil for builtins and
// indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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

// exportedName reports whether the function or method named by key is
// exported (callable from outside the package).
func exportedName(key string) bool {
	name := key[strings.LastIndex(key, ".")+1:]
	return name != "" && name[0] >= 'A' && name[0] <= 'Z'
}

// shortField renders a field key without its package path.
func shortField(field string) string {
	if i := strings.LastIndex(field, "/"); i >= 0 {
		return field[i+1:]
	}
	return field
}

// unionSets joins two lock sets at the stronger mode.
func unionSets(a, b framework.LockSet) framework.LockSet {
	out := a.Clone()
	if out == nil {
		out = framework.LockSet{}
	}
	for id, m := range b {
		if out[id] < m {
			out[id] = m
		}
	}
	return out
}

// meetSets intersects two lock sets at the weaker mode.
func meetSets(a, b framework.LockSet) framework.LockSet {
	out := framework.LockSet{}
	for id, m := range a {
		if bm, ok := b[id]; ok {
			if bm < m {
				m = bm
			}
			out[id] = m
		}
	}
	return out
}

func equalSets(a, b framework.LockSet) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for id, m := range a {
		if b[id] != m {
			return false
		}
	}
	return true
}

func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
