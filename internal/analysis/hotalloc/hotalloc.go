// Package hotalloc flags allocation-introducing constructs on hot paths.
//
// The discovery hot paths (crowd extension, DBSCAN neighbourhoods, grid
// probes) are kept allocation-free and pinned by testing.AllocsPerRun
// guards. Those guards only fire for the inputs a test happens to drive;
// this analyzer complements them by flagging the constructs that
// introduce allocations at the source line that adds them:
//
//   - append to a slice declared in the function without capacity
//     evidence (var s []T / s := []T{}) — presize with make, or reuse a
//     scratch buffer (buf[:0])
//   - map composite literals and un-sized make(map)
//   - function literals, which usually escape (immediately-invoked
//     literals are allowed — they are inlined — and so are literals
//     passed to a parameter the callee's summary proves non-escaping)
//   - any call into fmt (cold-path formatting belongs behind panic or
//     off the hot path; arguments to panic are exempt)
//
// The allocation sites themselves are computed once per function by the
// framework's summary pass (FuncSummary.Allocs) and travel across
// packages as facts. On top of the lexical check of each annotated
// function, the analyzer closes every //gather:hotpath root over the
// call graph (FuncSummary.Calls): a local callee's sites are reported at
// the site with the reaching root named; a foreign callee's sites are
// reported at the local call that reaches them. Functions that are
// themselves annotated //gather:hotpath stop the walk — they are
// enforced in their home package, so by induction the whole reachable
// set is covered without double reports.
//
// The checks are heuristics on declaration evidence, not escape
// analysis: a deliberate allocation on a hot path is documented with
// //lint:allow hotalloc <reason>.
package hotalloc

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the hotalloc check.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocation-introducing constructs (un-presized append, map " +
		"literals, escaping closures, fmt) in //gather:hotpath functions and " +
		"every function reachable from one",
	Run: run,
}

func run(pass *framework.Pass) error {
	here := pass.Pkg.Path()
	roots := make([]string, 0, len(pass.Ann.Hotpath))
	for k := range pass.Ann.Hotpath {
		roots = append(roots, k)
	}
	sort.Strings(roots)

	// visited spans all roots: each function's sites are charged once, to
	// the first (alphabetical) root that reaches it.
	visited := map[string]bool{}
	for _, root := range roots {
		s := pass.Sums[root]
		if s == nil || s.Pkg != here {
			continue // foreign roots are enforced in their home package
		}
		if !visited[root] {
			visited[root] = true
			reportOwnSites(pass, s)
		}
		closeOver(pass, s, root, token.NoPos, visited)
	}
	return nil
}

// reportOwnSites emits the classic lexical findings of an annotated
// function (waived sites are dropped later by the framework's
// //lint:allow filter, which matches their real positions).
func reportOwnSites(pass *framework.Pass, s *framework.FuncSummary) {
	name := shortName(s.Key)
	for _, a := range s.Allocs {
		switch a.Kind {
		case "append":
			pass.Reportf(a.Pos, "append to %s grows an un-presized slice in hot path %s; make([]T, 0, n) it or reuse a scratch buffer", a.Detail, name)
		case "maplit":
			pass.Reportf(a.Pos, "map literal in hot path %s allocates; hoist the map or index arrays instead", name)
		case "makemap":
			pass.Reportf(a.Pos, "make(map) without a size hint in hot path %s; presize it or hoist it to reusable scratch state", name)
		case "closure":
			pass.Reportf(a.Pos, "function literal in hot path %s allocates a closure; hoist it or restructure", name)
		case "fmt":
			pass.Reportf(a.Pos, "call to fmt.%s in hot path %s allocates; move formatting off the hot path", a.Detail, name)
		}
	}
}

// closeOver walks the call graph below caller, charging reachable
// functions' allocation sites to root. anchor is the position of the
// local call through which the walk left the current package — foreign
// sites are reported there, since a foreign position cannot be rendered
// in this package's diagnostics.
func closeOver(pass *framework.Pass, caller *framework.FuncSummary, root string,
	anchor token.Pos, visited map[string]bool) {

	here := pass.Pkg.Path()
	for _, c := range caller.Calls {
		callee := pass.Sums[c.Callee]
		if callee == nil {
			continue // stdlib or unanalysed: no summary, nothing to charge
		}
		if pass.Ann.Hotpath[c.Callee] {
			continue // its own root: enforced where it lives
		}
		if visited[c.Callee] {
			continue
		}
		visited[c.Callee] = true
		local := callee.Pkg == here
		nextAnchor := anchor
		if !local && nextAnchor == token.NoPos {
			nextAnchor = c.Pos
		}
		for _, a := range callee.Allocs {
			if local {
				pass.Reportf(a.Pos, "%s in %s, reachable from hot path %s; fix it there or annotate the function //gather:hotpath",
					kindMsg(a), shortName(callee.Key), shortName(root))
			} else {
				pass.Reportf(nextAnchor, "call into %s reaches %s (%s) on hot path %s; fix the callee or take this call off the hot path",
					c.Callee, kindMsg(a), a.Loc, shortName(root))
			}
		}
		closeOver(pass, callee, root, nextAnchor, visited)
	}
}

// kindMsg renders one allocation site for closure diagnostics.
func kindMsg(a framework.AllocSite) string {
	switch a.Kind {
	case "append":
		return fmt.Sprintf("an append to %s growing an un-presized slice", a.Detail)
	case "maplit":
		return "a map literal"
	case "makemap":
		return "an unsized make(map)"
	case "closure":
		return "a closure allocation"
	case "fmt":
		return fmt.Sprintf("a call to fmt.%s", a.Detail)
	}
	return a.Kind
}

// shortName reduces a summary key to its final identifier, matching the
// function-name form of the original lexical diagnostics.
func shortName(key string) string {
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}
