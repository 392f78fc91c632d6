// Package framework is a minimal, dependency-free stand-in for the parts
// of golang.org/x/tools/go/analysis that gatherlint needs. The container
// this repo builds in has no module proxy access, so the x/tools analysis
// API, its unitchecker driver and its analysistest harness are re-derived
// here from the standard library (go/ast, go/types, go/importer) instead
// of being imported.
//
// The shape mirrors x/tools on purpose — an Analyzer holds a Name, a Doc
// and a Run function over a Pass carrying the type-checked package — so a
// future PR that gains network access can swap the real dependency in with
// mechanical edits.
//
// On top of the x/tools shape it adds the two repo-specific conventions
// every gatherlint analyzer shares:
//
//   - //gather:* source annotations (Annotations, ScanFile): machine-read
//     markers that declare the engine's invariants next to the code that
//     owns them — immutable shared types, attached (non-Detached) crowd
//     sources, blocking calls, allocation-free hot paths. Annotations
//     travel between packages as Facts (JSON), the vetx fact files of the
//     go vet -vettool protocol.
//
//   - //lint:allow suppressions (Suppressions): a flagged line may carry
//     an explicit, reasoned waiver. A waiver without a reason is itself a
//     diagnostic — suppressions are documentation, not an off switch.
package framework

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// waivers. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by gatherlint help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Ann holds the //gather:* annotations visible to this package: its
	// own plus those imported as facts from its dependencies.
	Ann *Annotations
	// Sums holds the per-function summaries visible to this package — its
	// own (computed from the typed AST, with source positions) plus its
	// dependencies' (decoded from facts, positions as file:line strings).
	// Keyed like function annotations: "<pkgpath>.<Func>" or
	// "<pkgpath>.<Type>.<Method>".
	Sums map[string]*FuncSummary

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Annotations are the //gather:* markers of a package set. Keys are
// dot-joined paths:
//
//	immutable type:  "<pkgpath>.<Type>"
//	attached field:  "<pkgpath>.<Type>.<Field>"
//	attached func:   "<pkgpath>.<Func>" or "<pkgpath>.<Type>.<Method>"
//	blocking func:   same as attached func
//	hotpath func:    same as attached func
type Annotations struct {
	// Immutable types must not have their fields written outside the
	// declaring package (enforced by sharedmut).
	Immutable map[string]bool
	// Attached marks crowd sources that the next Append may rewrite:
	// fields holding attached values, and functions returning them
	// (enforced by detachcheck).
	Attached map[string]bool
	// Blocking marks functions that may park the calling goroutine
	// (consumed by lockcheck).
	Blocking map[string]bool
	// Hotpath marks functions that must not introduce avoidable
	// allocations (enforced by hotalloc).
	Hotpath map[string]bool
	// Locks names mutex fields for lock-order analysis: the key is the
	// field path "<pkgpath>.<Type>.<Field>", the value the canonical lock
	// name declared with //gather:lock <name> (consumed by lockorder).
	Locks map[string]string
	// GuardedBy maps a field path "<pkgpath>.<Type>.<Field>" to the name
	// of the //gather:lock that must be held to touch it, declared with
	// //gather:guardedby <lock> (enforced by racecheck). The guard may
	// live in another package: a field guarded by a lock its own package
	// cannot see is checked at the call sites of the packages that can.
	GuardedBy map[string]string
}

// NewAnnotations returns an empty annotation set.
func NewAnnotations() *Annotations {
	return &Annotations{
		Immutable: map[string]bool{},
		Attached:  map[string]bool{},
		Blocking:  map[string]bool{},
		Hotpath:   map[string]bool{},
		Locks:     map[string]string{},
		GuardedBy: map[string]string{},
	}
}

// Merge folds other into a.
func (a *Annotations) Merge(other *Annotations) {
	if other == nil {
		return
	}
	for k := range other.Immutable {
		a.Immutable[k] = true
	}
	for k := range other.Attached {
		a.Attached[k] = true
	}
	for k := range other.Blocking {
		a.Blocking[k] = true
	}
	for k := range other.Hotpath {
		a.Hotpath[k] = true
	}
	for k, v := range other.Locks {
		a.Locks[k] = v
	}
	for k, v := range other.GuardedBy {
		a.GuardedBy[k] = v
	}
}

// Empty reports whether a carries no annotations.
func (a *Annotations) Empty() bool {
	return len(a.Immutable) == 0 && len(a.Attached) == 0 &&
		len(a.Blocking) == 0 && len(a.Hotpath) == 0 && len(a.Locks) == 0 &&
		len(a.GuardedBy) == 0
}

// The annotation directives. Like //go:build directives they must start
// the comment (no space after //) to be recognised.
const (
	dirImmutable = "//gather:immutable"
	dirAttached  = "//gather:attached"
	dirBlocking  = "//gather:blocking"
	dirHotpath   = "//gather:hotpath"
	dirLock      = "//gather:lock"
	dirGuardedBy = "//gather:guardedby"
)

// hasDirective reports whether the comment group contains the directive
// as a whole line (directives may carry a trailing explanation after a
// space: "//gather:immutable — shared across shards").
func hasDirective(cg *ast.CommentGroup, dir string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		t := c.Text
		if t == dir || strings.HasPrefix(t, dir+" ") || strings.HasPrefix(t, dir+"\t") {
			return true
		}
	}
	return false
}

// directiveArg returns the first word following the directive in the
// comment group ("//gather:lock enq — serialises admission" yields
// "enq"), or "" when the directive is absent or bare.
func directiveArg(cg *ast.CommentGroup, dir string) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, dir)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) > 0 {
			return fields[0]
		}
	}
	return ""
}

// ScanFile collects the //gather:* annotations declared in file into a.
// pkgpath keys the annotations; it must be the import path under which
// dependent packages will resolve the annotated names.
func (a *Annotations) ScanFile(pkgpath string, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				typeKey := pkgpath + "." + ts.Name.Name
				if hasDirective(d.Doc, dirImmutable) || hasDirective(ts.Doc, dirImmutable) ||
					hasDirective(ts.Comment, dirImmutable) {
					a.Immutable[typeKey] = true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, f := range st.Fields.List {
					if hasDirective(f.Doc, dirAttached) || hasDirective(f.Comment, dirAttached) {
						for _, name := range f.Names {
							a.Attached[typeKey+"."+name.Name] = true
						}
					}
					lockName := directiveArg(f.Doc, dirLock)
					if lockName == "" {
						lockName = directiveArg(f.Comment, dirLock)
					}
					if lockName != "" {
						for _, name := range f.Names {
							a.Locks[typeKey+"."+name.Name] = lockName
						}
					}
					guard := directiveArg(f.Doc, dirGuardedBy)
					if guard == "" {
						guard = directiveArg(f.Comment, dirGuardedBy)
					}
					if guard != "" {
						for _, name := range f.Names {
							a.GuardedBy[typeKey+"."+name.Name] = guard
						}
					}
				}
			}
		case *ast.FuncDecl:
			key := FuncDeclKey(pkgpath, d)
			if hasDirective(d.Doc, dirAttached) {
				a.Attached[key] = true
			}
			if hasDirective(d.Doc, dirBlocking) {
				a.Blocking[key] = true
			}
			if hasDirective(d.Doc, dirHotpath) {
				a.Hotpath[key] = true
			}
		}
	}
}

// FuncDeclKey returns the annotation key of a function declaration:
// "<pkgpath>.<Func>" for package functions, "<pkgpath>.<Type>.<Method>"
// for methods (pointer receivers and generic type parameters stripped).
func FuncDeclKey(pkgpath string, d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return pkgpath + "." + d.Name.Name
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		default:
			if id, ok := t.(*ast.Ident); ok {
				return pkgpath + "." + id.Name + "." + d.Name.Name
			}
			return pkgpath + "." + d.Name.Name
		}
	}
}

// TypeKey returns the annotation key of a named type, or "" when t is not
// (a pointer to) a named type.
func TypeKey(t types.Type) string {
	t = Deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// FuncKey returns the annotation key of a called function object, using
// recv for methods ("" selects the package-function form).
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if tk := TypeKey(sig.Recv().Type()); tk != "" {
			return tk + "." + fn.Name()
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Deref strips one level of pointer.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// Facts is the serialised form of a package's analysis facts — the
// payload of the vetx fact files exchanged through the go vet -vettool
// protocol: the //gather:* annotations plus the per-function summaries.
// A package's facts are the union of its own and its dependencies', so
// transitivity needs no graph walk at load time.
type Facts struct {
	Immutable []string          `json:"immutable,omitempty"`
	Attached  []string          `json:"attached,omitempty"`
	Blocking  []string          `json:"blocking,omitempty"`
	Hotpath   []string          `json:"hotpath,omitempty"`
	Locks     map[string]string `json:"locks,omitempty"`
	GuardedBy map[string]string `json:"guardedBy,omitempty"`
	// Summaries carries one FuncSummary per function, keyed like
	// function annotations. Waived allocation sites are dropped before
	// encoding: a dependency's waiver must silence dependent reports too.
	Summaries map[string]*FuncSummary `json:"summaries,omitempty"`
}

// EncodeFacts serialises the annotations and summaries deterministically
// (sorted keys; encoding/json sorts map keys).
func EncodeFacts(a *Annotations, sums map[string]*FuncSummary) ([]byte, error) {
	f := Facts{
		Immutable: sortedKeys(a.Immutable),
		Attached:  sortedKeys(a.Attached),
		Blocking:  sortedKeys(a.Blocking),
		Hotpath:   sortedKeys(a.Hotpath),
		Summaries: exportSummaries(sums),
	}
	if len(a.Locks) > 0 {
		f.Locks = a.Locks
	}
	if len(a.GuardedBy) > 0 {
		f.GuardedBy = a.GuardedBy
	}
	return json.Marshal(f)
}

// DecodeFacts parses fact bytes into an annotation set and summary map.
// Empty input (the fact file of a package analysed before this tool
// versioned its facts, or of a standard-library package) decodes to no
// facts; malformed input is an error.
func DecodeFacts(data []byte) (*Annotations, map[string]*FuncSummary, error) {
	a := NewAnnotations()
	sums := map[string]*FuncSummary{}
	if len(data) == 0 {
		return a, sums, nil
	}
	var f Facts
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, err
	}
	for _, k := range f.Immutable {
		a.Immutable[k] = true
	}
	for _, k := range f.Attached {
		a.Attached[k] = true
	}
	for _, k := range f.Blocking {
		a.Blocking[k] = true
	}
	for _, k := range f.Hotpath {
		a.Hotpath[k] = true
	}
	for k, v := range f.Locks {
		a.Locks[k] = v
	}
	for k, v := range f.GuardedBy {
		a.GuardedBy[k] = v
	}
	for k, s := range f.Summaries {
		if s != nil {
			s.Key = k
			sums[k] = s
		}
	}
	return a, sums, nil
}

// MergeSummaries folds src into dst, keeping existing entries (a
// package's own summaries, which carry real token positions, win over
// fact-decoded ones).
func MergeSummaries(dst, src map[string]*FuncSummary) {
	for k, s := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = s
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// allowPrefix starts a suppression comment:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory; a bare waiver is reported as a diagnostic of its own.
const allowPrefix = "//lint:allow"

// suppression is one parsed //lint:allow comment.
type suppression struct {
	analyzer string
	reason   string
	pos      token.Pos
	// standalone marks a waiver on a line of its own, which applies to
	// the next line; a trailing waiver applies only to its own line.
	standalone bool
}

// Suppressions indexes the //lint:allow comments of a package by file and
// line.
type Suppressions struct {
	fset  *token.FileSet
	byLoc map[string]map[int][]suppression // filename -> line -> waivers
}

// ScanSuppressions collects every //lint:allow comment in files.
func ScanSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{fset: fset, byLoc: map[string]map[int][]suppression{}}
	code := codeLines(fset, files)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				lines := s.byLoc[pos.Filename]
				if lines == nil {
					lines = map[int][]suppression{}
					s.byLoc[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], suppression{
					analyzer:   name,
					reason:     strings.TrimSpace(reason),
					pos:        c.Pos(),
					standalone: !code[pos.Filename][pos.Line],
				})
			}
		}
	}
	return s
}

// codeLines records, per file, the lines carrying non-comment tokens, so
// a waiver can tell whether it trails code or stands on its own line.
func codeLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil:
				return false
			case *ast.Comment, *ast.CommentGroup:
				return false
			}
			p := fset.Position(n.Pos())
			m := out[p.Filename]
			if m == nil {
				m = map[int]bool{}
				out[p.Filename] = m
			}
			m[p.Line] = true
			m[fset.Position(n.End()).Line] = true
			return true
		})
	}
	return out
}

// Apply filters diags through the waivers: a diagnostic is dropped when a
// matching //lint:allow sits on its line or the line above. Waivers with
// no reason are appended as diagnostics of the pseudo-analyzer "lint",
// whether or not they matched, so every suppression in the tree carries
// its justification.
func (s *Suppressions) Apply(diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		pos := s.fset.Position(d.Pos)
		if s.matches(pos.Filename, pos.Line, d.Analyzer) {
			continue
		}
		kept = append(kept, d)
	}
	for _, lines := range s.byLoc {
		for _, sups := range lines {
			for _, sup := range sups {
				if sup.analyzer == "" || sup.reason == "" {
					kept = append(kept, Diagnostic{
						Pos:      sup.pos,
						Analyzer: "lint",
						Message:  "//lint:allow needs an analyzer name and a reason: //lint:allow <analyzer> <why this is safe>",
					})
				}
			}
		}
	}
	return kept
}

func (s *Suppressions) matches(file string, line int, analyzer string) bool {
	lines, ok := s.byLoc[file]
	if !ok {
		return false
	}
	for _, sup := range lines[line] {
		if sup.analyzer == analyzer && sup.reason != "" {
			return true
		}
	}
	for _, sup := range lines[line-1] {
		if sup.standalone && sup.analyzer == analyzer && sup.reason != "" {
			return true
		}
	}
	return false
}

// RunAnalyzers applies the analyzers to one type-checked package, filters
// the findings through the package's //lint:allow waivers, and returns
// them sorted by position. sums carries the function summaries visible to
// the package (its own plus fact-imported ones); nil means none.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, ann *Annotations, sums map[string]*FuncSummary,
	analyzers []*Analyzer) ([]Diagnostic, error) {

	if sums == nil {
		sums = map[string]*FuncSummary{}
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Ann:       ann,
			Sums:      sums,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = ScanSuppressions(fset, files).Apply(diags)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
