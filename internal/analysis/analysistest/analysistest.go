// Package analysistest runs a framework.Analyzer over golden fixture
// packages, mirroring golang.org/x/tools/go/analysis/analysistest (which
// this container cannot download — see internal/analysis/framework).
//
// Fixtures live under the calling test's testdata/src/<pkg>/ directory,
// one package per directory, importable by each other under their bare
// directory names. Lines that should be flagged carry a trailing
//
//	// want "regexp"
//
// comment (several regexps may follow one want). The runner type-checks
// the fixture with the standard library resolved from source (offline),
// runs the analyzer, applies //lint:allow suppressions, and then requires
// an exact match between diagnostics and want expectations: every want
// must match a diagnostic on its line and every diagnostic must be
// wanted.
//
// Fact propagation between fixture packages mirrors the vettool protocol
// exactly: each package's //gather:* annotations and function summaries
// are computed after type-checking, folded with its dependencies' facts,
// and round-tripped through framework.EncodeFacts/DecodeFacts before a
// dependent package sees them. A fixture package therefore observes its
// dependencies only through serialised facts — the same visibility an
// analyzer has under go vet — which is what lets the hotalloc fixture
// charge a dependency's allocation sites to a hot path in another package.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// Run analyses each fixture package under testdata/src and checks its
// want expectations.
func Run(t *testing.T, analyzer *framework.Analyzer, pkgs ...string) {
	t.Helper()
	ld := newLoader(filepath.Join("testdata", "src"))
	for _, pkg := range pkgs {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			target, err := ld.load(pkg)
			if err != nil {
				t.Fatalf("loading fixture %q: %v", pkg, err)
			}
			sums := map[string]*framework.FuncSummary{}
			for k, s := range target.sums {
				sums[k] = s
			}
			framework.MergeSummaries(sums, target.depSums)
			diags, err := framework.RunAnalyzers(ld.fset, target.files, target.pkg,
				target.info, target.ann, sums, []*framework.Analyzer{analyzer})
			if err != nil {
				t.Fatalf("running %s on %s: %v", analyzer.Name, pkg, err)
			}
			check(t, ld.fset, target.files, diags)
		})
	}
}

// loader loads fixture packages recursively, falling back to compiling
// the standard library from source for everything outside testdata/src.
type loader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*loadedPkg
	std  types.Importer
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	// ann is the package's view of the //gather:* annotations: its own
	// plus its dependencies', the latter through a fact round-trip.
	ann *framework.Annotations
	// sums are the package's own summaries (real token positions);
	// depSums the fact-decoded summaries of its transitive fixture deps.
	sums    map[string]*framework.FuncSummary
	depSums map[string]*framework.FuncSummary
	// facts is what a dependent package imports: the serialised union of
	// this package's annotations and summaries with its dependencies'.
	facts []byte
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		root: root,
		pkgs: map[string]*loadedPkg{},
		std:  importer.ForCompiler(fset, "source", nil),
	}
}

func (ld *loader) load(path string) (*loadedPkg, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := framework.NewInfo()
	conf := &types.Config{Importer: (*fixtureImporter)(ld)}
	// Type-checking pulls fixture dependencies through the importer, so
	// after Check returns every dependency has its facts computed.
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %q: %w", path, err)
	}

	// The package's fact view: its own annotations plus each direct
	// dependency's exported facts (which already fold that dependency's
	// own deps — same invariant as the vetx files).
	ann := framework.NewAnnotations()
	for _, f := range files {
		ann.ScanFile(path, f)
	}
	depSums := map[string]*framework.FuncSummary{}
	for _, imp := range pkg.Imports() {
		dep, ok := ld.pkgs[imp.Path()]
		if !ok {
			continue // standard library: no facts
		}
		depAnn, ds, err := framework.DecodeFacts(dep.facts)
		if err != nil {
			return nil, fmt.Errorf("decoding facts of %q: %w", imp.Path(), err)
		}
		ann.Merge(depAnn)
		framework.MergeSummaries(depSums, ds)
	}
	sums := framework.ComputeSummaries(ld.fset, files, pkg, info, depSums)

	exported := map[string]*framework.FuncSummary{}
	for k, s := range sums {
		exported[k] = s
	}
	framework.MergeSummaries(exported, depSums)
	facts, err := framework.EncodeFacts(ann, exported)
	if err != nil {
		return nil, fmt.Errorf("encoding facts of %q: %w", path, err)
	}

	p := &loadedPkg{
		pkg: pkg, files: files, info: info,
		ann: ann, sums: sums, depSums: depSums, facts: facts,
	}
	ld.pkgs[path] = p
	return p, nil
}

// fixtureImporter resolves imports for fixture packages: sibling fixture
// directories first, then the source-compiled standard library.
type fixtureImporter loader

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	ld := (*loader)(fi)
	if p, ok := ld.pkgs[path]; ok {
		return p.pkg, nil
	}
	if st, err := os.Stat(filepath.Join(ld.root, filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return ld.std.Import(path)
}

// want is one expectation: a regexp that must match a diagnostic message
// on a given line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile(`^want\s+(.*)$`)

// parseWants extracts the // want "re" expectations of the fixture files.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := wantRE.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitQuoted(t, m[1], pos) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings: `"a" "b"`.
func splitQuoted(t *testing.T, s string, pos token.Position) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			t.Fatalf("%s: want expectation must be quoted, got %q", pos, s)
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			t.Fatalf("%s: unterminated want string %q", pos, s)
		}
		raw, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad want string %q: %v", pos, s[:end+1], err)
		}
		out = append(out, raw)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}

// check matches diagnostics against wants one-to-one.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []framework.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}
