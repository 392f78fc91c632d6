package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis/framework"
)

// vetConfig is the JSON unit description go vet hands the tool, one per
// package (mirrors x/tools unitchecker.Config).
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoVersion    string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	PackageVetx  map[string]string
	ModulePath   string
	Standard     map[string]bool

	VetxOnly   bool
	VetxOutput string

	SucceedOnTypecheckFailure bool
}

// printVersion answers `gatherlint -V=full`: go vet caches vet results
// keyed by the tool's content hash, so the reply must carry a build ID
// derived from this executable.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		exe = "gatherlint"
	}
	h := sha256.New()
	if f, err := os.Open(exe); err == nil {
		io.Copy(h, io.LimitReader(f, 64<<10))
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)[:16]))
}

// runVetCfg analyses one vet unit, returning the process exit code.
func runVetCfg(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatherlint: reading %s: %v\n", cfgPath, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gatherlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The test variant of a package is named "pkg [pkg.test]"; annotation
	// keys and the type-checked package path both want the plain path.
	pkgPath := cfg.ImportPath
	if i := strings.IndexByte(pkgPath, ' '); i >= 0 {
		pkgPath = pkgPath[:i]
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gatherlint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	// Facts in: this package sees its own //gather:* annotations plus the
	// union of its dependencies' (each dep's fact file already folds in
	// that dep's own dependencies, so no graph walk is needed). Function
	// summaries ride in the same fact files.
	ann := framework.NewAnnotations()
	for _, f := range files {
		ann.ScanFile(pkgPath, f)
	}
	depSums := map[string]*framework.FuncSummary{}
	for dep, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil {
			continue // deps analysed by other tools may have no facts
		}
		depAnn, ds, err := framework.DecodeFacts(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gatherlint: facts of %s: %v\n", dep, err)
			return 1
		}
		ann.Merge(depAnn)
		framework.MergeSummaries(depSums, ds)
	}

	// A package's exported facts fold its dependencies', preserving the
	// no-graph-walk invariant for dependents: callers pass depSums merged
	// into whatever the package adds.
	writeFacts := func(sums map[string]*framework.FuncSummary) bool {
		if cfg.VetxOutput == "" {
			return true
		}
		facts, err := framework.EncodeFacts(ann, sums)
		if err == nil {
			err = os.WriteFile(cfg.VetxOutput, facts, 0o666)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gatherlint: writing facts: %v\n", err)
			return false
		}
		return true
	}

	// Out-of-module units (the standard library) carry no hotpath roots
	// and their summaries would dominate every fact file; their
	// annotations (none today) still flow, summaries do not. go vet only
	// sets ModulePath for module units.
	if cfg.Standard[pkgPath] || cfg.ModulePath == "" {
		if !writeFacts(depSums) {
			return 1
		}
		return 0
	}

	// Summaries need types, so unlike the lexical-only tool this
	// type-checks even VetxOnly units before writing their facts.
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		exportFile, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exportFile)
	})
	tconf := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Error:     func(error) {}, // collect via returned error; keep going
	}
	info := framework.NewInfo()
	pkg, err := tconf.Check(pkgPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeFacts(depSums)
			return 0
		}
		fmt.Fprintf(os.Stderr, "gatherlint: typechecking %s: %v\n", pkgPath, err)
		return 1
	}

	sums := framework.ComputeSummaries(fset, files, pkg, info, depSums)
	framework.MergeSummaries(sums, depSums)
	if !writeFacts(sums) {
		return 1
	}
	if cfg.VetxOnly {
		return 0
	}
	diags, err := framework.RunAnalyzers(fset, files, pkg, info, ann, sums, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatherlint: %v\n", err)
		return 1
	}
	return report(fset, diags)
}

// report prints diagnostics the way vet tools do and picks the exit code.
func report(fset *token.FileSet, diags []framework.Diagnostic) int {
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	return 2
}
