// Command gatherlint is the repo's invariant checker: a vet tool
// carrying the seven analyzers that keep gathering discovery correct
// under sharing — sharedmut, detachcheck, lockcheck, lockorder,
// leakcheck, hotalloc and racecheck (see docs/INVARIANTS.md).
//
// It runs under go vet:
//
//	go build -o bin/gatherlint ./cmd/gatherlint
//	go vet -vettool=$(pwd)/bin/gatherlint ./...
//	go vet -vettool=$(pwd)/bin/gatherlint -tags probe ./...   # tag-gated files
//
// go vet drives it once per package — test variants included, so
// _test.go files are analysed too — with a vet.cfg describing the
// type-checked unit (export data of every dependency included), and
// //gather:* annotations plus per-function summary facts (locks
// acquired, calls made while holding them, field accesses with their
// must-hold sets, allocation sites, goroutine termination,
// attached-crowd flow) travel between packages as fact files. Build
// tags, GOFLAGS and the package patterns are go vet's business; the
// tool has no flags of its own. It is built on the standard library
// alone, so the x/tools unitchecker protocol is reimplemented in
// vetcfg.go rather than imported.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics found.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis/detachcheck"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/leakcheck"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/racecheck"
	"repro/internal/analysis/sharedmut"
)

// analyzers is the gatherlint suite.
var analyzers = []*framework.Analyzer{
	sharedmut.Analyzer,
	detachcheck.Analyzer,
	lockcheck.Analyzer,
	lockorder.Analyzer,
	leakcheck.Analyzer,
	hotalloc.Analyzer,
	racecheck.Analyzer,
}

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		// go vet fingerprints the tool for its action cache.
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		// go vet probes for tool-specific flags; gatherlint has none.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		// One vet.cfg per package, exit 2 on findings.
		os.Exit(runVetCfg(args[0]))
	default:
		usage()
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `gatherlint enforces the gathering engine's sharing, locking and
hot-path invariants:

`)
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, `
usage (as a vet tool; gatherlint has no flags of its own):
  go vet -vettool=/path/to/gatherlint [-tags list] ./...

Findings are suppressed line-by-line with
  //lint:allow <analyzer> <reason why this is safe>
`)
}
