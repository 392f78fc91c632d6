package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestVettoolCleanOverRepo builds the gatherlint binary and drives it the
// way CI does — through go vet's -vettool protocol — over the whole
// module, asserting the tree is clean. This covers the unitchecker
// handshake (-V=full, -flags, per-package vet.cfg), fact propagation
// through vetx files, and every //lint:allow waiver carrying a reason.
func TestVettoolCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module and vets every package; skipped with -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	tool := filepath.Join(t.TempDir(), "gatherlint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/gatherlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gatherlint: %v\n%s", err, out)
	}

	var out bytes.Buffer
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	vet.Stdout = &out
	vet.Stderr = &out
	if err := vet.Run(); err != nil {
		t.Errorf("go vet -vettool=gatherlint ./... failed: %v\n%s", err, out.String())
	}
}

// buildTool compiles the gatherlint binary into a test temp dir and
// returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "gatherlint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/gatherlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gatherlint: %v\n%s", err, out)
	}
	return tool
}

// writeTree writes files of a throwaway module under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVettoolFindsViolations drives the built tool through go vet over a
// throwaway module with three sharedmut violations: a write in a
// dependent package, one in a _test.go file (go vet analyses each
// package's test variant too), and one in a `//go:build probe` file
// whose code only typechecks against another probe-gated file, so it is
// seen only under `go vet -tags probe`.
func TestVettoolFindsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped with -short")
	}
	tool := buildTool(t)

	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module lintprobe\n\ngo 1.22\n",
		"imm/imm.go": `package imm

//gather:immutable
type Shared struct{ N int }
`,
		"use/use.go": `package use

import "lintprobe/imm"

func Mutate(s *imm.Shared) { s.N = 1 }
`,
		"use/use_test.go": `package use

import (
	"testing"

	"lintprobe/imm"
)

func TestMutate(t *testing.T) {
	s := &imm.Shared{}
	s.N = 3
}
`,
		"use/probe.go": `//go:build probe

package use

import "lintprobe/imm"

func MutateProbe(s *imm.Shared) { s.N = probeVal }
`,
		"use/probeval.go": `//go:build probe

package use

var probeVal = 2
`,
	})

	vet := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		cmd := exec.Command("go", append([]string{"vet", "-vettool=" + tool}, append(args, "./...")...)...)
		cmd.Dir = dir
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Run(); err == nil {
			t.Fatalf("go vet %v succeeded, want sharedmut findings\n%s", args, out.String())
		}
		return out.String()
	}
	finding := func(out, file string) bool {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, file+":") && strings.Contains(line, "[sharedmut]") &&
				strings.Contains(line, "write to field N of immutable lintprobe/imm.Shared") {
				return true
			}
		}
		return false
	}

	out := vet()
	for _, file := range []string{"use.go", "use_test.go"} {
		if !finding(out, file) {
			t.Errorf("go vet: missing sharedmut finding in %s\n%s", file, out)
		}
	}
	if finding(out, "probe.go") {
		t.Errorf("go vet without tags reported the probe-gated file\n%s", out)
	}

	out = vet("-tags", "probe")
	for _, file := range []string{"use.go", "use_test.go", "probe.go"} {
		if !finding(out, file) {
			t.Errorf("go vet -tags probe: missing sharedmut finding in %s\n%s", file, out)
		}
	}
}

// runVet runs `go vet -vettool=tool [args] ./...` in dir with env added to
// the environment, and returns its exit status and combined output.
func runVet(t *testing.T, tool, dir string, env []string, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + tool}, append(args, "./...")...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err == nil {
		return 0, out.String()
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go vet %v: %v\n%s", args, err, out.String())
	}
	return exit.ExitCode(), out.String()
}

// TestStandaloneFindsViolations checks the finding and waiver contract
// on a standalone module outside this repository: a sharedmut violation
// and an unwaived hotalloc make(map) fail the run, a make(map) waived
// with //lint:allow and a reason is silent, and a waiver without a
// reason is itself reported.
func TestStandaloneFindsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped with -short")
	}
	tool := buildTool(t)

	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module lintprobe\n\ngo 1.22\n",
		"imm/imm.go": `package imm

//gather:immutable
type Shared struct{ N int }
`,
		"use/use.go": `package use

import "lintprobe/imm"

func Mutate(s *imm.Shared) { s.N = 1 }
`,
		"use/hot.go": `package use

//gather:hotpath
func makeWaived() map[int]int {
	return make(map[int]int) //lint:allow hotalloc probe map, built once per run
}

//gather:hotpath
func makeBare() map[int]int {
	return make(map[int]int) //lint:allow hotalloc
}

//gather:hotpath
func makeUnwaived() map[int]int {
	return make(map[int]int)
}
`,
	})

	code, out := runVet(t, tool, dir, nil)
	if code == 0 {
		t.Fatalf("go vet succeeded, want findings\n%s", out)
	}
	if !strings.Contains(out, "use.go:5:") || !strings.Contains(out, "[sharedmut]") ||
		!strings.Contains(out, "write to field N of immutable lintprobe/imm.Shared") {
		t.Errorf("missing sharedmut finding in use.go\n%s", out)
	}
	hotLines := map[int]int{}
	for _, line := range strings.Split(out, "\n") {
		for _, n := range []int{5, 10, 15} {
			if strings.Contains(line, "hot.go:"+strconv.Itoa(n)+":") {
				hotLines[n]++
			}
		}
	}
	if hotLines[5] != 0 {
		t.Errorf("waived make(map) on hot.go:5 was reported\n%s", out)
	}
	if hotLines[10] == 0 || !strings.Contains(out, "//lint:allow needs an analyzer name and a reason") {
		t.Errorf("reasonless waiver on hot.go:10 was not reported\n%s", out)
	}
	if hotLines[15] == 0 || !strings.Contains(out, "[hotalloc] make(map) without a size hint in hot path makeUnwaived") {
		t.Errorf("unwaived make(map) on hot.go:15 was not reported\n%s", out)
	}
}

// TestStandaloneBuildTags checks that build constraints reach the
// analyzers the way they reach `go build`, on a standalone module: a
// `//go:build probe` file whose code only typechecks against another
// probe-gated file is ignored without the tag (the module vets clean),
// and analysed, with its violation reported, under `go vet -tags probe`
// and equally with GOFLAGS=-tags=probe from the environment.
func TestStandaloneBuildTags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped with -short")
	}
	tool := buildTool(t)

	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module tagprobe\n\ngo 1.22\n",
		"imm/imm.go": `package imm

//gather:immutable
type Shared struct{ N int }
`,
		"use/use.go": `package use

import "tagprobe/imm"

// Read-only without the probe tag: nothing to report.
func Peek(s *imm.Shared) int { return s.N }
`,
		"use/probe.go": `//go:build probe

package use

import "tagprobe/imm"

func MutateProbe(s *imm.Shared) { s.N = probeVal }
`,
		"use/probeval.go": `//go:build probe

package use

var probeVal = 2
`,
	})

	if code, out := runVet(t, tool, dir, nil); code != 0 {
		t.Errorf("without tags: exit %d, want 0 (probe files excluded)\n%s", code, out)
	}
	if code, out := runVet(t, tool, dir, nil, "-tags", "probe"); code == 0 ||
		!strings.Contains(out, "probe.go:7:") || !strings.Contains(out, "[sharedmut]") {
		t.Errorf("-tags probe: exit %d, want a sharedmut finding in probe.go\n%s", code, out)
	}
	if code, out := runVet(t, tool, dir, []string{"GOFLAGS=-tags=probe"}); code == 0 ||
		!strings.Contains(out, "probe.go:7:") || !strings.Contains(out, "[sharedmut]") {
		t.Errorf("GOFLAGS=-tags=probe: exit %d, want a sharedmut finding in probe.go\n%s", code, out)
	}
}
