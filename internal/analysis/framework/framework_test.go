package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

const annotatedSrc = `// Package p.
package p

//gather:immutable — shared structure
type Cluster struct {
	Objects []int
}

//gather:hotpath
func (b *buf) extend(xs []int) {}

//gather:hotpath
func Probe() {}

type buf struct{}

// gather:immutable — leading space: NOT a directive, just prose.
type NotAnnotated struct{}
`

func parse(t *testing.T, src string) (*token.FileSet, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := NewAnnotations()
	a.ScanFile("example/p", f)
	return fset, a
}

func TestScanFile(t *testing.T) {
	_, a := parse(t, annotatedSrc)

	wantImmutable := map[string]bool{"example/p.Cluster": true}
	if !reflect.DeepEqual(a.Immutable, wantImmutable) {
		t.Errorf("Immutable = %v, want %v", a.Immutable, wantImmutable)
	}
	wantHotpath := map[string]bool{
		"example/p.buf.extend": true,
		"example/p.Probe":      true,
	}
	if !reflect.DeepEqual(a.Hotpath, wantHotpath) {
		t.Errorf("Hotpath = %v, want %v", a.Hotpath, wantHotpath)
	}
}

func TestFactsRoundTrip(t *testing.T) {
	_, a := parse(t, annotatedSrc)
	data, err := EncodeFacts(a, nil)
	if err != nil {
		t.Fatalf("EncodeFacts: %v", err)
	}
	got, _, err := DecodeFacts(data)
	if err != nil {
		t.Fatalf("DecodeFacts: %v", err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round trip changed annotations:\n got %+v\nwant %+v", got, a)
	}

	// Deterministic: encoding twice gives identical bytes.
	data2, err := EncodeFacts(a, nil)
	if err != nil {
		t.Fatalf("EncodeFacts (2nd): %v", err)
	}
	if string(data) != string(data2) {
		t.Errorf("EncodeFacts is not deterministic:\n %s\n %s", data, data2)
	}
}

func TestDecodeFactsEmptyAndMalformed(t *testing.T) {
	a, sums, err := DecodeFacts(nil)
	if err != nil {
		t.Fatalf("DecodeFacts(nil): %v", err)
	}
	if !a.Empty() || len(sums) != 0 {
		t.Errorf("DecodeFacts(nil) = %+v, %v, want empty", a, sums)
	}
	if _, _, err := DecodeFacts([]byte("{not json")); err == nil {
		t.Error("DecodeFacts on malformed input: got nil error")
	}
}

func TestMerge(t *testing.T) {
	a := NewAnnotations()
	a.Immutable["x.A"] = true
	b := NewAnnotations()
	b.Immutable["y.B"] = true
	b.Hotpath["y.F"] = true
	a.Merge(b)
	if !a.Immutable["x.A"] || !a.Immutable["y.B"] || !a.Hotpath["y.F"] {
		t.Errorf("Merge lost keys: %+v", a)
	}
	a.Merge(nil) // must not panic
}

const suppressedSrc = `package p

func f() {
	g() //lint:allow mycheck the call is guarded by the batch reservation
	g()
	h() //lint:allow mycheck
}

//lint:allow othercheck covers the next line
func g() {}

func h() {}
`

func TestSuppressions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressedSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sup := ScanSuppressions(fset, []*ast.File{f})

	posAt := func(line int) token.Pos {
		tf := fset.File(f.Pos())
		return tf.LineStart(line)
	}

	diags := []Diagnostic{
		{Pos: posAt(4), Analyzer: "mycheck", Message: "waived on its own line"},
		{Pos: posAt(5), Analyzer: "mycheck", Message: "not waived"},
		{Pos: posAt(10), Analyzer: "othercheck", Message: "waived from the line above"},
		{Pos: posAt(4), Analyzer: "mismatched", Message: "different analyzer: kept"},
	}
	got := sup.Apply(diags)

	var kept, lint int
	for _, d := range got {
		switch {
		case d.Analyzer == "lint":
			lint++
		default:
			kept++
			if d.Message != "not waived" && d.Message != "different analyzer: kept" {
				t.Errorf("unexpectedly kept: %+v", d)
			}
		}
	}
	if kept != 2 {
		t.Errorf("kept %d diagnostics, want 2", kept)
	}
	// The reasonless //lint:allow mycheck on line 6 must surface as a
	// "lint" diagnostic of its own.
	if lint != 1 {
		t.Errorf("got %d lint diagnostics for reasonless waivers, want 1", lint)
	}
}
