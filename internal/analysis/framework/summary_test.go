package framework

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

// summarySrc exercises every summary dimension: static calls,
// allocation sites (one waived) and non-escaping function parameters.
const summarySrc = `package q

type Store struct{}

func (s *Store) Nest() {
	s.helper()
	s.helper()
	Visit(1, nil)
}

func (s *Store) helper() {}

func (s *Store) Grow(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	m := map[int]int{}
	_ = m
	waived := map[int]bool{} //lint:allow hotalloc scratch map lives for the whole run
	_ = waived
	return out
}

func Visit(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func VisitAll(n int, fn func(int)) {
	if fn != nil {
		Visit(n, fn)
	}
}
`

func loadSummaries(t *testing.T) (*token.FileSet, map[string]*FuncSummary, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "q.go", summarySrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ann := NewAnnotations()
	ann.ScanFile("example/q", f)
	info := NewInfo()
	conf := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("example/q", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return fset, ComputeSummaries(fset, []*ast.File{f}, pkg, info, nil), ann
}

func TestComputeSummaries(t *testing.T) {
	_, sums, _ := loadSummaries(t)

	nest := sums["example/q.Store.Nest"]
	if nest == nil {
		t.Fatal("no summary for Nest")
	}
	// One CallSite per distinct callee, first site kept.
	var callees []string
	for _, c := range nest.Calls {
		callees = append(callees, c.Callee)
	}
	if want := []string{"example/q.Store.helper", "example/q.Visit"}; !reflect.DeepEqual(callees, want) {
		t.Errorf("Nest.Calls = %v, want %v", callees, want)
	}

	grow := sums["example/q.Store.Grow"]
	kinds := map[string]int{}
	waived := 0
	for _, a := range grow.Allocs {
		kinds[a.Kind]++
		if a.Waived {
			waived++
		}
	}
	if kinds["append"] != 1 || kinds["maplit"] != 2 || waived != 1 {
		t.Errorf("Grow.Allocs = %+v, want 1 append + 2 maplit with 1 waived", grow.Allocs)
	}

	if got := sums["example/q.Visit"].NoEscapeParams; !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Visit.NoEscapeParams = %v, want [1]", got)
	}
	// VisitAll only forwards fn to Visit's non-escaping slot — the
	// intra-package fixpoint must prove it too.
	if got := sums["example/q.VisitAll"].NoEscapeParams; !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("VisitAll.NoEscapeParams = %v, want [1]", got)
	}
}

func TestSummaryFactsRoundTrip(t *testing.T) {
	_, sums, ann := loadSummaries(t)
	data, err := EncodeFacts(ann, sums)
	if err != nil {
		t.Fatalf("EncodeFacts: %v", err)
	}
	data2, err := EncodeFacts(ann, sums)
	if err != nil {
		t.Fatalf("EncodeFacts (2nd): %v", err)
	}
	if string(data) != string(data2) {
		t.Errorf("summary fact encoding is not deterministic")
	}

	gotAnn, gotSums, err := DecodeFacts(data)
	if err != nil {
		t.Fatalf("DecodeFacts: %v", err)
	}
	if !reflect.DeepEqual(gotAnn, ann) {
		t.Errorf("annotations round trip: got %+v, want %+v", gotAnn, ann)
	}

	// The waived maplit in Grow must NOT survive export: a dependency's
	// reasoned waiver silences dependent reports too.
	grow := gotSums["example/q.Store.Grow"]
	if grow == nil {
		t.Fatal("Grow summary lost in round trip")
	}
	if len(grow.Allocs) != 2 {
		t.Errorf("exported Grow.Allocs = %+v, want 2 (waived site dropped)", grow.Allocs)
	}
	for _, a := range grow.Allocs {
		if a.Waived {
			t.Errorf("waived site survived export: %+v", a)
		}
		if a.Pos != token.NoPos {
			t.Errorf("token position survived export: %+v", a)
		}
		if a.Loc == "" {
			t.Errorf("exported alloc site lost its location: %+v", a)
		}
	}

	// Structural facts survive byte-for-byte semantics.
	nest := gotSums["example/q.Store.Nest"]
	if len(nest.Calls) != 2 || nest.Calls[0].Pos != token.NoPos || nest.Calls[0].Loc == "" {
		t.Errorf("Nest.Calls after round trip = %+v, want 2 with Loc and no Pos", nest.Calls)
	}
	if nest.Key != "example/q.Store.Nest" {
		t.Errorf("decoded summary key = %q", nest.Key)
	}
	if got := gotSums["example/q.Visit"].NoEscapeParams; !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("NoEscapeParams after round trip = %v", got)
	}
}
