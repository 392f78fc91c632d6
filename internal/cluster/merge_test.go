package cluster

import (
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// mkCluster builds a cluster at tick t with the given members, spreading
// points around base so centroids are distinguishable.
func mkCluster(t trajectory.Tick, base geo.Point, ids ...trajectory.ObjectID) *snapshot.Cluster {
	objs := make([]trajectory.ObjectID, len(ids))
	pts := make([]geo.Point, len(ids))
	for i, id := range ids {
		objs[i] = id
		pts[i] = geo.Point{X: base.X + float64(id), Y: base.Y}
	}
	return snapshot.NewCluster(t, objs, pts)
}

// mkCrowd builds a crowd starting at start whose cluster at every tick has
// the same members.
func mkCrowd(start trajectory.Tick, ticks int, base geo.Point, ids ...trajectory.ObjectID) *crowd.Crowd {
	cls := make([]*snapshot.Cluster, 0, ticks)
	for t := 0; t < ticks; t++ {
		cls = append(cls, mkCluster(start+trajectory.Tick(t), base, ids...))
	}
	return crowd.New(start, cls)
}

func testGatherParams() gathering.Params { return gathering.Params{KC: 3, KP: 3, MP: 2} }

// TestCentroidAllocs: the merge takes a crowd's first centroid for every
// duplicate group and fused crowd, so it must allocate nothing.
func TestCentroidAllocs(t *testing.T) {
	cl := mkCluster(0, geo.Point{X: 100, Y: 100}, 1, 2, 3)
	if got := centroid(cl); got != (geo.Point{X: 102, Y: 100}) {
		t.Fatalf("centroid = %v, want (102, 100)", got)
	}
	if n := testing.AllocsPerRun(100, func() { centroid(cl) }); n != 0 {
		t.Fatalf("centroid allocates %.1f times per call, want 0", n)
	}
}

// TestMergeDedupExactDuplicates checks stage 1: identical copies from
// several nodes collapse to one, kept by the canonical owner.
func TestMergeDedupExactDuplicates(t *testing.T) {
	site := geo.Point{X: 100, Y: 100}
	entries := []entry{
		{node: 0, crowd: mkCrowd(5, 4, site, 1, 2, 3)},
		{node: 2, crowd: mkCrowd(5, 4, site, 1, 2, 3)},
		{node: 1, crowd: mkCrowd(5, 4, site, 1, 2, 3)},
	}
	merged := merge(entries, func(geo.Point) int { return 2 }, testGatherParams())
	if len(merged) != 1 {
		t.Fatalf("kept %d copies, want 1", len(merged))
	}
	if merged[0].node != 2 {
		t.Fatalf("kept node %d's copy, want canonical owner 2", merged[0].node)
	}
}

// TestMergeAbsorbsPartialView checks stage 2: a crowd whose clusters are
// per-tick subsets of another node's crowd over a sub-span is dropped.
func TestMergeAbsorbsPartialView(t *testing.T) {
	site := geo.Point{X: 100, Y: 100}
	full := mkCrowd(0, 6, site, 1, 2, 3, 4)
	partial := mkCrowd(1, 4, site, 2, 3) // shorter span, fewer members
	entries := []entry{
		{node: 0, crowd: full},
		{node: 1, crowd: partial},
	}
	merged := merge(entries, func(geo.Point) int { return 0 }, testGatherParams())
	if len(merged) != 1 || merged[0].crowd != full {
		t.Fatalf("merge kept %d crowds, want just the full view", len(merged))
	}
}

// TestMergeStitchesFragments checks stage 3: overlapping fragments from
// different nodes fuse into one crowd spanning their union, and gathering
// detection reruns on the result.
func TestMergeStitchesFragments(t *testing.T) {
	site := geo.Point{X: 100, Y: 100}
	// Node 0 saw the crowd entering ([0..5] with members 1-3), node 1 saw
	// it leaving ([3..9] with members 2-4): overlap [3..5] shares {2, 3}.
	left := mkCrowd(0, 6, site, 1, 2, 3)
	right := mkCrowd(3, 7, site, 2, 3, 4)
	entries := []entry{
		{node: 0, crowd: left},
		{node: 1, crowd: right},
	}
	merged := merge(entries, func(geo.Point) int { return 0 }, testGatherParams())
	if len(merged) != 1 {
		t.Fatalf("merge kept %d crowds, want 1 fused", len(merged))
	}
	fused := merged[0].crowd
	if fused.Start != 0 || fused.End() != 9 {
		t.Fatalf("fused span %d-%d, want 0-9", fused.Start, fused.End())
	}
	// Overlap ticks hold the union of both fragments' members.
	if got := fused.At(3).Len(); got != 4 {
		t.Fatalf("fused cluster at tick 3 has %d members, want 4", got)
	}
	if len(merged[0].gathers) == 0 {
		t.Fatal("stitched crowd lost its gatherings (members 2,3 persist for all 10 ticks)")
	}
}

// TestMergeKeepsBranchedCrowds checks that two genuinely distinct crowds
// diverging to disjoint clusters survive the merge untouched.
func TestMergeKeepsBranchedCrowds(t *testing.T) {
	site := geo.Point{X: 100, Y: 100}
	far := geo.Point{X: 9000, Y: 9000}
	// Different nodes, overlapping spans, disjoint members: distinct
	// crowds at distinct sites must both survive.
	c := mkCrowd(0, 4, site, 1, 2, 3)
	d := mkCrowd(2, 4, far, 7, 8, 9)
	merged := merge([]entry{
		{node: 0, crowd: c},
		{node: 1, crowd: d},
	}, func(geo.Point) int { return 0 }, testGatherParams())
	if len(merged) != 2 || merged[0].crowd != c || merged[1].crowd != d {
		t.Fatalf("merge touched disjoint crowds: kept %d", len(merged))
	}
}
