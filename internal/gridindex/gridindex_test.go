package gridindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

func mkCluster(t trajectory.Tick, pts []geo.Point) *snapshot.Cluster {
	objs := make([]trajectory.ObjectID, len(pts))
	for i := range objs {
		objs[i] = trajectory.ObjectID(i)
	}
	cp := append([]geo.Point(nil), pts...)
	return snapshot.NewCluster(t, objs, cp)
}

func randCluster(r *rand.Rand, cx, cy, spread float64, n int) *snapshot.Cluster {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: cx + r.NormFloat64()*spread, Y: cy + r.NormFloat64()*spread}
	}
	return mkCluster(0, pts)
}

func TestCellSide(t *testing.T) {
	s := CellSide(300)
	// diagonal of a cell must be δ
	if d := s * math.Sqrt2; math.Abs(d-300) > 1e-9 {
		t.Fatalf("cell diagonal = %v, want 300", d)
	}
}

func TestDecompose(t *testing.T) {
	c := mkCluster(0, []geo.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}, {X: 5, Y: 5}, {X: -0.1, Y: 0.1}})
	d := Decompose(c, 1)
	if len(d) != 3 {
		t.Fatalf("%d cells, want 3", len(d))
	}
	if got := len(d.find(Cell{0, 0})); got != 2 {
		t.Fatalf("cell (0,0) holds %d points", got)
	}
	if got := len(d.find(Cell{-1, 0})); got != 1 {
		t.Fatalf("cell (-1,0) holds %d points (negative coord handling)", got)
	}
	if d.has(Cell{9, 9}) {
		t.Fatal("phantom cell")
	}
}

func TestAffectRegionShape(t *testing.T) {
	var ar []Cell
	for _, o := range affectOffsets {
		ar = append(ar, Cell{10 + o[0], 10 + o[1]})
	}
	// 5x5 block minus 4 corners = 21 cells
	if len(ar) != 21 {
		t.Fatalf("affect region has %d cells, want 21", len(ar))
	}
	seen := map[Cell]bool{}
	for _, c := range ar {
		seen[c] = true
	}
	if !seen[Cell{10, 10}] || !seen[Cell{12, 10}] || !seen[Cell{12, 11}] {
		t.Fatal("expected cells missing from affect region")
	}
	for _, corner := range []Cell{{8, 8}, {8, 12}, {12, 8}, {12, 12}} {
		if seen[corner] {
			t.Fatalf("corner %v must be excluded", corner)
		}
	}
}

func TestAffectRegionCoversDelta(t *testing.T) {
	// Any point within δ of a point in cell g must lie in AR(g): verify by
	// sampling. Cell side = δ√2/2.
	r := rand.New(rand.NewSource(3))
	delta := 100.0
	s := CellSide(delta)
	for trial := 0; trial < 2000; trial++ {
		p := geo.Point{X: r.Float64() * 10 * s, Y: r.Float64() * 10 * s}
		ang := r.Float64() * 2 * math.Pi
		rad := r.Float64() * delta * 0.999 // stay strictly inside δ
		q := geo.Point{X: p.X + rad*math.Cos(ang), Y: p.Y + rad*math.Sin(ang)}
		g, h := cellOf(p, s), cellOf(q, s)
		dx, dy := abs32(h.X-g.X), abs32(h.Y-g.Y)
		if dx > 2 || dy > 2 || dx+dy >= 4 {
			t.Fatalf("point at distance %v landed outside AR: offset (%d,%d)", rad, dx, dy)
		}
	}
}

func TestBuildInvertedList(t *testing.T) {
	delta := 10.0
	a := mkCluster(0, []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}})
	b := mkCluster(0, []geo.Point{{X: 0.5, Y: 0.5}})
	ix := BuildReuse(nil, []*snapshot.Cluster{a, b}, delta)
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	cell := cellOf(geo.Point{X: 0.5, Y: 0.5}, CellSide(delta))
	got := ix.inv[cell.key()]
	if len(got) != 2 {
		t.Fatalf("inverted list for shared cell = %v", got)
	}
	if ix.clusters[0] != a || ix.clusters[1] != b {
		t.Fatal("clusters out of input order")
	}
}

// bruteRange is the reference: exact Hausdorff predicate on all clusters.
func bruteRange(q *snapshot.Cluster, cs []*snapshot.Cluster, delta float64) []int32 {
	var out []int32
	for i, c := range cs {
		if geo.WithinHausdorff(q.Points, c.Points, delta) {
			out = append(out, int32(i))
		}
	}
	return out
}

func sorted(v []int32) []int32 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangeSearchMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	delta := 50.0
	for trial := 0; trial < 40; trial++ {
		// clusters scattered around a few hubs so that some are within δ
		// and others are not
		var cs []*snapshot.Cluster
		for i := 0; i < 20; i++ {
			cx := float64(r.Intn(5)) * 60
			cy := float64(r.Intn(5)) * 60
			cs = append(cs, randCluster(r, cx, cy, 10+r.Float64()*20, 3+r.Intn(15)))
		}
		ix := BuildReuse(nil, cs, delta)
		for q := 0; q < 10; q++ {
			query := randCluster(r, float64(r.Intn(5))*60, float64(r.Intn(5))*60, 10+r.Float64()*20, 3+r.Intn(15))
			got := sorted(ix.RangeSearch(query, nil))
			want := sorted(bruteRange(query, cs, delta))
			if !equal(got, want) {
				t.Fatalf("trial %d query %d: got %v want %v", trial, q, got, want)
			}
		}
	}
}

func TestRangeSearchIdenticalCluster(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	c := randCluster(r, 0, 0, 30, 20)
	ix := BuildReuse(nil, []*snapshot.Cluster{c}, 25)
	got := ix.RangeSearch(c, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("cluster does not match itself: %v", got)
	}
}

func TestRangeSearchEmpty(t *testing.T) {
	ix := BuildReuse(nil, nil, 10)
	q := mkCluster(0, []geo.Point{{X: 0, Y: 0}})
	if got := ix.RangeSearch(q, nil); got != nil {
		t.Fatalf("empty index returned %v", got)
	}
	cs := []*snapshot.Cluster{mkCluster(0, []geo.Point{{X: 0, Y: 0}})}
	ix = BuildReuse(nil, cs, 10)
	empty := &snapshot.Cluster{}
	if got := ix.RangeSearch(empty, nil); got != nil {
		t.Fatalf("empty query returned %v", got)
	}
}

func TestRangeSearchFarCluster(t *testing.T) {
	a := mkCluster(0, []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 5}})
	b := mkCluster(0, []geo.Point{{X: 1000, Y: 1000}})
	ix := BuildReuse(nil, []*snapshot.Cluster{b}, 50)
	if got := ix.RangeSearch(a, nil); len(got) != 0 {
		t.Fatalf("far cluster matched: %v", got)
	}
}

func TestRangeSearchOutlierPoint(t *testing.T) {
	// Two clusters share a dense core but one has a distant outlier: the
	// Hausdorff distance is driven by the outlier, so they must NOT match
	// when the outlier is > δ away — the classic case dmin-style pruning
	// gets wrong and refinement must catch.
	core := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}}
	withOutlier := append(append([]geo.Point(nil), core...), geo.Point{X: 200, Y: 0})
	a := mkCluster(0, core)
	b := mkCluster(0, withOutlier)
	ix := BuildReuse(nil, []*snapshot.Cluster{b}, 50)
	if got := ix.RangeSearch(a, nil); len(got) != 0 {
		t.Fatalf("outlier cluster matched: %v", got)
	}
	// With δ large enough to cover the outlier they match.
	ix = BuildReuse(nil, []*snapshot.Cluster{b}, 250)
	if got := ix.RangeSearch(a, nil); len(got) != 1 {
		t.Fatalf("outlier cluster should match at δ=250: %v", got)
	}
}

func TestRangeSearchManyClustersStress(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	delta := 40.0
	var cs []*snapshot.Cluster
	for i := 0; i < 200; i++ {
		cs = append(cs, randCluster(r, r.Float64()*2000, r.Float64()*2000, 5+r.Float64()*15, 2+r.Intn(30)))
	}
	ix := BuildReuse(nil, cs, delta)
	for q := 0; q < 25; q++ {
		query := cs[r.Intn(len(cs))]
		got := sorted(ix.RangeSearch(query, nil))
		want := sorted(bruteRange(query, cs, delta))
		if !equal(got, want) {
			t.Fatalf("query %d: got %v want %v", q, got, want)
		}
	}
}

// TestBuildReuseDriftBoundsInvMap replays a stream whose clusters drift
// across a large region through one recycled index pair. The inverted map
// keeps empty cell lists warm for reoccurring cells, but for a drifting
// working set it must shed stale cells instead of accumulating every cell
// ever occupied — otherwise per-tick rebuild cost grows with stream age.
// Correctness under recycling (including right after a shed) is checked
// against a fresh build every tick.
func TestBuildReuseDriftBoundsInvMap(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	delta := 40.0
	var spent *Index
	maxInv, maxLive := 0, 0
	for tick := 0; tick < 400; tick++ {
		// ~6 clusters in a window that has moved on entirely every few
		// hundred ticks.
		off := float64(tick) * 150
		var cs []*snapshot.Cluster
		for i := 0; i < 6; i++ {
			cs = append(cs, randCluster(r, off+r.Float64()*800, r.Float64()*800, 5+r.Float64()*15, 2+r.Intn(10)))
		}
		ix := BuildReuse(spent, cs, delta)
		if tick%37 == 0 {
			fresh := BuildReuse(nil, cs, delta)
			q := cs[r.Intn(len(cs))]
			if got, want := sorted(ix.RangeSearch(q, nil)), sorted(fresh.RangeSearch(q, nil)); !equal(got, want) {
				t.Fatalf("tick %d: reused index got %v want %v", tick, got, want)
			}
		}
		if len(ix.inv) > maxInv {
			maxInv = len(ix.inv)
		}
		if ix.live > maxLive {
			maxLive = ix.live
		}
		spent = ix
	}
	// A reset keeps at most 3*live+64 stale keys plus the live ones, and
	// the following build adds at most one working set more, so the map
	// is bounded by ~5*maxLive+64. Unbounded accumulation would reach
	// ~10k+ keys over this drift.
	if limit := 5*maxLive + 64; maxInv > limit {
		t.Fatalf("inv map grew to %d keys (max live %d, limit %d): stale cells not shed", maxInv, maxLive, limit)
	}
}
