package dbscan

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/trajectory"
)

// naive is a reference DBSCAN with O(n²) region queries, used to verify the
// grid-accelerated implementation.
func naive(pts []geo.Point, p Params) []int {
	n := len(pts)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if p.MinPts <= 0 || p.Eps <= 0 {
		return labels
	}
	nbrs := func(i int) []int {
		var out []int
		for j := range pts {
			if pts[i].Dist(pts[j]) <= p.Eps {
				out = append(out, j)
			}
		}
		return out
	}
	visited := make([]bool, n)
	next := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := nbrs(i)
		if len(nb) < p.MinPts {
			continue
		}
		c := next
		next++
		labels[i] = c
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[j] == Noise {
				labels[j] = c
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			nb2 := nbrs(j)
			if len(nb2) >= p.MinPts {
				queue = append(queue, nb2...)
			}
		}
	}
	return labels
}

// requireNaiveLabels fails unless Cluster labels pts exactly as naive
// does: same cluster numbering, same border assignments, same noise.
func requireNaiveLabels(t testing.TB, s *Scratch, pts []geo.Point, p Params) {
	t.Helper()
	got := s.Cluster(pts, p)
	want := naive(pts, p)
	if len(got) != len(want) {
		t.Fatalf("%+v: %d labels, want %d", p, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%+v: point %d %v labelled %d, naive %d\n got %v\nwant %v",
				p, i, pts[i], got[i], want[i], got, want)
		}
	}
}

// sizes returns the member count of each cluster, by cluster id.
func sizes(labels []int) []int {
	var out []int
	for _, l := range labels {
		for l >= len(out) {
			out = append(out, 0)
		}
		if l >= 0 {
			out[l]++
		}
	}
	return out
}

func TestClusterTwoBlobs(t *testing.T) {
	var pts []geo.Point
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		pts = append(pts, geo.Point{X: r.Float64() * 10, Y: r.Float64() * 10})
	}
	for i := 0; i < 20; i++ {
		pts = append(pts, geo.Point{X: 1000 + r.Float64()*10, Y: r.Float64() * 10})
	}
	pts = append(pts, geo.Point{X: 500, Y: 500}) // isolated noise

	labels := Cluster(pts, Params{Eps: 15, MinPts: 3})
	sz := sizes(labels)
	if len(sz) != 2 {
		t.Fatalf("got %d clusters, want 2", len(sz))
	}
	if labels[40] != Noise {
		t.Fatal("isolated point not noise")
	}
	if sz[0] != 20 || sz[1] != 20 {
		t.Fatalf("cluster sizes %v, want [20 20]", sz)
	}
}

func TestClusterAllNoise(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	labels := Cluster(pts, Params{Eps: 10, MinPts: 2})
	for i, l := range labels {
		if l != Noise {
			t.Fatalf("point %d labelled %d, want noise", i, l)
		}
	}
}

func TestClusterMinPtsIncludesSelf(t *testing.T) {
	// Two points within eps: with MinPts=2 each is a core point.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	labels := Cluster(pts, Params{Eps: 2, MinPts: 2})
	if labels[0] < 0 || labels[0] != labels[1] {
		t.Fatalf("labels = %v", labels)
	}
	// With MinPts=3 neither is core.
	labels = Cluster(pts, Params{Eps: 2, MinPts: 3})
	if labels[0] != Noise || labels[1] != Noise {
		t.Fatalf("labels = %v", labels)
	}
}

func TestClusterChainConnectivity(t *testing.T) {
	// A chain of points spaced 1 apart with eps=1.5 is one cluster even
	// though the endpoints are far apart (density-reachability).
	var pts []geo.Point
	for i := 0; i < 50; i++ {
		pts = append(pts, geo.Point{X: float64(i), Y: 0})
	}
	labels := Cluster(pts, Params{Eps: 1.5, MinPts: 2})
	for i, l := range labels {
		if l != 0 {
			t.Fatalf("point %d labelled %d", i, l)
		}
	}
}

func TestClusterEmptyAndDegenerateParams(t *testing.T) {
	if got := Cluster(nil, Params{Eps: 1, MinPts: 1}); len(got) != 0 {
		t.Fatalf("nil input -> %v", got)
	}
	pts := []geo.Point{{X: 0, Y: 0}}
	for _, p := range []Params{{Eps: 0, MinPts: 1}, {Eps: 1, MinPts: 0}, {Eps: -1, MinPts: 1}, {Eps: math.NaN(), MinPts: 1}} {
		labels := Cluster(pts, p)
		if labels[0] != Noise {
			t.Fatalf("params %+v: label %d", p, labels[0])
		}
	}
}

func TestClusterDuplicatePoints(t *testing.T) {
	pts := []geo.Point{{X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}}
	labels := Cluster(pts, Params{Eps: 0.5, MinPts: 4})
	for i, l := range labels {
		if l != 0 {
			t.Fatalf("dup point %d labelled %d", i, l)
		}
	}
}

func TestClusterNegativeCoordinates(t *testing.T) {
	// Cell indices must behave on negative coordinates; a blob straddling
	// the origin must be one cluster.
	var pts []geo.Point
	for i := -5; i <= 5; i++ {
		pts = append(pts, geo.Point{X: float64(i) * 0.5, Y: -0.25})
	}
	labels := Cluster(pts, Params{Eps: 0.75, MinPts: 2})
	for i, l := range labels {
		if l != 0 {
			t.Fatalf("point %d labelled %d", i, l)
		}
	}
}

// TestClusterMatchesNaive requires Cluster's labels to equal naive's
// element for element — cluster numbering and border tie-breaks
// included — on inputs built to exercise both.
func TestClusterMatchesNaive(t *testing.T) {
	var s Scratch
	t.Run("shared-border", func(t *testing.T) {
		// Two clusters reach the non-core point at x=10 from x=5 and
		// x=15. Shuffling the input moves which cluster is numbered first
		// and whether the border is visited before either starts; the
		// border must always go to the lower-numbered cluster.
		pts := []geo.Point{
			{X: 20, Y: 0}, {X: 19.5, Y: 0}, {X: 19, Y: 0}, {X: 15, Y: 0},
			{X: 10, Y: 0},
			{X: 5, Y: 0}, {X: 1, Y: 0}, {X: 0.5, Y: 0}, {X: 0, Y: 0},
			{X: 10, Y: 4.9}, {X: 10, Y: 9.8}, {X: 10, Y: 10.2}, {X: 10, Y: 10.6},
		}
		r := rand.New(rand.NewSource(12))
		for shuffle := 0; shuffle < 50; shuffle++ {
			for _, minPts := range []int{2, 3, 4, 5} {
				requireNaiveLabels(t, &s, pts, Params{Eps: 5, MinPts: minPts})
			}
			r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		}
	})
	t.Run("cell-edges-at-eps", func(t *testing.T) {
		// Lattices whose spacing is ε, so neighbours sit exactly ε apart
		// on cell edges: 0.5 is exact in binary, 0.1 is not and its
		// multiples land a rounding either side of ε.
		for _, step := range []float64{0.5, 0.1} {
			var pts []geo.Point
			for i := -4; i <= 4; i++ {
				for j := -4; j <= 4; j++ {
					if (i*7+j*3)%5 != 0 { // thin the lattice unevenly
						pts = append(pts, geo.Point{X: float64(i) * step, Y: float64(j) * step})
					}
				}
			}
			for _, eps := range []float64{step, math.Nextafter(step, 0), math.Nextafter(step, 1), step * math.Sqrt2} {
				for _, minPts := range []int{2, 3, 4, 5} {
					requireNaiveLabels(t, &s, pts, Params{Eps: eps, MinPts: minPts})
				}
			}
		}
	})
	t.Run("duplicates", func(t *testing.T) {
		pts := []geo.Point{{X: 1, Y: 1}, {X: 3, Y: 1}, {X: 1, Y: 1}, {X: 3, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 1}, {X: 9, Y: 9}, {X: 9, Y: 9}}
		for _, minPts := range []int{1, 2, 3, 4} {
			requireNaiveLabels(t, &s, pts, Params{Eps: 1, MinPts: minPts})
		}
	})
	t.Run("negative", func(t *testing.T) {
		r := rand.New(rand.NewSource(9))
		pts := make([]geo.Point, 200)
		for i := range pts {
			pts[i] = geo.Point{X: -1e4 + r.NormFloat64()*30, Y: -5e3 + float64(r.Intn(3))*60 + r.NormFloat64()*15}
		}
		for _, minPts := range []int{2, 4, 8} {
			requireNaiveLabels(t, &s, pts, Params{Eps: 12, MinPts: minPts})
		}
	})
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(77))
		for trial := 0; trial < 60; trial++ {
			n := 30 + r.Intn(200)
			pts := make([]geo.Point, n)
			// Overlapping blobs of variable spread, snapped to a lattice
			// half the time so exact ties and duplicates occur.
			snap := trial%2 == 0
			for i := range pts {
				cx := float64(r.Intn(4)) * 40
				cy := float64(r.Intn(4)) * 40
				pts[i] = geo.Point{X: cx + r.NormFloat64()*12 - 60, Y: cy + r.NormFloat64()*12 - 60}
				if snap {
					pts[i] = geo.Point{X: math.Round(pts[i].X), Y: math.Round(pts[i].Y)}
				}
			}
			p := Params{Eps: 4 + float64(r.Intn(12)), MinPts: 2 + r.Intn(5)}
			requireNaiveLabels(t, &s, pts, p)
		}
	})
}

// TestClusterMatchesNaiveDenseTicks clusters every tick of the dense
// serving-benchmark input (1500 taxis, the Fig. 6 dense knobs, two days
// of 96 ticks) and requires naive's labels at each.
func TestClusterMatchesNaiveDenseTicks(t *testing.T) {
	cfg := gen.Default()
	cfg.NumTaxis = 1500
	cfg.TicksPerDay = 96
	cfg.Days = 2
	cfg.JamCommitted = 120
	cfg.JamChurn = 60
	cfg.DropGoVisitors = 100
	cfg.PlatoonSize = 40
	db := gen.Generate(cfg)
	p := Params{Eps: 200, MinPts: 5}
	ticks := make([][]geo.Point, db.Domain.N)
	var snap []trajectory.ObjPoint
	for tick := range ticks {
		snap = db.Snapshot(trajectory.Tick(tick), snap)
		for _, op := range snap {
			ticks[tick] = append(ticks[tick], op.P)
		}
	}
	// The reference is the slow side: spread it over the CPUs.
	want := make([][]int, len(ticks))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for tick := w; tick < len(ticks); tick += workers {
				want[tick] = naive(ticks[tick], p)
			}
		}(w)
	}
	wg.Wait()
	var s Scratch
	for tick, pts := range ticks {
		got := s.Cluster(pts, p)
		for i := range got {
			if got[i] != want[tick][i] {
				t.Fatalf("tick %d point %d %v: labelled %d, naive %d", tick, i, pts[i], got[i], want[tick][i])
			}
		}
	}
}

// TestClusterCellWrap covers inputs whose cell indices lie on both sides
// of the int32 range or reach the 2³⁰ cap, coordinates that are not
// finite, points on and across sub-cell boundaries, and the regimes where
// sub-cells are not cliques.
func TestClusterCellWrap(t *testing.T) {
	const w = 1 << 31 // first cell index past the int32 range at ε = 1
	const h = (1 + 0x1p-16) / 2
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		pts  []geo.Point
		p    Params
	}{
		{"x-above-int32", []geo.Point{{X: w - 0.5, Y: 0}, {X: w, Y: 0}, {X: w + 0.5, Y: 0}}, Params{Eps: 1, MinPts: 3}},
		{"x-below-int32", []geo.Point{{X: -w - 0.5, Y: 0}, {X: -w - 1, Y: 0}, {X: -w - 1.5, Y: 0}}, Params{Eps: 1, MinPts: 3}},
		{"y-above-int32", []geo.Point{{X: 3, Y: w - 0.5}, {X: 3, Y: w}, {X: 3, Y: w + 0.5}}, Params{Eps: 1, MinPts: 3}},
		{"y-below-int32", []geo.Point{{X: 3, Y: -w - 0.5}, {X: 3, Y: -w - 1}, {X: 3, Y: -w - 1.5}}, Params{Eps: 1, MinPts: 3}},
		{"diagonal-across-wrap", []geo.Point{{X: w - 0.3, Y: -w + 0.3}, {X: w + 0.3, Y: -w - 0.3}, {X: w, Y: -w}}, Params{Eps: 1, MinPts: 3}},
		{"both-wraps-at-once", []geo.Point{{X: w, Y: 0}, {X: w + 0.5, Y: 0}, {X: -w, Y: 0}, {X: -w - 0.5, Y: 0}, {X: 0, Y: 0}}, Params{Eps: 1, MinPts: 2}},
		{"far-apart-1e300", []geo.Point{{X: 1e300, Y: 0}, {X: 1e300, Y: 0.5}, {X: -1e300, Y: 0}, {X: -1e300, Y: 0.5}}, Params{Eps: 1, MinPts: 2}},
		{"plus-inf", []geo.Point{{X: inf, Y: 0}, {X: inf, Y: 0}, {X: 0, Y: 0}, {X: 0.5, Y: 0}}, Params{Eps: 1, MinPts: 2}},
		{"minus-inf", []geo.Point{{X: 0, Y: -inf}, {X: 0, Y: -inf}, {X: 0, Y: 0}, {X: 0, Y: 0.5}}, Params{Eps: 1, MinPts: 2}},
		{"nan", []geo.Point{{X: nan, Y: 0}, {X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0, Y: nan}}, Params{Eps: 1, MinPts: 1}},
		{"inf-eps", []geo.Point{{X: inf, Y: 0}, {X: 0, Y: 0}, {X: 1e308, Y: -1e308}, {X: nan, Y: inf}, {X: nan, Y: 0}}, Params{Eps: inf, MinPts: 2}},
		{"huge-eps", []geo.Point{{X: 1e308, Y: 0}, {X: -1e308, Y: 0}, {X: 0, Y: 1e308}}, Params{Eps: 1.5e308, MinPts: 2}},
		{"tiny-eps", []geo.Point{{X: 0, Y: 0}, {X: 5e-324, Y: 0}, {X: 1e-323, Y: 0}, {X: 0, Y: 5e-324}}, Params{Eps: 5e-324, MinPts: 2}},
		// The far corner coarsens the grid to a row and a column index of
		// exactly 2³⁰, the widest the key packs, beside three points within ε.
		{"row-and-column-2^30", []geo.Point{{X: 0, Y: 0}, {X: 0x1p40, Y: 0x1p40}, {X: 0x1p40 - 0.5, Y: 0x1p40}, {X: 0x1p40, Y: 0x1p40 - 0.5}}, Params{Eps: 1, MinPts: 3}},
		// Coarse sub-cells are 512 wide at ε = 1: three points in one must
		// not be core by count.
		{"coarse-sub-cell-not-clique", []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}, {X: 0x1p40, Y: 0}}, Params{Eps: 1, MinPts: 3}},
		// At ε = 1 the side is 1+2⁻¹⁶, so h is a sub-cell's side: points on
		// a sub-cell boundary, just inside it, and a pair exactly one
		// sub-cell diagonal apart (√2·h ≈ 0.707).
		{"on-sub-cell-boundary", []geo.Point{{X: 0, Y: 0}, {X: h, Y: 0}, {X: math.Nextafter(h, 0), Y: 0}, {X: 2 * h, Y: 0}, {X: h, Y: h}, {X: 3 * h, Y: 2 * h}}, Params{Eps: 1, MinPts: 3}},
		{"sub-cell-diagonal", []geo.Point{{X: 0, Y: 0}, {X: h, Y: h}, {X: 2 * h, Y: 2 * h}, {X: 3 * h, Y: 3 * h}}, Params{Eps: 1, MinPts: 2}},
		{"inside-sub-cell-diagonal", []geo.Point{{X: 0, Y: 0}, {X: math.Nextafter(h, 0), Y: math.Nextafter(h, 0)}, {X: 0, Y: math.Nextafter(h, 0)}}, Params{Eps: 1, MinPts: 3}},
		// A subnormal ε: MinPts points share one sub-cell, which the
		// kernel must not take for a clique there; each counts neighbours.
		{"subnormal-eps-one-sub-cell", []geo.Point{{X: 0, Y: 0}, {X: 5e-324, Y: 0}, {X: 0, Y: 5e-324}, {X: 5e-324, Y: 5e-324}}, Params{Eps: 1.5e-323, MinPts: 4}},
	}
	var s Scratch
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireNaiveLabels(t, &s, tc.pts, tc.p)
			if strings.HasPrefix(tc.name, "coarse") || strings.HasPrefix(tc.name, "subnormal") {
				// Outside the clique regime every point is a unit of its own.
				if units := len(s.units) - 1; units != len(tc.pts) {
					t.Fatalf("%d units for %d points: the clique shortcut can fire", units, len(tc.pts))
				}
			}
		})
	}
	// The wrap case clusters all three points, not just matches naive.
	if got := Cluster(cases[0].pts, cases[0].p); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("points straddling cell 2^31 labelled %v, want one cluster", got)
	}
}

func TestClusterLargeUniform(t *testing.T) {
	// Sanity at scale: dense uniform square becomes a single cluster.
	r := rand.New(rand.NewSource(5))
	n := 5000
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	labels := Cluster(pts, Params{Eps: 5, MinPts: 4})
	sz := sizes(labels)
	if len(sz) != 1 {
		t.Fatalf("dense square split into %d clusters", len(sz))
	}
	if sz[0] < n*95/100 {
		t.Fatalf("only %d/%d points clustered", sz[0], n)
	}
}

// TestScratchReuseMatchesFresh drives one Scratch through many differently
// sized inputs — the snapshot.Build per-tick pattern — and checks every
// labelling is identical to a fresh-memory run: stale cells, point states
// or stack contents from a previous call must never leak.
func TestScratchReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var s Scratch
	for trial := 0; trial < 40; trial++ {
		n := r.Intn(300) // includes empty and tiny inputs
		pts := make([]geo.Point, n)
		for i := range pts {
			cx := float64(r.Intn(5)) * 150
			cy := float64(r.Intn(5)) * 150
			pts[i] = geo.Point{X: cx + r.NormFloat64()*10 - 200, Y: cy + r.NormFloat64()*10 - 200}
		}
		p := Params{Eps: 8 + r.Float64()*12, MinPts: 2 + r.Intn(4)}
		got := s.Cluster(pts, p)
		want := Cluster(pts, p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d labels, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d point %d: reused scratch labelled %d, fresh %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestScratchClusterAllocatesNothing pins the steady state: once a
// Scratch has clustered an input of a given size, clustering it again
// allocates nothing. The blobs exercise neighbour scans; the jam — 60
// points within a few sub-cells, border points around it and noise —
// also holds the union-find, the unit table and the neighbour lists to it.
func TestScratchClusterAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	blobs := make([]geo.Point, 2000)
	for i := range blobs {
		blobs[i] = geo.Point{X: float64(r.Intn(20))*300 + r.NormFloat64()*80, Y: float64(r.Intn(20))*300 + r.NormFloat64()*80}
	}
	var jam []geo.Point
	for i := 0; i < 60; i++ { // a 6×10 lattice, 1 apart
		jam = append(jam, geo.Point{X: 1000 + float64(i%6), Y: 1000 + float64(i/6)})
	}
	// Borders 199.99 out from the middle of each side: three lattice
	// points within ε, so four with themselves.
	jam = append(jam, geo.Point{X: 1204.99, Y: 1004}, geo.Point{X: 800.01, Y: 1004},
		geo.Point{X: 1002, Y: 1208.99}, geo.Point{X: 1002, Y: 800.01})
	for i := 0; i < 20; i++ { // noise
		jam = append(jam, geo.Point{X: r.Float64() * 5000, Y: 3000 + r.Float64()*5000})
	}
	p := Params{Eps: 200, MinPts: 5}
	for name, pts := range map[string][]geo.Point{"blobs": blobs, "jam": jam} {
		var s Scratch
		labels := s.Cluster(pts, p)
		if name == "jam" {
			var dense, border, noise bool
			for u := range s.units[:len(s.units)-1] {
				dense = dense || s.units[u+1].start-s.units[u].start >= int32(p.MinPts)
			}
			for q, i := range s.ord {
				border = border || s.core[q] < 0 && labels[i] >= 0
				noise = noise || labels[i] == Noise
			}
			if !dense || !border || !noise {
				t.Fatalf("jam input has a dense unit %v, a border point %v, noise %v; want all three", dense, border, noise)
			}
		}
		if n := testing.AllocsPerRun(20, func() { s.Cluster(pts, p) }); n != 0 {
			t.Fatalf("%s: warmed Scratch.Cluster allocates %.1f times per call, want 0", name, n)
		}
	}
}

// maxFuzzPoints bounds one fuzz input so the O(n²) reference stays fast.
const maxFuzzPoints = 256

// FuzzClusterMatchesNaive decodes arbitrary float64 points (16 bytes
// each, little-endian X then Y) and parameters, and requires Cluster to
// finish without panicking and label exactly as naive does. The seed
// corpus under testdata/fuzz covers the int32 cell wrap, non-finite
// coordinates and ε, lattices at exactly ε, shared borders and
// duplicates.
func FuzzClusterMatchesNaive(f *testing.F) {
	var s Scratch
	f.Fuzz(func(t *testing.T, eps float64, minPts uint8, raw []byte) {
		n := min(len(raw)/16, maxFuzzPoints)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])),
			}
		}
		p := Params{Eps: eps, MinPts: int(minPts % 16)}
		requireNaiveLabels(t, &s, pts, p)
	})
}
