package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if d := p.Dist(q); !almostEq(d, 5) {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := p.Dist2(q); !almostEq(d, 25) {
		t.Fatalf("Dist2 = %v, want 25", d)
	}
	if d := p.Dist(p); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}

func TestPointLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if got := p.Lerp(q, 0); got != p {
		t.Fatalf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Fatalf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != (Point{5, 10}) {
		t.Fatalf("Lerp(0.5) = %v, want {5 10}", got)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect is not empty")
	}
	r := Rect{0, 0, 1, 1}
	if got := e.Union(r); got != r {
		t.Fatalf("empty ∪ r = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Fatalf("r ∪ empty = %v, want %v", got, r)
	}
	if m := e.Margin(); m != 0 {
		t.Fatalf("empty margin = %v, want 0", m)
	}
}

func TestRectContainsIntersects(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) || !r.Contains(Point{5, 5}) {
		t.Fatal("Contains boundary/interior failed")
	}
	if r.Contains(Point{10.01, 5}) {
		t.Fatal("Contains accepted outside point")
	}
	cases := []struct {
		s    Rect
		want bool
	}{
		{Rect{5, 5, 15, 15}, true},   // overlap
		{Rect{10, 10, 20, 20}, true}, // corner touch
		{Rect{11, 11, 20, 20}, false},
		{Rect{-5, -5, -1, -1}, false},
		{Rect{2, 2, 3, 3}, true}, // containment
	}
	for _, c := range cases {
		if got := r.Intersects(c.s); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.s, got, c.want)
		}
	}
	if !r.ContainsRect(Rect{1, 1, 2, 2}) || r.ContainsRect(Rect{1, 1, 11, 2}) {
		t.Fatal("ContainsRect failed")
	}
}

func TestRectMinDist(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	cases := []struct {
		s    Rect
		want float64
	}{
		{Rect{0.5, 0.5, 2, 2}, 0}, // overlapping
		{Rect{2, 0, 3, 1}, 1},     // right gap
		{Rect{0, 3, 1, 4}, 2},     // top gap
		{Rect{4, 5, 6, 7}, 5},     // diagonal 3-4-5
		{Rect{-3, -4, -3, -4}, 5}, // point rect diagonal
		{Rect{1, 1, 2, 2}, 0},     // corner touch
	}
	for _, c := range cases {
		if got := r.MinDist(c.s); !almostEq(got, c.want) {
			t.Errorf("MinDist(%v) = %v, want %v", c.s, got, c.want)
		}
		// symmetry
		if got := c.s.MinDist(r); !almostEq(got, c.want) {
			t.Errorf("MinDist symmetric (%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestRectMinDistPoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if d := r.MinDistPoint(Point{1, 1}); d != 0 {
		t.Fatalf("inside point dist = %v", d)
	}
	if d := r.MinDistPoint(Point{5, 2}); !almostEq(d, 3) {
		t.Fatalf("right point dist = %v, want 3", d)
	}
	if d := r.MinDistPoint(Point{5, 6}); !almostEq(d, 5) {
		t.Fatalf("diag point dist = %v, want 5", d)
	}
}

func TestRectExpandAreaMarginCenter(t *testing.T) {
	r := Rect{0, 0, 2, 4}
	e := r.Expand(1)
	if e != (Rect{-1, -1, 3, 5}) {
		t.Fatalf("Expand = %v", e)
	}
	if m := r.Margin(); !almostEq(m, 6) {
		t.Fatalf("Margin = %v, want 6", m)
	}
	if c := r.Center(); c != (Point{1, 2}) {
		t.Fatalf("Center = %v, want {1 2}", c)
	}
}

func TestMBR(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	r := MBR(pts)
	if r != (Rect{-2, -1, 4, 5}) {
		t.Fatalf("MBR = %v", r)
	}
	if !MBR(nil).IsEmpty() {
		t.Fatal("MBR(nil) not empty")
	}
	one := MBR([]Point{{3, 3}})
	if one != (Rect{3, 3, 3, 3}) {
		t.Fatalf("MBR single = %v", one)
	}
}

func TestHausdorffBasic(t *testing.T) {
	p := []Point{{0, 0}, {1, 0}}
	q := []Point{{0, 0}, {1, 0}}
	if d := Hausdorff(p, q); d != 0 {
		t.Fatalf("identical sets dH = %v", d)
	}
	q = []Point{{0, 3}}
	// directed p→q: max(3, sqrt(1+9)) ; directed q→p: 3
	want := math.Sqrt(10)
	if d := Hausdorff(p, q); !almostEq(d, want) {
		t.Fatalf("dH = %v, want %v", d, want)
	}
	// asymmetric construction: q dense subset far away from one p point
	p = []Point{{0, 0}, {10, 0}}
	q = []Point{{0, 0}}
	if d := Hausdorff(p, q); !almostEq(d, 10) {
		t.Fatalf("dH = %v, want 10", d)
	}
	if d := Hausdorff(q, p); !almostEq(d, 10) {
		t.Fatalf("dH must be symmetric, got %v", d)
	}
}

func TestHausdorffPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty set")
		}
	}()
	Hausdorff(nil, []Point{{0, 0}})
}

func randPts(r *rand.Rand, n int, scale float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64() * scale, r.Float64() * scale}
	}
	return pts
}

// naiveHausdorff is the textbook O(nm) computation with no early exits.
func naiveHausdorff(p, q []Point) float64 {
	dir := func(a, b []Point) float64 {
		var worst float64
		for _, x := range a {
			best := math.Inf(1)
			for _, y := range b {
				if d := x.Dist(y); d < best {
					best = d
				}
			}
			if best > worst {
				worst = best
			}
		}
		return worst
	}
	return math.Max(dir(p, q), dir(q, p))
}

func TestHausdorffMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := randPts(r, 1+r.Intn(20), 100)
		q := randPts(r, 1+r.Intn(20), 100)
		got, want := Hausdorff(p, q), naiveHausdorff(p, q)
		if !almostEq(got, want) {
			t.Fatalf("case %d: Hausdorff = %v, naive = %v", i, got, want)
		}
	}
}

func TestWithinHausdorffAgreesWithExact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		p := randPts(r, 1+r.Intn(15), 50)
		q := randPts(r, 1+r.Intn(15), 50)
		d := Hausdorff(p, q)
		for _, delta := range []float64{d * 0.5, d, d * 1.5, d + 1e-6} {
			got := WithinHausdorff(p, q, delta)
			want := d <= delta
			if math.Abs(d-delta) < 1e-9*(1+d) {
				continue // knife-edge: sqrt/square rounding makes either answer valid
			}
			if got != want {
				t.Fatalf("case %d δ=%v d=%v: Within=%v, want %v", i, delta, d, got, want)
			}
		}
	}
}

func TestWithinHausdorffEmpty(t *testing.T) {
	if WithinHausdorff(nil, []Point{{0, 0}}, 10) {
		t.Fatal("empty set should never be within")
	}
}

func TestDMinLowerBoundsHausdorff(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		p := randPts(r, 1+r.Intn(10), 100)
		q := randPts(r, 1+r.Intn(10), 100)
		// Shift q to create separation half the time.
		if r.Intn(2) == 0 {
			off := Point{r.Float64() * 400, r.Float64() * 400}
			for j := range q {
				q[j] = q[j].Add(off)
			}
		}
		d := Hausdorff(p, q)
		lb := DMin(MBR(p), MBR(q))
		if lb > d+1e-9 {
			t.Fatalf("case %d: dmin %v > dH %v", i, lb, d)
		}
	}
}

func TestDSideLowerBoundsAndDominatesDMin(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		p := randPts(r, 2+r.Intn(10), 100)
		q := randPts(r, 2+r.Intn(10), 100)
		if r.Intn(2) == 0 {
			off := Point{r.Float64() * 300, r.Float64() * 300}
			for j := range q {
				q[j] = q[j].Add(off)
			}
		}
		d := Hausdorff(p, q)
		mp, mq := MBR(p), MBR(q)
		ds := DSide(mp, mq)
		dm := DMin(mp, mq)
		if ds > d+1e-9 {
			t.Fatalf("case %d: dside %v > dH %v", i, ds, d)
		}
		if ds+1e-12 < dm {
			t.Fatalf("case %d: dside %v < dmin %v (should dominate)", i, ds, dm)
		}
	}
}

func TestDSideAsymmetricExample(t *testing.T) {
	// A tall thin rect far to the left of a point-like rect: the far side
	// of the first rect yields a strictly tighter bound than dmin.
	a := Rect{0, 0, 10, 0}
	b := Rect{12, 0, 12, 0}
	if dm, ds := DMin(a, b), DSide(a, b); !(ds > dm) {
		t.Fatalf("expected dside (%v) > dmin (%v)", ds, dm)
	}
}

func TestPointSegDist(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},  // perpendicular foot inside
		{Point{-3, 4}, 5}, // before start
		{Point{13, 4}, 5}, // past end
		{Point{10, 0}, 0}, // endpoint
	}
	for _, c := range cases {
		if got := PointSegDist(c.p, a, b); !almostEq(got, c.want) {
			t.Errorf("PointSegDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// degenerate segment
	if got := PointSegDist(Point{3, 4}, a, a); !almostEq(got, 5) {
		t.Fatalf("degenerate seg dist = %v, want 5", got)
	}
}

func TestDouglasPeuckerStraightLine(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}
	idx := DouglasPeucker(pts, 0.01)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 4 {
		t.Fatalf("straight line kept %v", idx)
	}
}

func TestDouglasPeuckerKeepsCorner(t *testing.T) {
	pts := []Point{{0, 0}, {5, 0.01}, {10, 0}, {10, 5}, {10, 10}}
	idx := DouglasPeucker(pts, 0.5)
	// Corner at index 2 must be retained.
	found := false
	for _, i := range idx {
		if i == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("corner dropped: %v", idx)
	}
	if idx[0] != 0 || idx[len(idx)-1] != 4 {
		t.Fatalf("endpoints not retained: %v", idx)
	}
}

func TestDouglasPeuckerSmall(t *testing.T) {
	if got := DouglasPeucker(nil, 1); got != nil {
		t.Fatalf("nil input -> %v", got)
	}
	if got := DouglasPeucker([]Point{{1, 1}}, 1); len(got) != 1 {
		t.Fatalf("single point -> %v", got)
	}
	if got := DouglasPeucker([]Point{{0, 0}, {1, 1}}, 1); len(got) != 2 {
		t.Fatalf("two points -> %v", got)
	}
}

func TestDouglasPeuckerErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 10 + r.Intn(40)
		pts := make([]Point, n)
		x := 0.0
		for i := range pts {
			x += r.Float64() * 10
			pts[i] = Point{x, r.Float64() * 20}
		}
		eps := 1 + r.Float64()*10
		idx := DouglasPeucker(pts, eps)
		// every original point must lie within eps of the simplified polyline
		for i, p := range pts {
			best := math.Inf(1)
			for k := 0; k+1 < len(idx); k++ {
				d := PointSegDist(p, pts[idx[k]], pts[idx[k+1]])
				if d < best {
					best = d
				}
			}
			if best > eps+1e-9 {
				t.Fatalf("trial %d point %d at dist %v > eps %v", trial, i, best, eps)
			}
		}
		// indices strictly increasing
		for k := 1; k < len(idx); k++ {
			if idx[k] <= idx[k-1] {
				t.Fatalf("indices not increasing: %v", idx)
			}
		}
	}
}

// Property: Hausdorff is a metric on finite point sets (symmetry + identity
// + triangle inequality).
func TestHausdorffMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	cfg := &quick.Config{MaxCount: 100, Rand: r}
	symm := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		p := randPts(rr, 1+rr.Intn(8), 50)
		q := randPts(rr, 1+rr.Intn(8), 50)
		return almostEq(Hausdorff(p, q), Hausdorff(q, p))
	}
	if err := quick.Check(symm, cfg); err != nil {
		t.Fatalf("symmetry: %v", err)
	}
	tri := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		p := randPts(rr, 1+rr.Intn(8), 50)
		q := randPts(rr, 1+rr.Intn(8), 50)
		s := randPts(rr, 1+rr.Intn(8), 50)
		return Hausdorff(p, s) <= Hausdorff(p, q)+Hausdorff(q, s)+1e-9
	}
	if err := quick.Check(tri, cfg); err != nil {
		t.Fatalf("triangle inequality: %v", err)
	}
}
