// Package geo provides the planar geometry primitives used throughout the
// gathering-pattern pipeline: points, axis-aligned rectangles (MBRs),
// Euclidean metrics, the Hausdorff distance between point sets together
// with the dmin and dside lower bounds from the paper (Lemmas 2 and 3),
// and Douglas–Peucker polyline simplification.
//
// All coordinates are in metres in an arbitrary planar frame; the library
// never deals with geodetic coordinates directly.
package geo

import "math"

// Point is a location in the plane, in metres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison form in inner loops.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns the component-wise sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the component-wise difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Lerp linearly interpolates between p (t=0) and q (t=1).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is a closed axis-aligned rectangle. A Rect with Min==Max is a single
// point; rectangles are used as minimum bounding rectangles (MBRs) of
// snapshot clusters and as R-tree node boxes.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity rectangle for Union: any rectangle unioned
// with it yields that rectangle unchanged.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r is the empty rectangle (contains no points).
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle covering r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{p.X, p.Y, p.X, p.Y})
}

// Expand returns r grown by d on every side. Used to build the enlarged
// window query of the SR scheme (§III-A1).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// Margin returns half the perimeter of r.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// MinDist returns the minimum Euclidean distance between r and s, i.e. the
// dmin(·,·) lower bound of Lemma 2. It is 0 when the rectangles intersect.
func (r Rect) MinDist(s Rect) float64 {
	dx := axisGap(r.MinX, r.MaxX, s.MinX, s.MaxX)
	dy := axisGap(r.MinY, r.MaxY, s.MinY, s.MaxY)
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return math.Hypot(dx, dy)
}

// MinDistPoint returns the minimum distance from p to r (0 if p is inside).
func (r Rect) MinDistPoint(p Point) float64 {
	dx := axisGap(r.MinX, r.MaxX, p.X, p.X)
	dy := axisGap(r.MinY, r.MaxY, p.Y, p.Y)
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return math.Hypot(dx, dy)
}

// axisGap returns the 1-D separation between intervals [a1,a2] and [b1,b2],
// or 0 when they overlap.
func axisGap(a1, a2, b1, b2 float64) float64 {
	if a2 < b1 {
		return b1 - a2
	}
	if b2 < a1 {
		return a1 - b2
	}
	return 0
}

// Sides returns the four sides of r as degenerate rectangles, in the order
// left, right, bottom, top. Degenerate rectangles let MinDist compute the
// side-to-rectangle distances required by dside (Lemma 3).
func (r Rect) Sides() [4]Rect {
	return [4]Rect{
		{r.MinX, r.MinY, r.MinX, r.MaxY}, // left
		{r.MaxX, r.MinY, r.MaxX, r.MaxY}, // right
		{r.MinX, r.MinY, r.MaxX, r.MinY}, // bottom
		{r.MinX, r.MaxY, r.MaxX, r.MaxY}, // top
	}
}

// DMin is dmin(M(ci), M(cj)) from Lemma 2: a lower bound on the Hausdorff
// distance between any two point sets bounded by r and s.
func DMin(r, s Rect) float64 { return r.MinDist(s) }

// DSide is the tighter lower bound of Lemma 3,
//
//	dside(M(ci), M(cj)) = max over the four sides la of M(ci)
//	                      of dmin(la, M(cj)).
//
// Note that dside is asymmetric: the sides are taken from the first
// rectangle only, exactly as in the paper. DSide(r,s) ≤ dH(P,Q) whenever
// r = MBR(P) and s = MBR(Q), because each side of an MBR touches at least
// one point of P.
func DSide(r, s Rect) float64 {
	var d float64
	for _, side := range r.Sides() {
		if g := side.MinDist(s); g > d {
			d = g
		}
	}
	return d
}

// MBR returns the minimum bounding rectangle of pts. It returns the empty
// rectangle when pts is empty.
func MBR(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		if p.X < r.MinX {
			r.MinX = p.X
		}
		if p.X > r.MaxX {
			r.MaxX = p.X
		}
		if p.Y < r.MinY {
			r.MinY = p.Y
		}
		if p.Y > r.MaxY {
			r.MaxY = p.Y
		}
	}
	return r
}

// Hausdorff returns the exact (symmetric) Hausdorff distance
//
//	dH(P,Q) = max( max_{p∈P} min_{q∈Q} d(p,q), max_{q∈Q} min_{p∈P} d(p,q) )
//
// between two non-empty point sets. It panics if either set is empty, since
// the distance is undefined there and snapshot clusters are never empty.
func Hausdorff(p, q []Point) float64 {
	if len(p) == 0 || len(q) == 0 {
		panic("geo: Hausdorff of empty point set")
	}
	d2 := directed2(p, q)
	if b := directed2(q, p); b > d2 {
		d2 = b
	}
	return math.Sqrt(d2)
}

// directed2 returns the squared directed Hausdorff distance from p to q.
func directed2(p, q []Point) float64 {
	var worst float64
	for _, a := range p {
		best := math.Inf(1)
		for _, b := range q {
			if d := a.Dist2(b); d < best {
				best = d
				if best <= worst {
					// This point cannot raise the maximum; stop early.
					break
				}
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}

// WithinHausdorff reports whether dH(p,q) ≤ delta without always computing
// the exact distance: as soon as one point is found whose nearest neighbour
// in the other set is farther than delta, it returns false. This is the
// predicate form used by every RangeSearch refinement step — the paper
// observes (§III-A1) that the discovery algorithm never needs the exact
// value, only the ≤ δ decision.
func WithinHausdorff(p, q []Point, delta float64) bool {
	if len(p) == 0 || len(q) == 0 {
		return false
	}
	d2 := delta * delta
	return directedWithin2(p, q, d2) && directedWithin2(q, p, d2)
}

// directedWithin2 reports whether every point of p has a neighbour in q at
// squared distance ≤ d2.
func directedWithin2(p, q []Point, d2 float64) bool {
	for _, a := range p {
		ok := false
		for _, b := range q {
			if a.Dist2(b) <= d2 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// PointSegDist returns the distance from p to the segment ab.
func PointSegDist(p, a, b Point) float64 {
	ab := b.Sub(a)
	l2 := ab.X*ab.X + ab.Y*ab.Y
	if l2 == 0 {
		return p.Dist(a)
	}
	t := ((p.X-a.X)*ab.X + (p.Y-a.Y)*ab.Y) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(a.Add(ab.Scale(t)))
}

// DouglasPeucker simplifies the polyline pts with tolerance eps and returns
// the indices of the retained vertices, always including the first and last.
// It is the simplification step the paper borrows from the CuTS framework
// [9] to cheapen snapshot clustering. The returned indices are strictly
// increasing.
func DouglasPeucker(pts []Point, eps float64) []int {
	n := len(pts)
	switch {
	case n == 0:
		return nil
	case n <= 2:
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	keep := make([]bool, n)
	keep[0], keep[n-1] = true, true

	// Iterative stack-based recursion over [lo,hi] index ranges.
	type span struct{ lo, hi int }
	stack := []span{{0, n - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		var (
			maxD float64
			maxI = -1
		)
		a, b := pts[s.lo], pts[s.hi]
		for i := s.lo + 1; i < s.hi; i++ {
			if d := PointSegDist(pts[i], a, b); d > maxD {
				maxD, maxI = d, i
			}
		}
		if maxD > eps {
			keep[maxI] = true
			stack = append(stack, span{s.lo, maxI}, span{maxI, s.hi})
		}
	}

	idx := make([]int, 0, 8)
	for i, k := range keep {
		if k {
			idx = append(idx, i)
		}
	}
	return idx
}
