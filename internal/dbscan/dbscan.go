// Package dbscan implements the density-based clustering of Ester et
// al. [14] used to form snapshot clusters (Definition 1).
//
// # Layout
//
// Neighbourhood queries are served by a sorted ε-grid, rebuilt per call
// without hashing. Every point is mapped to a square ε-cell of side at
// least ε, and each ε-cell is split 2×2 into sub-cells of half its side.
// The cell's (row, column) is packed into one integer key in row-major
// order, each row padded by one empty column on either side, and the two
// lowest key bits name the sub-cell. An LSD radix sort orders the points
// by key in O(n) per pass, and the points are copied in that order, so
// every ε-cell and every sub-cell is a contiguous run of the sorted copy.
// One linear merge pass over the occupied ε-cells then gives every cell
// three contiguous runs: the points of cells x−1..x+1 in rows y, y+1 and
// y−1. Those columns are adjacent keys, so the three runs are exactly the
// cell's 3×3 neighbourhood, and a neighbour query is three contiguous
// scans.
//
// Clustering works on units, not points. A unit is a sub-cell when
// sub-cells are cliques (below), else a single point:
//
//   - Core points. A unit holding at least MinPts points makes all of
//     them core with no distance test. Every other point counts its
//     ε-neighbours over the three runs and stops at MinPts; a point that
//     stays below MinPts is not core and keeps its complete neighbour
//     list.
//   - Components. A union-find over the units holding core points joins
//     two units at the first pair of their core points found within ε.
//     Each pair of units is looked at once, from the unit with the lower
//     key, and units whose sub-cells are three or more sub-cells apart on
//     either axis are never compared.
//   - Labels. Components are numbered by their lowest-input-index core
//     point; a border point takes the lowest-numbered component among the
//     core points of its neighbour list.
//
// Inside a jam most points sit in sub-cells of at least MinPts points, so
// they cost no distance test at all, and two crowded sub-cells usually
// join at the first pair tested. Clustering n points costs O(n·k) for k candidates per
// query instead of the naive O(n²).
//
// # Exactness
//
// Cluster returns the same labels, element for element, as the textbook
// algorithm with O(n²) region queries over the input order:
//
//   - The ε-neighbourhood is the same set. The distance test is
//     math.Hypot(Δx, Δy) ≤ ε, as in geo.Point.Dist; the squared distance
//     answers it only when it is more than 2⁻³⁰ (relative) away from ε²,
//     far beyond the rounding of either computation. The cell side is
//     ε·(1+2⁻¹⁶), coarsened when needed so that no axis has more than
//     2³⁰ cells. A point's scaled offset f = (x−min)/side gives both its
//     ε-cell ⌊f⌋ and its sub-cell ⌊2f⌋ (2f is exact), so two points more
//     than one ε-cell or more than two sub-cells apart on an axis have
//     scaled offsets more than 1 apart: with the cell margin, no pair
//     within ε, rounding included, lies that far apart. Points with a
//     coordinate that is not finite or exceeds 2⁵⁰⁰ in magnitude, and all
//     points when ε is infinite, do not enter the grid: each is a unit of
//     its own and is tested against every point.
//   - Sub-cells are cliques. Two points of one sub-cell differ by less
//     than half a side, plus rounding far below 2⁻²⁰ of it, on each axis,
//     so they lie within 0.71·ε and every point of a sub-cell is within ε
//     of every other. That needs the side to be ε·(1+2⁻¹⁶) and ε to be a
//     normal float. A coarsened grid's sub-cell can be wider than ε, and
//     next to a subnormal ε the rounding is no longer small: there every
//     point is a unit of its own. That is the same code with a finer unit,
//     not a fallback: a unit of one point is core by count only when
//     MinPts ≤ 1, which its own zero distance confirms.
//   - Core points and components are the textbook ones. A point is core
//     exactly when at least MinPts points lie within ε of it, counted
//     either by its clique or by the distance test. Core points within ε
//     of each other are in one unit or in two units the union-find joins,
//     since all core pairs of two units are examined until one is within
//     ε. So the components are the density-connected sets of core points.
//   - Labels depend on those sets and on the input order only. The
//     textbook algorithm visits points in input order and expands a
//     cluster over its whole component before the next one starts, so its
//     clusters are numbered by the lowest-index core point of each
//     component, and a border point reached by several clusters keeps the
//     first, that is the lowest-numbered one. A non-core point has fewer
//     than MinPts neighbours, all on its list, so the lowest component
//     among its core neighbours is exactly that cluster, and a point with
//     no core neighbour is noise.
package dbscan

import (
	"math"
	"math/bits"

	"repro/internal/geo"
)

// Params are the DBSCAN parameters: Eps is the ε-neighbourhood radius in
// metres, MinPts the density threshold m. A point is a core point when at
// least MinPts points (including itself) lie within Eps of it.
type Params struct {
	Eps    float64
	MinPts int
}

// Noise is the cluster label of points not assigned to any cluster.
const Noise = -1

const (
	// maxGridCoord bounds the coordinates the grid takes: below it cell
	// arithmetic and squared distances cannot overflow.
	maxGridCoord = 0x1p500
	// maxCells caps the cells per grid axis, which keeps both packed
	// key components and the rounding of cell indices small.
	maxCells = 0x1p30
	// sideMargin widens the cell side beyond ε to absorb the rounding of
	// differences and quotients in the cell computation.
	sideMargin = 1 + 0x1p-16
	// d2Margin is the relative band around ε² inside which the squared
	// distance defers to math.Hypot.
	d2Margin = 0x1p-30
	// minNormal is the smallest normal float64; a smaller ε makes
	// sub-cells too coarse to be cliques.
	minNormal = 0x1p-1022
)

// run is a half-open range [lo, hi) of cells.
type run struct{ lo, hi int32 }

// cell is one occupied ε-cell: the sorted position of its first point,
// its first unit, and the runs of
// cells covering its 3×3 neighbourhood, one per row y, y+1, y−1. A run's
// points are the sorted positions from its first cell's start to its end
// cell's start, and its units likewise.
type cell struct {
	start int32
	unit  int32
	rows  [3]run
}

// unit is a sub-cell that is a clique, or a single point: its full key
// (zero outside the grid), the sorted position of its first point and its
// ε-cell. Its points run to the next unit's start.
type unit struct {
	key   uint64
	start int32
	cell  int32
}

// Scratch holds the working memory of DBSCAN runs — the sort buffers,
// the cell-ordered points, the cell and unit tables, the union-find and
// the neighbour lists — so repeated calls (one per snapshot tick) reuse
// buffers instead of reallocating them. The zero value is ready to use.
// A Scratch is not safe for concurrent use; give each goroutine its own.
type Scratch struct {
	keys, keysTmp []uint64
	ord, ordTmp   []int32 // input index of each sorted position
	rank          []int32 // sorted position of each input index
	pts           []geo.Point
	cells         []cell   // occupied ε-cells in key order, then a sentinel
	ckeys         []uint64 // their keys, sub-cell bits dropped
	units         []unit   // grid units in key order, far points, a sentinel

	// core is the unit of each sorted position, or −1 when the point is
	// not core; a non-core point q's neighbours are neigh[off[q]:off[q+1]].
	core   []int32
	off    []int32
	neigh  []int32
	parent []int32 // union-find over units; −1 for units without a core point
	comp   []int32 // cluster number of each root unit
	labels []int

	// Per-call query parameters: the first grid points' and units' counts
	// (the rest are tested against everything), ε, the squared-distance
	// band and the key's row width.
	grid  int32
	gridU int32
	eps   float64
	d2In  float64
	d2Out float64
	w     uint64
}

// Cluster runs DBSCAN over pts and returns a label per point: 0..k-1 for
// the k clusters found, or Noise. Clusters are numbered by their
// lowest-index core point and a border point reached by several clusters
// belongs to the lowest-numbered one, as in the original algorithm
// visiting points in input order. The returned slice is owned by the
// Scratch and valid only until its next Cluster call; callers that keep
// labels across calls must copy them.
func (s *Scratch) Cluster(pts []geo.Point, p Params) []int {
	n := len(pts)
	s.labels = grow(s.labels, n)
	labels := s.labels
	// A NaN ε admits no point, not even into its own neighbourhood.
	if n == 0 || p.MinPts <= 0 || !(p.Eps > 0) {
		for i := range labels {
			labels[i] = Noise
		}
		return labels
	}
	s.layout(pts, p.Eps)
	s.findCores(min(p.MinPts, n+1)) // beyond n no point is core
	s.joinUnits()

	// Number the components by their lowest-index core point, then give
	// every other point the lowest component among its core neighbours.
	parent, comp, core := s.parent, s.comp, s.core
	for u, r := range parent {
		if r >= 0 {
			parent[u] = parent[r] // roots sit below their members
		}
		comp[u] = Noise
	}
	next := int32(0)
	for i, q := range s.rank {
		if u := core[q]; u >= 0 {
			r := parent[u]
			if comp[r] < 0 {
				comp[r] = next
				next++
			}
			labels[i] = int(comp[r])
		}
	}
	for q, i := range s.ord {
		if core[q] >= 0 {
			continue
		}
		l := int32(Noise)
		for _, j := range s.neigh[s.off[q]:s.off[q+1]] {
			if u := core[j]; u >= 0 {
				if c := comp[parent[u]]; l < 0 || c < l {
					l = c
				}
			}
		}
		labels[i] = int(l)
	}
	return labels
}

// findCores decides every point's core status. The points of a grid unit
// holding at least minPts of them are core outright; every other point
// lists its neighbours until it has minPts of them. A point that reaches
// minPts is core and its list is dropped; one that does not keeps it.
func (s *Scratch) findCores(minPts int) {
	n := len(s.pts)
	nu := len(s.units) - 1
	s.core, s.off = grow(s.core, n), grow(s.off, n+1)
	s.parent, s.comp = grow(s.parent, nu), grow(s.comp, nu)
	core, off, parent := s.core, s.off, s.parent
	nb := s.neigh[:0]
	off[0] = 0
	for u := range nu {
		un := s.units[u]
		lo, hi := un.start, s.units[u+1].start
		parent[u] = -1
		if int32(u) < s.gridU && int(hi-lo) >= minPts {
			parent[u] = int32(u)
			for q := lo; q < hi; q++ {
				core[q] = int32(u)
				off[q+1] = int32(len(nb))
			}
			continue
		}
		for q := lo; q < hi; q++ {
			at := len(nb)
			nb = s.neighbors(q, un.cell, nb, at+minPts)
			core[q] = -1
			if len(nb)-at >= minPts {
				nb = nb[:at]
				core[q] = int32(u)
				parent[u] = int32(u)
			}
			off[q+1] = int32(len(nb))
		}
	}
	s.neigh = nb
}

// joinUnits unions every two core-holding units with a pair of core
// points within ε. A grid unit compares itself with the later units of
// its own row's run and with the units of the next row's run, which sees
// every pair of neighbouring grid units once, and with every point
// outside the grid.
func (s *Scratch) joinUnits() {
	nu := int32(len(s.units) - 1)
	for u := range nu {
		if s.parent[u] < 0 {
			continue
		}
		if u >= s.gridU {
			for v := u + 1; v < nu; v++ {
				s.join(u, v)
			}
			continue
		}
		ku := s.units[u].key
		c := &s.cells[s.units[u].cell]
		for r, rn := range c.rows[:2] {
			lo, hi := s.cells[rn.lo].unit, s.cells[rn.hi].unit
			if r == 0 {
				lo = u + 1
			}
			for v := lo; v < hi; v++ {
				if s.parent[v] >= 0 && s.near(ku, s.units[v].key, r) {
					s.join(u, v)
				}
			}
		}
		for v := s.gridU; v < nu; v++ {
			s.join(u, v)
		}
	}
}

// near reports whether the sub-cells of keys ku and kv, kv's ε-cell being
// in the run of row y+r around ku's, lie within two sub-cells on both
// axes. Sub-cells further apart hold no pair within ε.
func (s *Scratch) near(ku, kv uint64, r int) bool {
	dc := int64(kv>>2 - ku>>2 - uint64(r)*s.w) // ε-cell column offset, −1..1
	dx := 2*dc + int64(kv&1) - int64(ku&1)
	dy := 2*int64(r) + int64(kv>>1&1) - int64(ku>>1&1)
	return dx > -3 && dx < 3 && dy < 3
}

// join unions units u and v, both holding core points, when they are in
// different components and some core point of u is within ε of some core
// point of v. The root with the higher index is linked below the lower, so
// every unit's parent index is at most its own.
func (s *Scratch) join(u, v int32) {
	ru, rv := s.find(u), s.find(v)
	if ru == rv || rv < 0 || !s.touch(u, v) {
		return
	}
	s.parent[max(ru, rv)] = min(ru, rv)
}

// find returns the root of unit u's component, or −1 when u holds no core
// point, halving the path on the way.
func (s *Scratch) find(u int32) int32 {
	p := s.parent
	for p[u] >= 0 && p[u] != u {
		p[u] = p[p[u]]
		u = p[u]
	}
	return p[u]
}

// touch reports whether some core point of unit u lies within ε of some
// core point of unit v.
func (s *Scratch) touch(u, v int32) bool {
	vlo, vhi := s.units[v].start, s.units[v+1].start
	for a := s.units[u].start; a < s.units[u+1].start; a++ {
		if s.core[a] < 0 {
			continue
		}
		p := s.pts[a]
		for b := vlo; b < vhi; b++ {
			if s.core[b] >= 0 && s.within(p, s.pts[b]) {
				return true
			}
		}
	}
	return false
}

// layout sorts pts into key order and builds the cell and unit tables.
// Grid points come first, ordered by key; points the grid cannot take
// follow. Every buffer is reused, so steady-state layout allocates
// nothing.
func (s *Scratch) layout(pts []geo.Point, eps float64) {
	n := len(pts)
	s.eps = eps
	s.d2In, s.d2Out = -1, math.Inf(1) // every test goes to math.Hypot
	if e2 := eps * eps; e2 >= 0x1p-960 && e2 <= 0x1p960 {
		s.d2In, s.d2Out = e2*(1-d2Margin), e2*(1+d2Margin)
	}
	s.keys, s.keysTmp = grow(s.keys, n), grow(s.keysTmp, n)
	s.ord, s.ordTmp = grow(s.ord, n), grow(s.ordTmp, n)
	s.rank, s.pts = grow(s.rank, n), grow(s.pts, n)

	// The grid's bounding box, over the points it can take.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	fits := !math.IsInf(eps, 1)
	for _, p := range pts {
		if fits && inGrid(p) {
			minX, maxX = min(minX, p.X), max(maxX, p.X)
			minY, maxY = min(minY, p.Y), max(maxY, p.Y)
		}
	}
	side := eps * sideMargin
	coarse := max((maxX-minX)/maxCells, (maxY-minY)/maxCells)
	cliques := eps >= minNormal && side >= coarse
	side = max(side, coarse)

	// Row-major ε-cell keys with a free column on either side of every row
	// and a free row above the first, so the neighbours' keys never wrap,
	// then the sub-cell's row and column bits from ⌊2f⌋. The sub-cell index
	// grows with the coordinate, so the box gives the widest row. The
	// rest fill the sorted order from the back, where their order does not
	// matter.
	w := uint64(3)
	if maxX >= minX {
		w += uint64((maxX-minX)/side*2) >> 1
	}
	g, far := 0, n
	var maxKey uint64
	for i, p := range pts {
		if !fits || !inGrid(p) {
			far--
			s.ord[far] = int32(i)
			continue
		}
		sx, sy := uint64((p.X-minX)/side*2), uint64((p.Y-minY)/side*2)
		k := ((sy>>1+1)*w+sx>>1+1)<<2 | (sy&1)<<1 | sx&1
		maxKey = max(maxKey, k)
		s.keys[g] = k
		s.ord[g] = int32(i)
		g++
	}
	s.radixSort(g, bits.Len64(maxKey))

	for q, i := range s.ord {
		s.rank[i] = int32(q)
		s.pts[q] = pts[i]
	}
	s.w = w
	s.buildCells(g, cliques)
}

// inGrid reports whether the grid can take p: both coordinates finite and
// small enough that no cell or distance computation overflows.
func inGrid(p geo.Point) bool {
	return math.Abs(p.X) <= maxGridCoord && math.Abs(p.Y) <= maxGridCoord
}

// radixSort stably sorts the first g keys, carrying ord along, with one
// counting pass per byte of the key width.
func (s *Scratch) radixSort(g, width int) {
	keys, tmpK := s.keys[:g], s.keysTmp[:g]
	ord, tmpO := s.ord[:g], s.ordTmp[:g]
	for shift := 0; shift < width; shift += 8 {
		var at [256]int32
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		sum := int32(0)
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		for q, k := range keys {
			d := byte(k >> shift)
			tmpK[at[d]], tmpO[at[d]] = k, ord[q]
			at[d]++
		}
		keys, tmpK, ord, tmpO = tmpK, keys, tmpO, ord
	}
	if width > 0 && (width+7)/8%2 == 1 {
		// An odd pass count leaves the result in the spare buffers.
		copy(s.keys, keys)
		copy(s.ord, ord)
	}
}

// buildCells groups the g sorted grid points into ε-cells and units — one
// per sub-cell when sub-cells are cliques, else one per point — and
// appends a unit per point outside the grid. Then it gives every cell its
// three neighbourhood runs.
func (s *Scratch) buildCells(g int, cliques bool) {
	n := len(s.pts)
	s.grid = int32(g)
	s.cells, s.ckeys, s.units = grow(s.cells, g+1), grow(s.ckeys, g+1), grow(s.units, n+1)
	cells, ckeys, units := s.cells, s.ckeys, s.units
	m, nu := 0, 0
	prev := uint64(0) // no key is 0: the first row and column are free
	for q, k := range s.keys[:g] {
		if k == prev && cliques {
			continue
		}
		if k>>2 != prev>>2 {
			ckeys[m] = k >> 2
			cells[m] = cell{start: int32(q), unit: int32(nu)}
			m++
		}
		units[nu] = unit{key: k, start: int32(q), cell: int32(m - 1)}
		nu++
		prev = k
	}
	s.gridU = int32(nu)
	for q := g; q < n; q++ {
		units[nu] = unit{start: int32(q), cell: -1}
		nu++
	}
	units[nu] = unit{start: int32(n)}
	// The sentinel's key exceeds every probe, so the scans below stop on
	// it without a bounds test.
	ckeys[m] = math.MaxUint64
	cells[m] = cell{start: int32(g), unit: s.gridU}
	s.cells, s.ckeys, s.units = cells[:m+1], ckeys[:m+1], units[:nu+1]

	for c := 0; c < m; c++ {
		k := ckeys[c]
		lo, hi := c, c+1
		if c > 0 && ckeys[c-1] == k-1 {
			lo--
		}
		if ckeys[c+1] == k+1 {
			hi++
		}
		cells[c].rows[0] = run{int32(lo), int32(hi)}
	}
	s.rowRuns(1, s.w-1)
	s.rowRuns(2, -s.w-1)
}

// rowRuns sets run r of every cell to the cells whose keys lie in
// [key+off, key+off+2], the cell's three neighbours in another row. The
// first of them come from one merge of the keys with themselves shifted by
// off, stepped without data-dependent branches; at most three follow.
func (s *Scratch) rowRuns(r int, off uint64) {
	keys, cells := s.ckeys, s.cells
	m := len(keys) - 1
	i := 0
	for c := 0; c < m; {
		step := b2i(keys[i] < keys[c]+off)
		cells[c].rows[r].lo = int32(i)
		i += step
		c += 1 - step
	}
	for c := range cells[:m] {
		end := keys[c] + off + 2
		hi := int(cells[c].rows[r].lo)
		hi += b2i(keys[hi] <= end)
		hi += b2i(keys[hi] <= end)
		hi += b2i(keys[hi] <= end)
		cells[c].rows[r].hi = int32(hi)
	}
}

// neighbors appends to dst the sorted positions of the points within ε of
// the point at sorted position q, of ε-cell c (including q itself, unless
// a NaN makes its distance undefined), stopping once dst has limit
// entries, and returns dst. The squared distance decides unless it falls
// in the band around ε² (or is NaN), as in within.
func (s *Scratch) neighbors(q, c int32, dst []int32, limit int) []int32 {
	n := int32(len(s.pts))
	var spans [4]run // sorted positions: three grid runs, then far points
	k := 0
	if q < s.grid {
		for _, r := range s.cells[c].rows {
			spans[k] = run{s.cells[r.lo].start, s.cells[r.hi].start}
			k++
		}
		spans[k] = run{s.grid, n}
	} else {
		spans[k] = run{0, n}
	}
	p, in, out := s.pts[q], s.d2In, s.d2Out
	for _, sp := range spans[:k+1] {
		for j, o := range s.pts[sp.lo:sp.hi] {
			dx, dy := p.X-o.X, p.Y-o.Y
			d2 := dx*dx + dy*dy
			if d2 <= in || !(d2 > out) && math.Hypot(dx, dy) <= s.eps {
				dst = append(dst, sp.lo+int32(j))
				if len(dst) >= limit {
					return dst
				}
			}
		}
	}
	return dst
}

// within reports whether a and b lie within ε. The squared distance
// decides unless it falls in the band around ε² (or is NaN), where
// math.Hypot, the reference metric, decides.
func (s *Scratch) within(a, b geo.Point) bool {
	dx, dy := a.X-b.X, a.Y-b.Y
	d2 := dx*dx + dy*dy
	return d2 <= s.d2In || !(d2 > s.d2Out) && math.Hypot(dx, dy) <= s.eps
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// grow returns buf resized to n, reallocating only when its capacity is
// short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Cluster is the one-shot form: it runs DBSCAN with fresh working memory.
// Loops that cluster many snapshots should hold a Scratch and call its
// Cluster method instead.
func Cluster(pts []geo.Point, p Params) []int {
	var s Scratch
	return s.Cluster(pts, p)
}
