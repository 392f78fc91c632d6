// Package dbscan implements the density-based clustering of Ester et
// al. [14] used to form snapshot clusters (Definition 1).
//
// # Layout
//
// Neighbourhood queries are served by a sorted ε-grid, rebuilt per call
// without hashing. Every point is mapped to a square cell of side at
// least ε and the cell's (row, column) is packed into one integer key in
// row-major order, each row padded by one empty column on either side.
// An LSD radix sort (8 bits a pass) orders the points by key in O(n) per
// pass, and the points are copied in that order. One linear merge pass
// over the occupied cells then gives every cell three contiguous runs of
// the sorted copy: the points of cells x−1..x+1 in rows y−1, y and y+1.
// Those columns are adjacent keys, so the three runs are exactly the
// cell's 3×3 neighbourhood, and a neighbour query is three contiguous
// scans. Clustering n points costs O(n·k) for k candidates per query
// instead of the naive O(n²).
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
//     2³⁰ cells; with that margin no pair within ε, rounding included,
//     lies more than one cell apart on either axis. Points with a
//     coordinate that is not finite or exceeds 2⁵⁰⁰ in magnitude, and
//     all points when ε is infinite, do not enter the grid: they are
//     tested against every point.
//   - Labels depend on those sets and on the input order only, never on
//     the order in which a query enumerates neighbours. Points are
//     visited in input order, and every core point before the first
//     unvisited core point of a core component belongs to an earlier
//     cluster, so clusters are numbered by the lowest-index core point of
//     each component. A cluster takes in its whole density-reachable set
//     before the next one starts, so a border point reached by several
//     clusters keeps the lowest-numbered one.
//   - Work skipped is work that changes no label. The expansion pushes a
//     point only the first time it is reached, and it does not query a
//     point whose 3×3 cells (and the points outside the grid) hold no
//     point outside a cluster: whatever that query returned is already
//     labelled, whether the point is a core point or not.
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
	// unvisited marks a point no query has touched yet; visited points
	// hold Noise or their cluster.
	unvisited = -2
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
)

// run is a half-open range [lo, hi) of cells.
type run struct{ lo, hi int32 }

// cell is one occupied grid cell: its packed key, the sorted position of
// its first point, how many of its points no cluster holds yet, and the
// runs of cells covering its 3×3 neighbourhood, one per row y−1, y, y+1.
// A run's points are the sorted positions from its first cell's start to
// its end cell's start.
type cell struct {
	key   uint64
	start int32
	open  int32
	rows  [3]run
}

// Scratch holds the working memory of DBSCAN runs — the sort buffers,
// the cell-ordered points and cell table, the per-point state and the
// expansion stack — so repeated calls (one per snapshot tick) reuse
// buffers instead of reallocating them. The zero value is ready to use.
// A Scratch is not safe for concurrent use; give each goroutine its own.
type Scratch struct {
	keys, keysTmp []uint64
	ord, ordTmp   []int32 // input index of each sorted position
	rank          []int32 // sorted position of each input index
	pts           []geo.Point
	cellOf        []int32 // cell of each sorted grid position
	cells         []cell  // occupied cells in key order, then a sentinel

	state  []int32 // unvisited, Noise or cluster, by sorted position
	stack  []int32
	neigh  []int32
	labels []int

	// Per-call query parameters: the first grid points' count (the rest
	// are tested against everything), ε, and the squared-distance band.
	grid  int32
	eps   float64
	d2In  float64
	d2Out float64
	// farOpen counts the points outside the grid no cluster holds yet.
	farOpen int32
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

	s.state = grow(s.state, n)
	state := s.state
	for i := range state {
		state[i] = unvisited
	}
	var (
		next  int32 // next cluster id
		stack = s.stack[:0]
		nb    = s.neigh[:0]
	)
	for _, q := range s.rank {
		if state[q] != unvisited {
			continue
		}
		state[q] = Noise
		nb = s.neighbors(q, nb[:0])
		if len(nb) < p.MinPts {
			continue // not a core point; may become a border point later
		}
		// Start a new cluster and expand it depth-first over the
		// density-reachable set. A point is pushed at most once, when it
		// is first reached; a visited noise point is only relabelled.
		c := next
		next++
		s.claim(q, c)
		for {
			for _, j := range nb {
				if state[j] < 0 {
					if state[j] == unvisited {
						stack = append(stack, j)
					}
					s.claim(j, c)
				}
			}
			if len(stack) == 0 {
				break
			}
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nb = nb[:0]
			if s.settled(j) {
				continue // expanding j could relabel nothing
			}
			nb = s.neighbors(j, nb)
			if len(nb) < p.MinPts {
				nb = nb[:0] // j is a border point: its neighbours stay out
			}
		}
	}
	for q, i := range s.ord {
		labels[i] = int(state[q])
	}
	s.stack, s.neigh = stack, nb
	return labels
}

// claim puts the point at sorted position j, which no cluster holds yet,
// into cluster c.
func (s *Scratch) claim(j, c int32) {
	s.state[j] = c
	if j < s.grid {
		s.cells[s.cellOf[j]].open--
	} else {
		s.farOpen--
	}
}

// settled reports whether every point a query from sorted position j
// could return is already in a cluster. Expanding such a point changes no
// label, whether it is a core point or not, so its query is skipped.
func (s *Scratch) settled(j int32) bool {
	if j >= s.grid || s.farOpen > 0 {
		return false
	}
	for _, r := range s.cells[s.cellOf[j]].rows {
		for c := r.lo; c < r.hi; c++ {
			if s.cells[c].open > 0 {
				return false
			}
		}
	}
	return true
}

// layout sorts pts into cell order and builds the cell table. Grid points
// come first, ordered by cell key; points the grid cannot take follow.
// Every buffer is reused, so steady-state layout allocates nothing.
func (s *Scratch) layout(pts []geo.Point, eps float64) {
	n := len(pts)
	s.eps = eps
	s.d2In, s.d2Out = -1, math.Inf(1) // every test goes to math.Hypot
	if e2 := eps * eps; e2 >= 0x1p-960 && e2 <= 0x1p960 {
		s.d2In, s.d2Out = e2*(1-d2Margin), e2*(1+d2Margin)
	}
	s.keys, s.keysTmp = grow(s.keys, n), grow(s.keysTmp, n)
	s.ord, s.ordTmp = grow(s.ord, n), grow(s.ordTmp, n)
	s.rank, s.pts, s.cellOf = grow(s.rank, n), grow(s.pts, n), grow(s.cellOf, n)

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
	side := max(eps*sideMargin, (maxX-minX)/maxCells, (maxY-minY)/maxCells)

	// Cell indices of grid points, packed (row, column) for now; the
	// rest fill the sorted order from the back, where their order does
	// not matter.
	g, far := 0, n
	var maxCX uint64
	for i, p := range pts {
		if !fits || !inGrid(p) {
			far--
			s.ord[far] = int32(i)
			continue
		}
		cx, cy := uint64((p.X-minX)/side), uint64((p.Y-minY)/side)
		maxCX = max(maxCX, cx)
		s.keys[g] = cy<<32 | cx
		s.ord[g] = int32(i)
		g++
	}

	// Row-major keys with a free column on either side of every row and a
	// free row above the first, so the neighbours' keys never wrap.
	w := maxCX + 3
	var maxKey uint64
	for q, k := range s.keys[:g] {
		k = (k>>32+1)*w + k&(1<<32-1) + 1
		s.keys[q] = k
		maxKey = max(maxKey, k)
	}
	s.radixSort(g, bits.Len64(maxKey))

	for q, i := range s.ord {
		s.rank[i] = int32(q)
		s.pts[q] = pts[i]
	}
	s.buildCells(g, w)
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

// buildCells groups the g sorted grid points into cells, then gives every
// cell its three neighbourhood runs in one merge pass: as cell keys grow,
// the first and one-past-last cells of each neighbouring row only move
// forward.
func (s *Scratch) buildCells(g int, w uint64) {
	s.grid, s.farOpen = int32(g), int32(len(s.pts)-g)
	cells := s.cells[:0]
	for q, k := range s.keys[:g] {
		if len(cells) == 0 || cells[len(cells)-1].key != k {
			cells = append(cells, cell{key: k, start: int32(q)})
		}
		cells[len(cells)-1].open++
		s.cellOf[q] = int32(len(cells) - 1)
	}
	m := len(cells)
	// The sentinel's key exceeds every probe, so the scans below stop on
	// it without a bounds test.
	cells = append(cells, cell{key: math.MaxUint64, start: int32(g)})
	var lo, hi [3]int
	for c := 0; c < m; c++ {
		k := cells[c].key
		for r := range lo {
			mid := k + uint64(r)*w - w // the same column in row y−1, y, y+1
			for cells[lo[r]].key < mid-1 {
				lo[r]++
			}
			hi[r] = max(hi[r], lo[r])
			for cells[hi[r]].key <= mid+1 {
				hi[r]++
			}
			cells[c].rows[r] = run{int32(lo[r]), int32(hi[r])}
		}
	}
	s.cells = cells
}

// neighbors appends to dst the sorted positions of all points within ε of
// the point at sorted position q (including q itself, unless a NaN makes
// its distance undefined) and returns dst.
//
//gather:hotpath
func (s *Scratch) neighbors(q int32, dst []int32) []int32 {
	p := s.pts[q]
	rest := int32(0)
	if q < s.grid {
		for _, r := range s.cells[s.cellOf[q]].rows {
			dst = s.scan(p, s.cells[r.lo].start, s.cells[r.hi].start, dst)
		}
		rest = s.grid
	}
	return s.scan(p, rest, int32(len(s.pts)), dst)
}

// scan appends the positions in [lo, hi) within ε of p. The squared
// distance decides unless it falls in the band around ε² (or is NaN),
// where math.Hypot, the reference metric, decides.
//
//gather:hotpath
func (s *Scratch) scan(p geo.Point, lo, hi int32, dst []int32) []int32 {
	in, out := s.d2In, s.d2Out
	for j, o := range s.pts[lo:hi] {
		dx, dy := p.X-o.X, p.Y-o.Y
		d2 := dx*dx + dy*dy
		if d2 <= in || !(d2 > out) && math.Hypot(dx, dy) <= s.eps {
			dst = append(dst, lo+int32(j))
		}
	}
	return dst
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
