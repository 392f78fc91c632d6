// Package gridindex implements the paper's grid index for snapshot
// clusters (§III-A2). The space is partitioned into square cells of side
// δ·√2/2, so any two points inside one cell are at most δ apart. Each
// indexed cluster keeps a cell list (the cells it occupies, with its points
// bucketed per cell) and each cell keeps an inverted list of the clusters
// covering it.
//
// RangeSearch finds, among the indexed clusters, those whose Hausdorff
// distance to a query cluster is ≤ δ, in two phases:
//
//   - pruning: a candidate must overlap the affect region (Definition 5)
//     of every cell of the query — otherwise some query point is provably
//     farther than δ from the candidate;
//   - refinement: points in cells shared by both clusters are within δ by
//     construction; only points in the symmetric difference cells are
//     verified, and each verification looks only at the other cluster's
//     points inside the affect region of the point's cell.
//
// The refinement decides dH ≤ δ without ever computing the exact Hausdorff
// distance. Because clusters occupy only a handful of cells, cell lists
// are small sorted slices rather than hash maps, which keeps per-tick
// construction cheap — the property the paper credits the grid index with.
package gridindex

import (
	"repro/internal/geo"
	"repro/internal/snapshot"
)

// Cell addresses one grid cell by its column/row indices.
type Cell struct{ X, Y int32 }

// key packs a cell into a map key.
func (c Cell) key() int64 { return int64(c.X)<<32 | int64(uint32(c.Y)) }

// CellSide returns the grid cell side used for variation threshold delta:
// δ·√2/2, chosen so the diagonal of a cell is exactly δ.
func CellSide(delta float64) float64 {
	return delta * 0.7071067811865476 // √2/2
}

// cellPts is one entry of a cluster's cell list: the point indices falling
// into the cell.
type cellPts struct {
	cell Cell
	pts  []int32
}

// Decomposition is a cluster's cell list, sorted by cell key. Clusters
// occupy few cells, so lookups are linear scans over a short slice.
type Decomposition []cellPts

// find returns the point bucket of cell c, or nil.
func (d Decomposition) find(c Cell) []int32 {
	for i := range d {
		if d[i].cell == c {
			return d[i].pts
		}
	}
	return nil
}

// has reports whether the decomposition occupies cell c.
func (d Decomposition) has(c Cell) bool { return d.find(c) != nil }

// Decompose buckets the cluster's points by grid cell for cell side s.
func Decompose(c *snapshot.Cluster, s float64) Decomposition {
	// A disk cluster of radius ~s covers a handful of cells, so a small
	// capacity absorbs the common case without growing on search paths.
	d := make(Decomposition, 0, 8)
	for i, p := range c.Points {
		cell := cellOf(p, s)
		found := false
		for j := range d {
			if d[j].cell == cell {
				d[j].pts = append(d[j].pts, int32(i))
				found = true
				break
			}
		}
		if !found {
			d = append(d, cellPts{cell: cell, pts: []int32{int32(i)}})
		}
	}
	sortDecomp(d)
	return d
}

// sortDecomp orders a cell list by cell key. Cell lists are short, so an
// insertion sort beats sort.Slice and allocates nothing.
func sortDecomp(d Decomposition) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j].cell.key() < d[j-1].cell.key(); j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

func cellOf(p geo.Point, s float64) Cell {
	return Cell{int32(floorDiv(p.X, s)), int32(floorDiv(p.Y, s))}
}

func floorDiv(v, s float64) int {
	q := v / s
	i := int(q)
	if q < 0 && float64(i) != q {
		i--
	}
	return i
}

// affectOffsets enumerates the cell offsets of the affect region
// (Definition 5): |dx| ≤ 2, |dy| ≤ 2 and |dx|+|dy| < 4 — the 5×5 block
// minus its four corners.
var affectOffsets = buildAffectOffsets()

func buildAffectOffsets() [][2]int32 {
	var out [][2]int32
	for dx := int32(-2); dx <= 2; dx++ {
		for dy := int32(-2); dy <= 2; dy++ {
			if abs32(dx)+abs32(dy) < 4 {
				out = append(out, [2]int32{dx, dy})
			}
		}
	}
	return out
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Index is a grid index over the snapshot clusters of one tick for a fixed
// variation threshold δ. Because every tick shares the same δ, the same
// grid geometry (origin and side) is used at all ticks — the paper notes
// this is a construction-cost advantage over per-tick R-trees.
type Index struct {
	delta     float64
	side      float64
	clusters  []*snapshot.Cluster
	decomp    []Decomposition
	byCluster map[*snapshot.Cluster]int32
	inv       map[int64][]int32 // cluster indices per occupied cell
	live      int               // cells occupied by the current build

	// stamp marks candidates during generation and alive is the candidate
	// scratch; both are reused across RangeSearch calls (an Index serves
	// one goroutine at a time, which is how Algorithm 1 uses it).
	stamp []int32
	alive []int32

	// Arena storage behind the decompositions, recycled by BuildReuse:
	// every cell list is a window of entriesArena and every point bucket a
	// window of ptsArena, so indexing a tick costs O(1) allocations once
	// the arenas have grown to the working-set size. ptCell, cellsScratch
	// and countsScratch are the per-cluster decomposition scratch.
	entriesArena  []cellPts
	ptsArena      []int32
	ptCell        []Cell
	cellsScratch  []Cell
	countsScratch []int32

	// Candidates and Results accumulate pruning statistics: clusters that
	// reached the refinement phase and clusters that passed it.
	Candidates int
	Results    int
}

// BuildReuse indexes clusters for variation threshold delta, recycling
// the internal storage of spent — an index the caller has fully retired
// (no live references to it or to decompositions obtained from it). The
// per-tick construction the paper credits the grid scheme with then costs
// O(1) allocations in steady state: the sweep retires its tick-before-last
// index on every Prepare and hands it back here. Pass spent == nil to
// allocate fresh.
func BuildReuse(spent *Index, clusters []*snapshot.Cluster, delta float64) *Index {
	ix := spent
	if ix == nil {
		ix = &Index{
			byCluster: make(map[*snapshot.Cluster]int32, len(clusters)),
			inv:       make(map[int64][]int32, len(clusters)*4),
		}
	} else {
		clear(ix.byCluster)
		// The previous build left exactly ix.live non-empty lists. Empty
		// lists are kept warm for cells that reoccur tick to tick, but
		// once stale cells far outnumber live ones (a stream drifting
		// across a large region) they are dropped — otherwise the map and
		// this reset loop grow with every cell ever occupied rather than
		// with the working set.
		if stale := len(ix.inv) - ix.live; stale > 3*ix.live+64 {
			for k, v := range ix.inv {
				if len(v) == 0 {
					delete(ix.inv, k)
				} else {
					ix.inv[k] = v[:0]
				}
			}
		} else {
			for k, v := range ix.inv {
				ix.inv[k] = v[:0]
			}
		}
		ix.Candidates, ix.Results = 0, 0
	}
	ix.live = 0
	ix.delta = delta
	ix.side = CellSide(delta)
	ix.clusters = clusters

	// Pre-size the arenas so carving can never reallocate mid-build
	// (earlier windows would dangle): a cluster has at most one cell — and
	// exactly one point bucket entry — per point.
	total := 0
	for _, c := range clusters {
		total += c.Len()
	}
	if cap(ix.ptsArena) < total {
		ix.ptsArena = make([]int32, 0, total)
	}
	ix.ptsArena = ix.ptsArena[:0]
	if cap(ix.entriesArena) < total {
		ix.entriesArena = make([]cellPts, 0, total)
	}
	ix.entriesArena = ix.entriesArena[:0]
	if cap(ix.decomp) < len(clusters) {
		ix.decomp = make([]Decomposition, len(clusters))
	}
	ix.decomp = ix.decomp[:len(clusters)]
	if cap(ix.stamp) < len(clusters) {
		ix.stamp = make([]int32, len(clusters))
	}
	ix.stamp = ix.stamp[:len(clusters)]
	clear(ix.stamp)

	for i, c := range clusters {
		d := ix.decomposeInto(c)
		ix.decomp[i] = d
		ix.byCluster[c] = int32(i)
		for j := range d {
			k := d[j].cell.key()
			l := ix.inv[k]
			if len(l) == 0 {
				ix.live++
			}
			ix.inv[k] = append(l, int32(i))
		}
	}
	return ix
}

// decomposeInto buckets c's points by grid cell into the index arenas:
// a counting pass finds the distinct cells and their sizes, the cell list
// and the point buckets are carved as windows of the shared arrays, and a
// placement pass fills the buckets — no per-cluster allocations.
func (ix *Index) decomposeInto(c *snapshot.Cluster) Decomposition {
	if cap(ix.ptCell) < len(c.Points) {
		ix.ptCell = make([]Cell, len(c.Points))
	}
	pc := ix.ptCell[:len(c.Points)]
	cells := ix.cellsScratch[:0]
	counts := ix.countsScratch[:0]
	for i, p := range c.Points {
		cell := cellOf(p, ix.side)
		pc[i] = cell
		found := -1
		for j := range cells {
			if cells[j] == cell {
				found = j
				break
			}
		}
		if found >= 0 {
			counts[found]++
		} else {
			cells = append(cells, cell)
			counts = append(counts, 1)
		}
	}
	ix.cellsScratch, ix.countsScratch = cells, counts
	// Sort the (few) distinct cells by key, carrying their counts along.
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0 && cells[j].key() < cells[j-1].key(); j-- {
			cells[j], cells[j-1] = cells[j-1], cells[j]
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	eb := len(ix.entriesArena)
	cur := len(ix.ptsArena)
	ix.ptsArena = ix.ptsArena[:cur+len(pc)]
	for j := range cells {
		hi := cur + int(counts[j])
		ix.entriesArena = append(ix.entriesArena, cellPts{cell: cells[j], pts: ix.ptsArena[cur:cur:hi]})
		cur = hi
	}
	d := Decomposition(ix.entriesArena[eb:len(ix.entriesArena):len(ix.entriesArena)])
	for i := range pc {
		for j := range d {
			if d[j].cell == pc[i] {
				d[j].pts = append(d[j].pts, int32(i))
				break
			}
		}
	}
	return d
}

// Len returns the number of indexed clusters.
func (ix *Index) Len() int { return len(ix.clusters) }

// DecompositionOf returns the cached cell decomposition of an indexed
// cluster. Because the grid geometry is identical at every tick (same δ,
// same origin — §III-A2), a cluster's decomposition computed when its own
// tick was indexed can be reused when the cluster later acts as a query
// against the next tick's index.
func (ix *Index) DecompositionOf(c *snapshot.Cluster) (Decomposition, bool) {
	i, ok := ix.byCluster[c]
	if !ok {
		return nil, false
	}
	return ix.decomp[i], true
}

// RangeSearch appends to dst the indices of all indexed clusters cj with
// dH(q, cj) ≤ δ, decomposing the query on the fly. Callers pass their
// previous result (resliced to zero length) to reuse its capacity.
func (ix *Index) RangeSearch(q *snapshot.Cluster, dst []int32) []int32 {
	return ix.RangeSearchDecomposed(q, Decompose(q, ix.side), dst)
}

// RangeSearchDecomposed is RangeSearch with a caller-supplied query
// decomposition (normally obtained from the previous tick's index via
// DecompositionOf).
func (ix *Index) RangeSearchDecomposed(q *snapshot.Cluster, qd Decomposition, dst []int32) []int32 {
	if len(q.Points) == 0 || len(ix.clusters) == 0 {
		return dst
	}

	// Pruning: a candidate must overlap the affect region of every query
	// cell. Candidates are generated from the first query cell's affect
	// region via the inverted lists; every further query cell then only
	// filters that (small) candidate set with integer cell-offset tests —
	// no hashing on the hot path.
	g0 := qd[0].cell
	alive := ix.alive[:0]
	for _, o := range affectOffsets {
		k := Cell{g0.X + o[0], g0.Y + o[1]}.key()
		for _, cl := range ix.inv[k] {
			if ix.stamp[cl] == 0 {
				ix.stamp[cl] = 1
				alive = append(alive, cl)
			}
		}
	}
	for _, cl := range alive {
		ix.stamp[cl] = 0 // restore for the next search
	}
	for qi := 1; qi < len(qd) && len(alive) > 0; qi++ {
		g := qd[qi].cell
		keep := alive[:0]
		for _, cl := range alive {
			if decompIntersectsAR(ix.decomp[cl], g) {
				keep = append(keep, cl)
			}
		}
		alive = keep
	}
	ix.Candidates += len(alive)
	ix.alive = alive[:0]
	n := len(dst)
	for _, cl := range alive {
		if ix.refine(q, qd, cl) {
			dst = append(dst, cl)
		}
	}
	ix.Results += len(dst) - n
	return dst
}

// decompIntersectsAR reports whether any cell of d lies in the affect
// region of g.
func decompIntersectsAR(d Decomposition, g Cell) bool {
	for i := range d {
		dx := abs32(d[i].cell.X - g.X)
		dy := abs32(d[i].cell.Y - g.Y)
		if dx <= 2 && dy <= 2 && dx+dy < 4 {
			return true
		}
	}
	return false
}

// refine decides dH(q, clusters[cj]) ≤ δ using the symmetric-difference
// rule of §III-A2.
func (ix *Index) refine(q *snapshot.Cluster, qd Decomposition, cj int32) bool {
	cd := ix.decomp[cj]
	cand := ix.clusters[cj]

	// Fast path: identical cell sets ⇒ every point shares a cell with a
	// point of the other cluster ⇒ dH ≤ δ.
	if sameCells(qd, cd) {
		return true
	}
	// Points of q in cells not covered by the candidate.
	for qi := range qd {
		if cd.has(qd[qi].cell) {
			continue
		}
		for _, pi := range qd[qi].pts {
			if !nearAny(q.Points[pi], qd[qi].cell, cd, cand.Points, ix.delta) {
				return false
			}
		}
	}
	// Points of the candidate in cells not covered by q.
	for ci := range cd {
		if qd.has(cd[ci].cell) {
			continue
		}
		for _, pi := range cd[ci].pts {
			if !nearAny(cand.Points[pi], cd[ci].cell, qd, q.Points, ix.delta) {
				return false
			}
		}
	}
	return true
}

// nearAny reports whether p (living in cell g) has a neighbour at distance
// ≤ delta among the points of other, looking only inside AR(g).
func nearAny(p geo.Point, g Cell, other Decomposition, pts []geo.Point, delta float64) bool {
	d2 := delta * delta
	for _, o := range affectOffsets {
		for _, pi := range other.find(Cell{g.X + o[0], g.Y + o[1]}) {
			if p.Dist2(pts[pi]) <= d2 {
				return true
			}
		}
	}
	return false
}

func sameCells(a, b Decomposition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].cell != b[i].cell {
			return false
		}
	}
	return true
}
