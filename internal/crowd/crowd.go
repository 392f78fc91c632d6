// Package crowd implements closed crowd discovery (Definition 2, Algorithm
// 1). A crowd is a sequence of snapshot clusters at consecutive ticks, each
// with at least mc objects, consecutive clusters within Hausdorff distance
// δ, lasting at least kc ticks. The discovery algorithm sweeps the ticks
// once, maintaining the set V of crowd candidates; a candidate that cannot
// be extended by any cluster of the next tick is closed (Lemma 1).
//
// The expensive step is RangeSearch — finding the clusters of the next
// tick within Hausdorff distance δ of a candidate's last cluster — so it is
// a pluggable Searcher with four implementations: brute force, SR (R-tree
// window query with the dmin bound, Lemma 2), IR (R-tree side query with
// the dside bound, Lemma 3) and Grid (the grid index of §III-A2).
//
// Crowds are persistent (immutable, structurally shared): extending a
// candidate by one cluster is O(1) — a child node pointing at its parent —
// rather than a copy of the whole cluster sequence. Candidates branch
// rarely, so the live candidate set forms a few long chains; the full
// cluster slice is materialised on demand and memoized, and a
// materialisation can reuse the spare capacity of its nearest
// materialised ancestor, so a tail candidate that grows batch after batch
// pays O(new ticks) amortised per batch instead of O(lifetime). This is
// what keeps the incremental layer's per-batch cost proportional to the
// batch (§III-C, Theorem 2) instead of the stream age.
package crowd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/gridindex"
	"repro/internal/rtree"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// Params are the crowd thresholds of Definition 2.
type Params struct {
	MC    int     // support threshold: minimum objects per cluster
	KC    int     // lifetime threshold: minimum number of consecutive ticks
	Delta float64 // variation threshold on consecutive Hausdorff distances
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.MC < 1 {
		return fmt.Errorf("crowd: MC must be ≥ 1, got %d", p.MC)
	}
	if p.KC < 1 {
		return fmt.Errorf("crowd: KC must be ≥ 1, got %d", p.KC)
	}
	if p.Delta <= 0 {
		return fmt.Errorf("crowd: Delta must be > 0, got %v", p.Delta)
	}
	return nil
}

// Crowd is a candidate or discovered crowd: consecutive snapshot clusters
// starting at tick Start. It is an immutable persistent structure — a node
// either holds its full cluster run (a root built by New) or one cluster
// plus a pointer to the shared prefix it extends. Construct one with New;
// read it through Lifetime, End, At, Last, Clusters and Prefix. No field
// changes after construction (the memoized materialisation only caches
// what the chain already holds), so every crowd — a tail candidate a later
// resume extends included — may be shared and retained without a copy.
type Crowd struct {
	Start trajectory.Tick

	// parent/last/base encode the persistent representation: a root node
	// (parent == nil) covers positions [0, length) with base — or, when
	// base is nil and length is 1, with last alone (the common
	// freshly-started candidate, spared the one-element slice). A child
	// node covers position length-1 with last and delegates the rest to
	// parent.
	parent *Crowd
	last   *snapshot.Cluster
	base   []*snapshot.Cluster
	length int

	// mat memoizes the materialised cluster slice. Concurrent readers may
	// race to materialise; every winner computes identical content, so
	// last-store-wins is safe.
	mat atomic.Pointer[matState]
}

// matState is one memoized materialisation. owned marks buffers allocated
// by materialisation itself: only their spare capacity may be stolen and
// extended in place by a descendant (a caller-provided slice handed to New
// may alias a larger live array, so it is never extended).
type matState struct {
	cls   []*snapshot.Cluster
	owned bool
}

// New builds a crowd over the given cluster run. The crowd takes ownership
// of the slice: callers must not mutate it afterwards.
func New(start trajectory.Tick, clusters []*snapshot.Cluster) *Crowd {
	c := &Crowd{Start: start, base: clusters, length: len(clusters)}
	c.mat.Store(&matState{cls: clusters})
	return c
}

// Lifetime returns Cr.τ, the number of ticks the crowd spans.
func (c *Crowd) Lifetime() int { return c.length }

// End returns the tick of the last cluster.
func (c *Crowd) End() trajectory.Tick {
	return c.Start + trajectory.Tick(c.length-1)
}

// Last returns the cluster at the final tick (nil for an empty crowd). It
// is O(1): the sweep's inner loop reads only this.
func (c *Crowd) Last() *snapshot.Cluster {
	if c.length == 0 {
		return nil
	}
	if c.parent == nil && c.base != nil {
		return c.base[c.length-1]
	}
	return c.last
}

// At returns the cluster at position i (0 ≤ i < Lifetime). Reads through a
// memoized materialisation are O(1); otherwise the parent chain is walked
// from the tip, O(Lifetime − i).
func (c *Crowd) At(i int) *snapshot.Cluster {
	if i < 0 || i >= c.length {
		panic(fmt.Sprintf("crowd: position %d out of range [0,%d)", i, c.length))
	}
	n := c
	for {
		if m := n.mat.Load(); m != nil {
			return m.cls[i]
		}
		if n.parent == nil {
			if n.base != nil {
				return n.base[i]
			}
			return n.last // singleton root: i == 0
		}
		if i == n.length-1 {
			return n.last
		}
		n = n.parent
	}
}

// Clusters materialises the crowd as one slice, memoizing the result.
// Callers must treat the slice as read-only. The first materialisation of
// a freshly extended crowd copies only the suffix beyond its nearest
// materialised ancestor when that ancestor's buffer has spare capacity
// (the buffer is "stolen": the ancestor re-materialises if asked again),
// so repeated materialisation along a growing chain is amortised O(new
// ticks), not O(lifetime).
func (c *Crowd) Clusters() []*snapshot.Cluster {
	if m := c.mat.Load(); m != nil {
		return m.cls
	}
	out := c.materialise()
	c.mat.Store(&matState{cls: out, owned: true})
	return out
}

// pending is one chain node's own cluster awaiting placement during
// materialisation.
type pending struct {
	i  int
	cl *snapshot.Cluster
}

func (c *Crowd) materialise() []*snapshot.Cluster {
	// Walk towards the root recording each node's own cluster, stopping
	// at the first materialised ancestor. Chains between materialisations
	// are short (one batch of ticks), so a small presized stack absorbs
	// the walk without growth reallocations.
	stack := make([]pending, 0, 16)
	n := c
	for n.parent != nil {
		if n.mat.Load() != nil {
			return c.finish(n, stack)
		}
		stack = append(stack, pending{n.length - 1, n.last})
		n = n.parent
	}
	if n.mat.Load() != nil {
		return c.finish(n, stack)
	}
	out := make([]*snapshot.Cluster, c.length, materialiseCap(c.length))
	if n.base != nil {
		copy(out, n.base)
	} else if n.length == 1 {
		out[0] = n.last
	}
	for _, p := range stack {
		out[p.i] = p.cl
	}
	return out
}

// finish assembles the materialisation from ancestor anc's memo plus the
// recorded suffix. The memo is taken from anc atomically (Swap), so racing
// descendants can never extend the same buffer: when the taken buffer is
// owned and has room, it is extended in place — the suffix writes touch
// only indices beyond every slice previously exposed from it. anc simply
// re-materialises if asked again (rare: consumers query chain tips).
func (c *Crowd) finish(anc *Crowd, suffix []pending) []*snapshot.Cluster {
	taken := anc.mat.Swap(nil)
	if taken == nil {
		// Lost a race for the memo; recompute from anc's own structure.
		sub := anc.materialise()
		out := make([]*snapshot.Cluster, c.length, materialiseCap(c.length))
		copy(out, sub)
		for _, p := range suffix {
			out[p.i] = p.cl
		}
		return out
	}
	if taken.owned && cap(taken.cls) >= c.length {
		out := taken.cls[:c.length]
		for _, p := range suffix {
			out[p.i] = p.cl
		}
		return out
	}
	out := make([]*snapshot.Cluster, c.length, materialiseCap(c.length))
	copy(out, taken.cls)
	for _, p := range suffix {
		out[p.i] = p.cl
	}
	// An unowned memo (a New-provided slice) is still a valid memo for
	// anc; put it back so roots keep their zero-cost materialisation.
	if !taken.owned {
		anc.mat.CompareAndSwap(nil, taken)
	}
	return out
}

// materialiseCap adds growth headroom so chains of materialisations
// reallocate geometrically rather than per batch.
func materialiseCap(n int) int { return n + n/4 + 4 }

// Sub returns the sub-crowd covering positions [lo, hi). It shares the
// materialised clusters of c.
func (c *Crowd) Sub(lo, hi int) *Crowd {
	cls := c.Clusters()
	return New(c.Start+trajectory.Tick(lo), cls[lo:hi:hi])
}

// Prefix returns the node of c's own chain whose lifetime is n: c itself
// when n is c's lifetime, an ancestor when c was grown from it by extend,
// and nil when no node of the chain has that lifetime (n out of range, or
// inside a root's cluster run). A resumed sweep's crowd that started
// before the resume tick finds the old candidate it grew from this way:
// its prefix of lifetime from − Start.
func (c *Crowd) Prefix(n int) *Crowd {
	for p := c; p != nil && p.length >= n; p = p.parent {
		if p.length == n {
			return p
		}
	}
	return nil
}

// extend returns a new crowd with cl appended; the receiver is unchanged
// (candidates branch, so the prefix is shared, never copied).
func (c *Crowd) extend(cl *snapshot.Cluster) *Crowd {
	return &Crowd{Start: c.Start, parent: c, last: cl, length: c.length + 1}
}

// String renders the crowd compactly.
func (c *Crowd) String() string {
	return fmt.Sprintf("Cr[%d..%d]", c.Start, c.End())
}

// Searcher finds, among the clusters of one tick, those within Hausdorff
// distance δ of a query cluster. Prepare is called once per tick before any
// Search at that tick; Search returns indices into the prepared slice. The
// returned slice is only valid until the next Search call — implementations
// reuse one result buffer across calls.
type Searcher interface {
	Prepare(clusters []*snapshot.Cluster)
	Search(query *snapshot.Cluster) []int32
}

// Result is the outcome of a discovery sweep.
type Result struct {
	// Crowds are the closed crowds, in order of closing tick.
	Crowds []*Crowd
	// Tail holds every candidate alive after the final tick, of any
	// length, including those also emitted in Crowds. It is the saved
	// state CS for incremental crowd extension (§III-C1). Like every
	// crowd, tail crowds are immutable: a later resume extends them into
	// new nodes and never changes them, so holders may keep them.
	Tail []*Crowd
}

// sweepScratch is the reusable working memory of one discovery sweep: the
// per-tick eligibility filter, the used marks, and the double-buffered
// candidate lists. Pooled so the streaming layer's per-batch sweeps stop
// allocating it.
type sweepScratch struct {
	eligible []*snapshot.Cluster
	used     []bool
	cur      []*Crowd
	next     []*Crowd
}

var sweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// Discover runs Algorithm 1 over the whole cluster database.
func Discover(cdb *snapshot.CDB, p Params, s Searcher) Result {
	return DiscoverFrom(cdb, 0, nil, p, s)
}

// DiscoverFrom resumes Algorithm 1 over batch, whose first tick is the
// absolute tick from, with an initial candidate set whose last clusters
// sit at tick from-1. It is the engine of both archival discovery
// (from = 0, initial = nil) and incremental crowd extension, where batch
// holds only the new ticks: by Lemma 4 a resumed sweep reads nothing
// before from but the candidates' last clusters. Crowds started within the
// sweep are numbered in absolute ticks. A result crowd c that starts
// before from grew from the initial candidate c.Prefix(from − c.Start),
// the key the incremental layer's gathering/detector caches are held
// under. DiscoverFrom only reads the initial candidates.
func DiscoverFrom(batch *snapshot.CDB, from trajectory.Tick, initial []*Crowd, p Params, s Searcher) Result {
	sc := sweepPool.Get().(*sweepScratch)
	var closed []*Crowd
	cur := append(sc.cur[:0], initial...)
	next := sc.next[:0]

	eligible := sc.eligible
	used := sc.used
	for i, cs := range batch.Clusters {
		t := from + trajectory.Tick(i)
		// Only clusters meeting the support threshold can ever be part of
		// a crowd (Definition 2, condition 2).
		eligible = eligible[:0]
		for _, c := range cs {
			if c.Len() >= p.MC {
				eligible = append(eligible, c)
			}
		}
		s.Prepare(eligible)

		if cap(used) < len(eligible) {
			used = make([]bool, len(eligible))
		}
		used = used[:len(eligible)]
		for i := range used {
			used[i] = false
		}
		next = next[:0]
		for _, cand := range cur {
			matches := s.Search(cand.Last())
			if len(matches) == 0 {
				// Cannot be extended: closed crowd (Lemma 1) or dead end.
				if cand.Lifetime() >= p.KC {
					closed = append(closed, cand)
				}
				continue
			}
			for _, mi := range matches {
				used[mi] = true
				next = append(next, cand.extend(eligible[mi]))
			}
		}
		// Clusters that extended nothing become new candidates (line 18).
		for i, c := range eligible {
			if !used[i] {
				next = append(next, &Crowd{Start: t, last: c, length: 1})
			}
		}
		cur, next = next, cur
	}

	// Domain exhausted: surviving candidates of sufficient length are
	// closed within this database (they may still be extended by a future
	// batch, which is why they are also returned in Tail).
	for _, cand := range cur {
		if cand.Lifetime() >= p.KC {
			closed = append(closed, cand)
		}
	}
	tail := append([]*Crowd(nil), cur...)

	// Return the scratch with its pointer buffers cleared so pooled
	// arrays don't pin crowd or cluster graphs until their next reuse.
	clear(eligible[:cap(eligible)])
	clear(cur[:cap(cur)])
	clear(next[:cap(next)])
	sc.eligible, sc.used = eligible[:0], used[:0]
	sc.cur, sc.next = cur[:0], next[:0]
	sweepPool.Put(sc)
	return Result{Crowds: closed, Tail: tail}
}

// BruteSearcher verifies the Hausdorff predicate against every cluster of
// the tick. It is the correctness baseline the indexed searchers are
// tested against, and the "no pruning" datum for Fig. 6.
type BruteSearcher struct {
	Delta    float64
	clusters []*snapshot.Cluster
	buf      []int32
}

// Prepare implements Searcher.
func (b *BruteSearcher) Prepare(cs []*snapshot.Cluster) { b.clusters = cs }

// Search implements Searcher.
func (b *BruteSearcher) Search(q *snapshot.Cluster) []int32 {
	out := b.buf[:0]
	for i, c := range b.clusters {
		if geo.WithinHausdorff(q.Points, c.Points, b.Delta) {
			out = append(out, int32(i))
		}
	}
	b.buf = out
	return out
}

// SRSearcher is the simple R-tree scheme (§III-A1): cluster MBRs are
// indexed per tick; candidates are found with a window query over the
// query MBR enlarged by δ (the dmin bound of Lemma 2) and refined by
// evaluating the exact Hausdorff distance, exactly as the paper describes
// ("the brute-force refinement is still needed to evaluate the Hausdorff
// distances for those candidate clusters"). The grid scheme's edge comes
// from never paying this quadratic refinement.
type SRSearcher struct {
	Delta    float64
	tree     *rtree.Tree
	clusters []*snapshot.Cluster
	buf      []int32

	// Stats accumulate over the sweep for pruning-effect reporting.
	Candidates int // clusters surviving the index filter
	Results    int // clusters passing refinement
}

// Prepare implements Searcher.
func (s *SRSearcher) Prepare(cs []*snapshot.Cluster) {
	s.clusters = cs
	items := make([]rtree.Item, len(cs))
	for i, c := range cs {
		items[i] = rtree.Item{Rect: c.MBR(), ID: int32(i)}
	}
	s.tree = rtree.BulkLoad(items)
}

// Search implements Searcher.
func (s *SRSearcher) Search(q *snapshot.Cluster) []int32 {
	out := s.buf[:0]
	window := q.MBR().Expand(s.Delta)
	s.tree.Search(window, func(id int32) bool {
		s.Candidates++
		if geo.Hausdorff(q.Points, s.clusters[id].Points) <= s.Delta {
			out = append(out, id)
		}
		return true
	})
	s.Results += len(out)
	s.buf = out
	return out
}

// IRSearcher is the improved R-tree scheme: the traversal requires a node
// to intersect all four δ-enlarged sides of the query MBR (the dside bound
// of Lemma 3), which prunes more than the plain window, then refines
// survivors exactly.
type IRSearcher struct {
	Delta    float64
	tree     *rtree.Tree
	clusters []*snapshot.Cluster
	buf      []int32

	Candidates int
	Results    int
}

// Prepare implements Searcher.
func (s *IRSearcher) Prepare(cs []*snapshot.Cluster) {
	s.clusters = cs
	items := make([]rtree.Item, len(cs))
	for i, c := range cs {
		items[i] = rtree.Item{Rect: c.MBR(), ID: int32(i)}
	}
	s.tree = rtree.BulkLoad(items)
}

// Search implements Searcher.
func (s *IRSearcher) Search(q *snapshot.Cluster) []int32 {
	out := s.buf[:0]
	s.tree.SearchDSide(q.MBR(), s.Delta, func(id int32) bool {
		s.Candidates++
		if geo.Hausdorff(q.Points, s.clusters[id].Points) <= s.Delta {
			out = append(out, id)
		}
		return true
	})
	s.Results += len(out)
	s.buf = out
	return out
}

// GridSearcher is the grid scheme of §III-A2: affect-region pruning plus
// cell-level refinement, never computing an exact Hausdorff distance. The
// grid geometry is the same at every tick, so a query cluster's cell
// decomposition — computed when its own tick was indexed — is reused from
// the previous tick's index instead of being rebuilt.
type GridSearcher struct {
	Delta float64
	index *gridindex.Index
	prev  *gridindex.Index
	buf   []int32

	// Candidates and Results accumulate over the sweep, as for SR/IR.
	Candidates int
	Results    int
}

// Prepare implements Searcher.
func (s *GridSearcher) Prepare(cs []*snapshot.Cluster) {
	if s.index != nil {
		s.Candidates += s.index.Candidates
		s.Results += s.index.Results
	}
	// The tick-before-last index is fully retired (only prev is consulted,
	// for decomposition reuse); recycle its arenas into the new build.
	spent := s.prev
	s.prev = s.index
	s.index = gridindex.BuildReuse(spent, cs, s.Delta)
}

// FlushStats folds the live index's counters into the searcher totals;
// call after a sweep completes before reading Candidates/Results.
func (s *GridSearcher) FlushStats() {
	if s.index != nil {
		s.Candidates += s.index.Candidates
		s.Results += s.index.Results
		s.index.Candidates, s.index.Results = 0, 0
	}
}

// Search implements Searcher.
func (s *GridSearcher) Search(q *snapshot.Cluster) []int32 {
	if s.prev != nil {
		if qd, ok := s.prev.DecompositionOf(q); ok {
			s.buf = s.index.RangeSearchDecomposed(q, qd, s.buf[:0])
			return s.buf
		}
	}
	s.buf = s.index.RangeSearch(q, s.buf[:0])
	return s.buf
}

// NewSearcher returns the named searcher ("brute", "sr", "ir" or "grid"),
// the configuration surface used by the CLI and benchmarks.
func NewSearcher(name string, delta float64) (Searcher, error) {
	switch name {
	case "brute":
		return &BruteSearcher{Delta: delta}, nil
	case "sr":
		return &SRSearcher{Delta: delta}, nil
	case "ir":
		return &IRSearcher{Delta: delta}, nil
	case "grid":
		return &GridSearcher{Delta: delta}, nil
	}
	return nil, fmt.Errorf("crowd: unknown searcher %q", name)
}
