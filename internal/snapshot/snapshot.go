// Package snapshot produces and stores snapshot clusters (Definition 1):
// the per-tick density-based clusters of object locations that are the
// input to crowd discovery. It implements the first phase of the paper's
// framework (§III): interpolate each trajectory onto the discrete time
// domain, run DBSCAN at every tick, and emit the cluster database
// CDB = {C_t1, ..., C_tn}.
package snapshot

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dbscan"
	"repro/internal/geo"
	"repro/internal/trajectory"
)

// Cluster is one snapshot cluster: a maximal density-connected group of
// object locations at a single tick. Objects and Points are parallel
// slices; Objects is sorted ascending so membership tests are binary
// searches and set operations are linear merges.
//
// Clusters are shared, not copied: every crowd that covers the tick and
// every snapshot answer holding such a crowd holds the same pointer, so
// no field or element changes once NewCluster, NewSummary or Build
// returns.
//
// A summary (NewSummary) has nil Points and keeps only T, Objects and the
// MBR. The incremental store gives final crowds summaries, since nothing
// reads a closed crowd's points again; so streaming results carry Points
// only on crowds that can still grow.
type Cluster struct {
	T       trajectory.Tick
	Objects []trajectory.ObjectID
	Points  []geo.Point

	mbr geo.Rect // cached bounding box
}

// NewCluster builds a cluster from parallel object/point slices, sorting
// both by object ID and caching the MBR. Slices whose IDs already strictly
// ascend (every cluster a checkpoint restores) skip the sort. It copies
// nothing; callers hand over ownership of the slices.
func NewCluster(t trajectory.Tick, objs []trajectory.ObjectID, pts []geo.Point) *Cluster {
	c := &Cluster{T: t, Objects: objs, Points: pts}
	for i := 1; i < len(objs); i++ {
		if objs[i] <= objs[i-1] {
			sort.Sort(byObject{c})
			break
		}
	}
	c.mbr = geo.MBR(pts)
	return c
}

// NewSummary builds a point-free cluster: objs (strictly ascending, not
// copied) at tick t with bounding box mbr. It keeps what an answer reads
// of a cluster, its tick, members and MBR, and none of its points.
func NewSummary(t trajectory.Tick, objs []trajectory.ObjectID, mbr geo.Rect) *Cluster {
	return &Cluster{T: t, Objects: objs, mbr: mbr}
}

// byObject sorts a cluster's parallel slices by object ID.
type byObject struct{ c *Cluster }

func (s byObject) Len() int { return len(s.c.Objects) }
func (s byObject) Less(i, j int) bool {
	return s.c.Objects[i] < s.c.Objects[j]
}
func (s byObject) Swap(i, j int) {
	s.c.Objects[i], s.c.Objects[j] = s.c.Objects[j], s.c.Objects[i]
	s.c.Points[i], s.c.Points[j] = s.c.Points[j], s.c.Points[i]
}

// Len returns the number of objects in the cluster.
func (c *Cluster) Len() int { return len(c.Objects) }

// MBR returns the minimum bounding rectangle of the cluster's points (a
// summary's, of the points it was made from).
func (c *Cluster) MBR() geo.Rect { return c.mbr }

// Contains reports whether object id is a member of the cluster.
func (c *Cluster) Contains(id trajectory.ObjectID) bool {
	i := sort.Search(len(c.Objects), func(i int) bool { return c.Objects[i] >= id })
	return i < len(c.Objects) && c.Objects[i] == id
}

// String renders the cluster compactly for diagnostics.
func (c *Cluster) String() string {
	return fmt.Sprintf("c(t=%d,n=%d)", c.T, len(c.Objects))
}

// CDB is the cluster database: for every tick of the domain, the set of
// snapshot clusters found at that tick.
type CDB struct {
	Domain   trajectory.TimeDomain
	Clusters [][]*Cluster // indexed by tick
}

// At returns the clusters at tick t (nil when t is out of range).
func (db *CDB) At(t trajectory.Tick) []*Cluster {
	if int(t) < 0 || int(t) >= len(db.Clusters) {
		return nil
	}
	return db.Clusters[t]
}

// NumClusters returns the total cluster count across all ticks.
func (db *CDB) NumClusters() int {
	n := 0
	for _, cs := range db.Clusters {
		n += len(cs)
	}
	return n
}

// Slice returns a view of the tick range [from, from+n), re-indexed so the
// first tick of the view is tick 0. Cluster T fields keep their original
// values; only the container window moves.
func (db *CDB) Slice(from trajectory.Tick, n int) *CDB {
	d := db.Domain
	d.Start = d.TimeOf(from)
	d.N = n
	return &CDB{Domain: d, Clusters: db.Clusters[from : int(from)+n]}
}

// Options configure CDB construction.
type Options struct {
	// DBSCAN holds the snapshot-clustering parameters (ε, m).
	DBSCAN dbscan.Params
	// Parallelism is the number of worker goroutines clustering ticks
	// concurrently. Values < 2 mean sequential.
	Parallelism int
}

// Build interpolates db onto its time domain and clusters every tick,
// returning the cluster database. Ticks are independent, so with
// Options.Parallelism > 1 they are processed by a worker pool. Each worker
// takes one buildScratch from scratchPool for the whole call and puts it
// back at the end, so the interpolation cursor and buffer and the DBSCAN
// working memory (sort buffers, cell and unit tables, union-find, labels)
// are reused across all the ticks it handles and across calls — only the
// emitted clusters allocate, each with arrays of its own. The pool is
// transient heap, not state a caller retains: the garbage collector frees
// a scratch no Build has used for two cycles. Ticks are handed out in
// increasing order, so every worker's cursor only steps forward after its
// first tick.
func Build(db *trajectory.DB, opt Options) *CDB {
	out := &CDB{
		Domain:   db.Domain,
		Clusters: make([][]*Cluster, db.Domain.N),
	}
	if db.Domain.N == 0 {
		return out
	}
	if opt.Parallelism < 2 {
		sc := scratchPool.Get().(*buildScratch)
		for t := 0; t < db.Domain.N; t++ {
			out.Clusters[t] = sc.clusterTick(db, trajectory.Tick(t), opt)
		}
		scratchPool.Put(sc)
		return out
	}

	ticks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*buildScratch)
			for t := range ticks {
				out.Clusters[t] = sc.clusterTick(db, trajectory.Tick(t), opt)
			}
			scratchPool.Put(sc)
		}()
	}
	for t := 0; t < db.Domain.N; t++ {
		ticks <- t
	}
	close(ticks)
	wg.Wait()
	return out
}

// scratchPool recycles tick-clustering scratch across Build calls, so a
// stream of small batches (the engine's, recovery replay's) stops regrowing
// it every batch. A pool, not a scratch the caller owns, so an idle
// scratch does not stay live. A scratch holds no pointer into the
// databases or clusters it served (clusterTick clears objs and cpts), and
// its cursor's hints are only hints, so handing one from database to
// database changes no position.
var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// buildScratch is one worker's reusable tick-clustering state. objs and
// cpts hold, per DBSCAN label, the arrays of the cluster being filled;
// they are cleared before clusterTick returns, so the scratch pins no
// emitted cluster.
type buildScratch struct {
	cursor trajectory.Cursor
	snap   []trajectory.ObjPoint
	pts    []geo.Point
	counts []int32
	objs   [][]trajectory.ObjectID
	cpts   [][]geo.Point
	dbscan dbscan.Scratch
}

// clusterTick interpolates one tick's snapshot, runs DBSCAN on it and
// materialises the resulting clusters. Everything but the clusters
// themselves comes from — and returns to — the scratch buffers.
func (sc *buildScratch) clusterTick(db *trajectory.DB, t trajectory.Tick, opt Options) []*Cluster {
	sc.snap = sc.cursor.Snapshot(db, t, sc.snap)
	snap := sc.snap
	if len(snap) == 0 {
		return nil
	}
	if cap(sc.pts) < len(snap) {
		sc.pts = make([]geo.Point, len(snap))
	}
	pts := sc.pts[:len(snap)]
	for i, op := range snap {
		pts[i] = op.P
	}
	labels := sc.dbscan.Cluster(pts, opt.DBSCAN)

	// Size the clusters with a counting pass, then give every cluster its
	// own exactly-sized Objects and Points arrays, allocated directly and
	// filled in one pass over the labels. A cluster shares no memory with
	// the rest of its tick, so one that outlives the tick (a crowd of the
	// incremental store keeps it) pins only its own arrays. counts is
	// reused as the per-cluster fill cursor.
	k := 0
	for _, l := range labels {
		if l >= k {
			k = l + 1
		}
	}
	if k == 0 {
		return nil
	}
	if cap(sc.counts) < k {
		sc.counts = make([]int32, k)
		sc.objs = make([][]trajectory.ObjectID, k)
		sc.cpts = make([][]geo.Point, k)
	}
	counts, objs, cpts := sc.counts[:k], sc.objs[:k], sc.cpts[:k]
	for i := range counts {
		counts[i] = 0
	}
	for _, l := range labels {
		if l >= 0 {
			counts[l]++
		}
	}
	for c, n := range counts {
		objs[c] = make([]trajectory.ObjectID, n)
		cpts[c] = make([]geo.Point, n)
		counts[c] = 0
	}
	for i, l := range labels {
		if l < 0 {
			continue
		}
		at := counts[l]
		objs[l][at] = snap[i].ID
		cpts[l][at] = snap[i].P
		counts[l]++
	}
	clusters := make([]*Cluster, k)
	for c, o := range objs {
		clusters[c] = NewCluster(t, o, cpts[c])
	}
	clear(objs)
	clear(cpts)
	return clusters
}

// Append extends the CDB with the clusters of more ticks (the cluster-level
// form of a trajectory batch arrival). The caller is responsible for tick
// numbering consistency: batch tick 0 becomes tick len(db.Clusters).
func (db *CDB) Append(batch *CDB) {
	db.Clusters = append(db.Clusters, batch.Clusters...)
	db.Domain = db.Domain.Extend(batch.Domain.N)
}
