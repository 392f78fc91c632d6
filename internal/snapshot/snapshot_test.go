package snapshot

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geo"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

func pt(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

func TestNewClusterSortsAndCaches(t *testing.T) {
	c := NewCluster(3,
		[]trajectory.ObjectID{5, 1, 9},
		[]geo.Point{pt(5, 0), pt(1, 0), pt(9, 0)})
	if !reflect.DeepEqual(c.Objects, []trajectory.ObjectID{1, 5, 9}) {
		t.Fatalf("objects not sorted: %v", c.Objects)
	}
	// points must follow their objects
	if c.Points[0] != pt(1, 0) || c.Points[2] != pt(9, 0) {
		t.Fatalf("points not permuted with objects: %v", c.Points)
	}
	if c.MBR() != (geo.Rect{MinX: 1, MinY: 0, MaxX: 9, MaxY: 0}) {
		t.Fatalf("MBR = %v", c.MBR())
	}
	if c.T != 3 || c.Len() != 3 {
		t.Fatalf("T=%d Len=%d", c.T, c.Len())
	}
}

func TestClusterContains(t *testing.T) {
	c := NewCluster(0,
		[]trajectory.ObjectID{2, 4, 8},
		[]geo.Point{pt(0, 0), pt(1, 1), pt(2, 2)})
	for _, id := range []trajectory.ObjectID{2, 4, 8} {
		if !c.Contains(id) {
			t.Fatalf("Contains(%d) = false", id)
		}
	}
	for _, id := range []trajectory.ObjectID{0, 3, 9} {
		if c.Contains(id) {
			t.Fatalf("Contains(%d) = true", id)
		}
	}
}

func TestClusterString(t *testing.T) {
	c := NewCluster(7, []trajectory.ObjectID{1}, []geo.Point{pt(0, 0)})
	if got := c.String(); got != "c(t=7,n=1)" {
		t.Fatalf("String = %q", got)
	}
}

// makeDB builds a database with two well-separated groups of stationary
// objects plus one wandering loner.
func makeDB(nPerGroup, ticks int) *trajectory.DB {
	db := &trajectory.DB{Domain: trajectory.TimeDomain{Start: 0, Step: 1, N: ticks}}
	id := trajectory.ObjectID(0)
	addStationary := func(x, y float64, jitter float64, r *rand.Rand) {
		tr := trajectory.Trajectory{ID: id}
		id++
		for k := 0; k < ticks; k++ {
			tr.Samples = append(tr.Samples, trajectory.Sample{
				Time: float64(k),
				P:    pt(x+r.Float64()*jitter, y+r.Float64()*jitter),
			})
		}
		db.Trajs = append(db.Trajs, tr)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < nPerGroup; i++ {
		addStationary(0, 0, 5, r)
	}
	for i := 0; i < nPerGroup; i++ {
		addStationary(1000, 1000, 5, r)
	}
	// loner far from both
	tr := trajectory.Trajectory{ID: id}
	for k := 0; k < ticks; k++ {
		tr.Samples = append(tr.Samples, trajectory.Sample{
			Time: float64(k), P: pt(500, float64(k)*10),
		})
	}
	db.Trajs = append(db.Trajs, tr)
	return db
}

func TestBuildSequential(t *testing.T) {
	db := makeDB(10, 5)
	cdb := Build(db, Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}})
	if len(cdb.Clusters) != 5 {
		t.Fatalf("%d tick entries, want 5", len(cdb.Clusters))
	}
	for tick, cs := range cdb.Clusters {
		if len(cs) != 2 {
			t.Fatalf("tick %d: %d clusters, want 2", tick, len(cs))
		}
		for _, c := range cs {
			if c.Len() != 10 {
				t.Fatalf("tick %d: cluster size %d, want 10", tick, c.Len())
			}
			if c.T != trajectory.Tick(tick) {
				t.Fatalf("cluster tick %d stored under %d", c.T, tick)
			}
		}
	}
	if got := cdb.NumClusters(); got != 10 {
		t.Fatalf("NumClusters = %d", got)
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	db := makeDB(12, 8)
	opt := Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}}
	seq := Build(db, opt)
	opt.Parallelism = 4
	par := Build(db, opt)
	if len(seq.Clusters) != len(par.Clusters) {
		t.Fatalf("tick counts differ")
	}
	for tick := range seq.Clusters {
		a, b := seq.Clusters[tick], par.Clusters[tick]
		if len(a) != len(b) {
			t.Fatalf("tick %d: %d vs %d clusters", tick, len(a), len(b))
		}
		for i := range a {
			if !reflect.DeepEqual(a[i].Objects, b[i].Objects) {
				t.Fatalf("tick %d cluster %d membership differs", tick, i)
			}
		}
	}
}

// TestClusterTickAllocs pins what one tick of Build allocates once its
// scratch is warm: for each of the k kept clusters its struct and its two
// exactly-sized arrays, plus the result slice, so 3k+1. Everything else —
// the snapshot, the points, DBSCAN's working memory, the per-label tables
// — is reused from the scratch.
func TestClusterTickAllocs(t *testing.T) {
	db := makeDB(12, 20)
	opt := Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}}
	var sc buildScratch
	tick := trajectory.Tick(0)
	k := len(sc.clusterTick(db, tick, opt))
	if k != 2 {
		t.Fatalf("%d clusters at tick 0, want 2", k)
	}
	n := testing.AllocsPerRun(20, func() {
		tick = (tick + 1) % trajectory.Tick(db.Domain.N)
		sc.clusterTick(db, tick, opt)
	})
	if want := float64(3*k + 1); n != want {
		t.Fatalf("warmed clusterTick allocates %.1f times per tick for %d clusters, want %.0f", n, k, want)
	}
}

// TestBuildAllocs pins what a whole Build of a 2-tick batch allocates
// once one warm-up call has left a scratch in the pool: 3k+1 per tick for
// its k clusters (see TestClusterTickAllocs) plus a fixed per-call
// constant — the CDB and its tick list, and with workers the tick
// channel, the wait group and one goroutine closure per worker. The
// scratch (interpolation cursor and buffer, DBSCAN's sort buffers, cell
// and unit tables, union-find and labels) comes from the pool, so a
// stream of small batches does not regrow it every batch.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; the allocation guards run without it")
	}
	db := makeDB(12, 2)
	for _, tc := range []struct {
		par   int
		fixed float64
	}{{1, 2}, {2, 2 + 2 + 2}} {
		opt := Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}, Parallelism: tc.par}
		cdb := Build(db, opt)
		var want float64
		for _, cs := range cdb.Clusters {
			if len(cs) != 2 {
				t.Fatalf("%d clusters at a tick, want 2", len(cs))
			}
			want += float64(3*len(cs) + 1)
		}
		want += tc.fixed
		if n := testing.AllocsPerRun(20, func() { Build(db, opt) }); n != want {
			t.Fatalf("parallelism %d: warmed Build of %d ticks allocates %.1f times, want %.0f", tc.par, db.Domain.N, n, want)
		}
	}
}

// freshBuild is Build with a new scratch for the whole call, as every
// Build ran before scratch was pooled.
func freshBuild(db *trajectory.DB, opt Options) *CDB {
	out := &CDB{Domain: db.Domain, Clusters: make([][]*Cluster, db.Domain.N)}
	var sc buildScratch
	for t := range out.Clusters {
		out.Clusters[t] = sc.clusterTick(db, trajectory.Tick(t), opt)
	}
	return out
}

// TestBuildPooledScratchMatchesFresh interleaves Build calls whose pooled
// scratch last served another database: databases of 5 to 60
// trajectories, batch views visited in shuffled order (so a cursor meets
// earlier ticks than it last saw), and WAL-decoded records of those
// views, whose trajectories hold only the window's samples, at 1 to 4
// workers. Every result must equal a fresh-scratch build, cluster for
// cluster: T, Objects, Points and MBR.
func TestBuildPooledScratchMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	p := dbscan.Params{Eps: 8, MinPts: 3}
	var dbs []*trajectory.DB
	for _, n := range []int{60, 5, 33, 12} {
		db := &trajectory.DB{Domain: trajectory.TimeDomain{Start: float64(r.Intn(5)), Step: 0.5, N: 40}}
		for id := 0; id < n; id++ {
			tr := trajectory.Trajectory{ID: trajectory.ObjectID(id * 3)}
			tm := db.Domain.Start + float64(r.Intn(8)) - 2
			cx, cy := float64(id%3)*100, float64(id%2)*100
			for k := 5 + r.Intn(30); k > 0; k-- {
				tr.Samples = append(tr.Samples, trajectory.Sample{Time: tm, P: pt(cx+r.Float64()*30, cy+r.Float64()*30)})
				tm += []float64{0, 0.25, 0.5, 1.5}[r.Intn(4)]
			}
			db.Trajs = append(db.Trajs, tr)
		}
		dbs = append(dbs, db)
		for _, size := range []int{2, 7} {
			for i, view := range db.Batches(size) {
				dbs = append(dbs, view)
				_, rec, err := wal.DecodePayload(wal.EncodePayload(nil, uint64(i), view))
				if err != nil {
					t.Fatal(err)
				}
				dbs = append(dbs, rec)
			}
		}
	}
	clusters := 0
	for round := 0; round < 3; round++ {
		for _, i := range r.Perm(len(dbs)) {
			db := dbs[i]
			want := freshBuild(db, Options{DBSCAN: p})
			par := 1 + r.Intn(4)
			got := Build(db, Options{DBSCAN: p, Parallelism: par})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, database %d (%d trajectories, from %v), parallelism %d: pooled build\n got %v\nwant %v",
					round, i, len(db.Trajs), db.Domain.Start, par, got.Clusters, want.Clusters)
			}
			clusters += want.NumClusters()
		}
	}
	if clusters == 0 {
		t.Fatal("no database formed a cluster; the comparison would be vacuous")
	}
}

func TestBuildEmptyDomain(t *testing.T) {
	db := &trajectory.DB{Domain: trajectory.TimeDomain{Step: 1, N: 0}}
	cdb := Build(db, Options{DBSCAN: dbscan.Params{Eps: 1, MinPts: 1}})
	if len(cdb.Clusters) != 0 || cdb.NumClusters() != 0 {
		t.Fatal("empty domain produced clusters")
	}
}

func TestCDBAtOutOfRange(t *testing.T) {
	cdb := &CDB{Clusters: make([][]*Cluster, 3)}
	if cdb.At(-1) != nil || cdb.At(3) != nil {
		t.Fatal("out-of-range At returned non-nil")
	}
}

func TestCDBSlice(t *testing.T) {
	db := makeDB(8, 10)
	cdb := Build(db, Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}})
	v := cdb.Slice(4, 3)
	if len(v.Clusters) != 3 || v.Domain.N != 3 {
		t.Fatalf("Slice dims: %d clusters, N=%d", len(v.Clusters), v.Domain.N)
	}
	if v.Domain.Start != cdb.Domain.TimeOf(4) {
		t.Fatalf("Slice start = %v", v.Domain.Start)
	}
	if !reflect.DeepEqual(v.Clusters[0], cdb.Clusters[4]) {
		t.Fatal("Slice did not alias underlying clusters")
	}
}

func TestCDBAppend(t *testing.T) {
	db := makeDB(8, 4)
	cdb := Build(db, Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}})
	db2 := makeDB(8, 2)
	batch := Build(db2, Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}})
	cdb.Append(batch)
	if cdb.Domain.N != 6 || len(cdb.Clusters) != 6 {
		t.Fatalf("after append: N=%d len=%d", cdb.Domain.N, len(cdb.Clusters))
	}
}

func TestBuildClustersAreMaximalAndDisjoint(t *testing.T) {
	// Within one tick, clusters must not share objects (Definition 1 says
	// snapshot clusters are maximal, so they are disjoint).
	db := makeDB(15, 6)
	cdb := Build(db, Options{DBSCAN: dbscan.Params{Eps: 25, MinPts: 3}})
	for tick, cs := range cdb.Clusters {
		seen := map[trajectory.ObjectID]bool{}
		for _, c := range cs {
			for _, id := range c.Objects {
				if seen[id] {
					t.Fatalf("tick %d: object %d in two clusters", tick, id)
				}
				seen[id] = true
			}
		}
	}
}

// TestBuildMatchesLocationAt requires Build's clusters — whose positions
// come from each worker's forward interpolation cursor — to equal the
// clusters of DB.Snapshot's LocationAt positions, point for point, at every
// tick of Batches views that start mid-trajectory, sequentially and with
// four workers. The objects are sampled irregularly, some twice at one
// timestamp, and live over part of the domain, so ticks fall on samples,
// between them and beyond both lifespan edges.
func TestBuildMatchesLocationAt(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	db := &trajectory.DB{Domain: trajectory.TimeDomain{Start: -2, Step: 0.5, N: 80}}
	for id := 0; id < 60; id++ {
		tr := trajectory.Trajectory{ID: trajectory.ObjectID(id)}
		tm := float64(r.Intn(20)) - 4
		cx, cy := float64(id%3)*100, float64(id%2)*100
		for k := 10 + r.Intn(40); k > 0; k-- {
			tr.Samples = append(tr.Samples, trajectory.Sample{Time: tm, P: pt(cx+r.Float64()*30, cy+r.Float64()*30)})
			tm += []float64{0, 0.25, 0.5, 0.75, 2}[r.Intn(5)]
		}
		db.Trajs = append(db.Trajs, tr)
	}
	p := dbscan.Params{Eps: 8, MinPts: 3}
	var snap []trajectory.ObjPoint
	for _, view := range db.Batches(7) {
		for _, par := range []int{1, 4} {
			cdb := Build(view, Options{DBSCAN: p, Parallelism: par})
			for tick := 0; tick < view.Domain.N; tick++ {
				snap = view.Snapshot(trajectory.Tick(tick), snap)
				pts := make([]geo.Point, len(snap))
				for i, op := range snap {
					pts[i] = op.P
				}
				labels := dbscan.Cluster(pts, p)
				var want []*Cluster
				for c := 0; ; c++ {
					var objs []trajectory.ObjectID
					var ps []geo.Point
					for i, l := range labels {
						if l == c {
							objs, ps = append(objs, snap[i].ID), append(ps, snap[i].P)
						}
					}
					if objs == nil {
						break
					}
					want = append(want, NewCluster(trajectory.Tick(tick), objs, ps))
				}
				got := cdb.Clusters[tick]
				if len(got) != len(want) {
					t.Fatalf("view from %v, parallelism %d, tick %d: %d clusters, want %d", view.Domain.Start, par, tick, len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Objects, want[i].Objects) || !reflect.DeepEqual(got[i].Points, want[i].Points) {
						t.Fatalf("view from %v, parallelism %d, tick %d cluster %d: %v at %v, want %v at %v",
							view.Domain.Start, par, tick, i, got[i].Objects, got[i].Points, want[i].Objects, want[i].Points)
					}
				}
			}
		}
	}
}

// TestBuildClustersOwnTheirArrays: every cluster Build emits has Objects
// and Points arrays of its own, exactly sized (cap == len), so a crowd
// that keeps one cluster pins no other cluster's points. Cluster sizes are
// odd counts from 17 to 31, for which neither array's byte size is a Go
// allocator size class: a separately allocated array then ends strictly
// inside its allocation slot, and two arrays that abut can only be windows
// of one shared array.
func TestBuildClustersOwnTheirArrays(t *testing.T) {
	sizes := []int{17, 19, 21, 23, 25, 27, 29, 31}
	const ticks = 4
	db := &trajectory.DB{Domain: trajectory.TimeDomain{Step: 1, N: ticks}}
	r := rand.New(rand.NewSource(311))
	for g, n := range sizes {
		for i := 0; i < n; i++ {
			tr := trajectory.Trajectory{ID: trajectory.ObjectID(len(db.Trajs))}
			for k := 0; k < ticks; k++ {
				tr.Samples = append(tr.Samples, trajectory.Sample{
					Time: float64(k), P: pt(1000*float64(g)+5*r.Float64(), 5*r.Float64()),
				})
			}
			db.Trajs = append(db.Trajs, tr)
		}
	}
	want := map[int]bool{}
	for _, n := range sizes {
		want[n] = true
	}
	type span struct{ lo, hi uintptr }
	spanOf := func(s any) span {
		v := reflect.ValueOf(s)
		lo := v.Pointer()
		return span{lo, lo + uintptr(v.Len())*v.Type().Elem().Size()}
	}
	for _, workers := range []int{1, 2} {
		cdb := Build(db, Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}, Parallelism: workers})
		var objs, pts []span
		for tick, cs := range cdb.Clusters {
			if len(cs) != len(sizes) {
				t.Fatalf("workers %d, tick %d: %d clusters, want %d", workers, tick, len(cs), len(sizes))
			}
			for _, c := range cs {
				if !want[c.Len()] {
					t.Fatalf("workers %d, tick %d: cluster of %d objects, want one of %v", workers, tick, c.Len(), sizes)
				}
				if cap(c.Objects) != len(c.Objects) || cap(c.Points) != len(c.Points) {
					t.Fatalf("workers %d, %v: cap %d/%d for len %d", workers, c, cap(c.Objects), cap(c.Points), c.Len())
				}
				objs = append(objs, spanOf(c.Objects))
				pts = append(pts, spanOf(c.Points))
			}
		}
		for _, spans := range [][]span{objs, pts} {
			sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
			for i := 1; i < len(spans); i++ {
				if spans[i].lo <= spans[i-1].hi {
					t.Fatalf("workers %d: cluster arrays [%#x,%#x) and [%#x,%#x) share a backing array",
						workers, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
				}
			}
		}
	}
}
