package snapshot

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geo"
	"repro/internal/trajectory"
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

func TestBuildMinSize(t *testing.T) {
	db := makeDB(4, 3) // groups of 4
	cdb := Build(db, Options{DBSCAN: dbscan.Params{Eps: 20, MinPts: 3}, MinSize: 5})
	if got := cdb.NumClusters(); got != 0 {
		t.Fatalf("MinSize filter kept %d clusters", got)
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
