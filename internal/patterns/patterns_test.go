package patterns

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// mkCDB builds a CDB from per-tick lists of cluster memberships.
func mkCDB(ticks [][][]trajectory.ObjectID) *snapshot.CDB {
	cdb := &snapshot.CDB{
		Domain:   trajectory.TimeDomain{Step: 1, N: len(ticks)},
		Clusters: make([][]*snapshot.Cluster, len(ticks)),
	}
	for t, clusters := range ticks {
		for _, ids := range clusters {
			pts := make([]geo.Point, len(ids))
			for i := range pts {
				pts[i] = geo.Point{X: float64(i), Y: float64(t)}
			}
			cp := append([]trajectory.ObjectID(nil), ids...)
			cdb.Clusters[t] = append(cdb.Clusters[t],
				snapshot.NewCluster(trajectory.Tick(t), cp, pts))
		}
	}
	return cdb
}

func o(ids ...trajectory.ObjectID) []trajectory.ObjectID { return ids }

// ---- swarms ---------------------------------------------------------------

func TestSwarmsFigure1b(t *testing.T) {
	// Figure 1b: o2,o3,o4,o5 travel together at t1..t3; o1 joins the
	// cluster only at t1 and t3 (it is away at t2). With mino=2, mint=2
	// all five objects form a closed swarm over the non-consecutive
	// {t1, t3}; the quartet is a closed swarm over {t1,t2,t3}.
	cdb := mkCDB([][][]trajectory.ObjectID{
		{o(1, 2, 3, 4, 5)},
		{o(2, 3, 4, 5), o(1)},
		{o(1, 2, 3, 4, 5)},
	})
	swarms := Swarms(cdb, SwarmParams{MinO: 2, MinT: 2})
	var got [][2]int
	for _, s := range swarms {
		got = append(got, [2]int{len(s.Objects), len(s.Ticks)})
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i][0] != got[j][0] {
			return got[i][0] < got[j][0]
		}
		return got[i][1] < got[j][1]
	})
	want := [][2]int{{4, 3}, {5, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("swarms = %v, want %v", got, want)
	}
}

func TestSwarmsClosednessNoSubsets(t *testing.T) {
	// A single stable cluster over 4 ticks: the only closed swarm is the
	// full object set with all ticks.
	cdb := mkCDB([][][]trajectory.ObjectID{
		{o(1, 2, 3)}, {o(1, 2, 3)}, {o(1, 2, 3)}, {o(1, 2, 3)},
	})
	swarms := Swarms(cdb, SwarmParams{MinO: 1, MinT: 1})
	if len(swarms) != 1 {
		t.Fatalf("%d swarms, want 1 (closed only)", len(swarms))
	}
	if len(swarms[0].Objects) != 3 || len(swarms[0].Ticks) != 4 {
		t.Fatalf("swarm = %+v", swarms[0])
	}
}

func TestSwarmsThresholds(t *testing.T) {
	cdb := mkCDB([][][]trajectory.ObjectID{
		{o(1, 2)}, {o(1, 2)}, {o(1), o(2)},
	})
	if got := Swarms(cdb, SwarmParams{MinO: 2, MinT: 3}); len(got) != 0 {
		t.Fatalf("mint=3 found %d", len(got))
	}
	got := Swarms(cdb, SwarmParams{MinO: 2, MinT: 2})
	if len(got) != 1 || len(got[0].Ticks) != 2 {
		t.Fatalf("mint=2: %+v", got)
	}
}

func TestSwarmsEmpty(t *testing.T) {
	cdb := mkCDB(nil)
	if got := Swarms(cdb, SwarmParams{MinO: 1, MinT: 1}); len(got) != 0 {
		t.Fatalf("empty CDB produced %d swarms", len(got))
	}
}

// bruteClosedSwarms enumerates object subsets directly (exponential;
// test-only) and keeps closed ones.
func bruteClosedSwarms(cdb *snapshot.CDB, p SwarmParams) map[string]bool {
	ids := buildClusterIDs(cdb)
	objSet := map[trajectory.ObjectID]bool{}
	for _, m := range ids {
		for id := range m {
			objSet[id] = true
		}
	}
	var objs []trajectory.ObjectID
	for id := range objSet {
		objs = append(objs, id)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })

	tmax := func(set []trajectory.ObjectID) []trajectory.Tick {
		var T []trajectory.Tick
		for t := range ids {
			ok := true
			var c0 int32
			for i, o := range set {
				c, present := ids[t][o]
				if !present || (i > 0 && c != c0) {
					ok = false
					break
				}
				c0 = c
			}
			if ok {
				T = append(T, trajectory.Tick(t))
			}
		}
		return T
	}
	out := map[string]bool{}
	n := len(objs)
	for mask := 1; mask < 1<<n; mask++ {
		var set []trajectory.ObjectID
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, objs[i])
			}
		}
		if len(set) < p.MinO {
			continue
		}
		T := tmax(set)
		if len(T) < p.MinT {
			continue
		}
		closed := true
		for i, o := range objs {
			if mask&(1<<i) != 0 {
				continue
			}
			if len(tmax(append(append([]trajectory.ObjectID(nil), set...), o))) == len(T) {
				closed = false
				break
			}
		}
		if closed {
			out[swarmKey(set, T)] = true
		}
	}
	return out
}

func swarmKey(set []trajectory.ObjectID, T []trajectory.Tick) string {
	s := ""
	for _, o := range set {
		s += string(rune('A' + int(o)))
	}
	s += "|"
	for _, t := range T {
		s += string(rune('a' + int(t)))
	}
	return s
}

func TestSwarmsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		nObj := 3 + r.Intn(4)
		nTick := 3 + r.Intn(4)
		ticks := make([][][]trajectory.ObjectID, nTick)
		for tt := range ticks {
			// randomly partition present objects into up to 2 clusters
			var a, b []trajectory.ObjectID
			for id := 0; id < nObj; id++ {
				switch r.Intn(3) {
				case 0:
					a = append(a, trajectory.ObjectID(id))
				case 1:
					b = append(b, trajectory.ObjectID(id))
				}
			}
			if len(a) > 0 {
				ticks[tt] = append(ticks[tt], a)
			}
			if len(b) > 0 {
				ticks[tt] = append(ticks[tt], b)
			}
		}
		cdb := mkCDB(ticks)
		p := SwarmParams{MinO: 1 + r.Intn(2), MinT: 1 + r.Intn(2)}
		want := bruteClosedSwarms(cdb, p)
		got := map[string]bool{}
		for _, s := range Swarms(cdb, p) {
			got[swarmKey(s.Objects, s.Ticks)] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v): got %v want %v", trial, p, got, want)
		}
	}
}

// ---- convoys ---------------------------------------------------------------

func TestConvoysBasic(t *testing.T) {
	// o1..o3 stay together 4 ticks; o4 tags along for the middle two.
	cdb := mkCDB([][][]trajectory.ObjectID{
		{o(1, 2, 3)},
		{o(1, 2, 3, 4)},
		{o(1, 2, 3, 4)},
		{o(1, 2, 3)},
	})
	convoys := Convoys(cdb, ConvoyParams{M: 3, K: 3})
	if len(convoys) != 1 {
		t.Fatalf("%d convoys: %+v", len(convoys), convoys)
	}
	c := convoys[0]
	if !reflect.DeepEqual(c.Objects, o(1, 2, 3)) || c.Start != 0 || c.Lifetime != 4 {
		t.Fatalf("convoy = %+v", c)
	}
	// With K=2 the 4-object middle convoy also appears.
	convoys = Convoys(cdb, ConvoyParams{M: 4, K: 2})
	if len(convoys) != 1 || len(convoys[0].Objects) != 4 || convoys[0].Lifetime != 2 {
		t.Fatalf("middle convoy = %+v", convoys)
	}
}

func TestConvoysRequireConsecutive(t *testing.T) {
	// The group breaks at t2: no convoy of length 3 despite 3 total ticks
	// together (that IS a swarm).
	cdb := mkCDB([][][]trajectory.ObjectID{
		{o(1, 2)}, {o(1), o(2)}, {o(1, 2)}, {o(1, 2)},
	})
	if got := Convoys(cdb, ConvoyParams{M: 2, K: 3}); len(got) != 0 {
		t.Fatalf("non-consecutive accepted: %+v", got)
	}
	if got := Swarms(cdb, SwarmParams{MinO: 2, MinT: 3}); len(got) != 1 {
		t.Fatalf("swarm should span the gap: %+v", got)
	}
	got := Convoys(cdb, ConvoyParams{M: 2, K: 2})
	if len(got) != 1 || got[0].Start != 2 || got[0].Lifetime != 2 {
		t.Fatalf("tail convoy = %+v", got)
	}
}

func TestConvoysDominanceFilter(t *testing.T) {
	cdb := mkCDB([][][]trajectory.ObjectID{
		{o(1, 2, 3)}, {o(1, 2, 3)}, {o(1, 2, 3)},
	})
	convoys := Convoys(cdb, ConvoyParams{M: 2, K: 2})
	// only the maximal convoy survives
	if len(convoys) != 1 || len(convoys[0].Objects) != 3 || convoys[0].Lifetime != 3 {
		t.Fatalf("convoys = %+v", convoys)
	}
}

// ---- set helpers -------------------------------------------------------------

func TestIntersectAndSubset(t *testing.T) {
	a := o(1, 3, 5, 7)
	b := o(3, 4, 5, 8)
	if got := intersect(a, b); !reflect.DeepEqual(got, o(3, 5)) {
		t.Fatalf("intersect = %v", got)
	}
	if !subset(o(3, 5), a) || subset(o(3, 4), a) || !subset(nil, a) {
		t.Fatal("subset misbehaves")
	}
	if got := intersect(nil, b); len(got) != 0 {
		t.Fatalf("intersect nil = %v", got)
	}
}
