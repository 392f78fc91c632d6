package incremental

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// ---- row-grid CDB helpers (same convention as the crowd tests) ----------

var nextObj trajectory.ObjectID

func clusterAt(t trajectory.Tick, y float64) *snapshot.Cluster {
	nextObj++
	return snapshot.NewCluster(t,
		[]trajectory.ObjectID{nextObj},
		[]geo.Point{{X: 0, Y: y}})
}

func cdbFromRows(start trajectory.Tick, rows [][]float64) *snapshot.CDB {
	cdb := &snapshot.CDB{
		Domain:   trajectory.TimeDomain{Step: 1, N: len(rows)},
		Clusters: make([][]*snapshot.Cluster, len(rows)),
	}
	for t, ys := range rows {
		for _, y := range ys {
			cdb.Clusters[t] = append(cdb.Clusters[t], clusterAt(start+trajectory.Tick(t), y))
		}
	}
	return cdb
}

// signature renders a crowd as its start and the row of each cluster.
// clusterAt builds one-point clusters, so a cluster's row is its MBR's
// MinY, which a final crowd's point-free summary keeps too.
func signature(c *crowd.Crowd) string {
	s := fmt.Sprintf("%d:", c.Start)
	for _, cl := range c.Clusters() {
		s += fmt.Sprintf("%.1f,", cl.MBR().MinY)
	}
	return s
}

func signatures(cs []*crowd.Crowd) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = signature(c)
	}
	sort.Strings(out)
	return out
}

// figure2Rows is the Fig. 2a layout (see crowd package tests).
func figure2Rows() [][]float64 {
	return [][]float64{
		{2}, {2, 3}, {1, 3}, {1}, {1, 2, 4}, {0, 4.5, 6}, {5}, {5},
	}
}

// figure4BatchRows encodes the new clusters of Fig. 4a (ticks t9..t12):
// c2⁹ extends c1⁸; c1⁹ starts fresh; c2¹⁰ follows c1⁹; c1¹⁰ starts fresh;
// c1¹¹ joins both; c1¹² follows.
func figure4BatchRows() [][]float64 {
	return [][]float64{
		{5, 2}, // t9: c2⁹ (row 5), c1⁹ (row 2)
		{2, 0}, // t10: c2¹⁰ (row 2), c1¹⁰ (row 0)
		{1},    // t11: c1¹¹
		{1},    // t12: c1¹²
	}
}

func newStore(t *testing.T, cp crowd.Params, gp gathering.Params) *Store {
	t.Helper()
	s, err := New(cp, gp, func() crowd.Searcher { return &crowd.GridSearcher{Delta: cp.Delta} })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cp := crowd.Params{MC: 1, KC: 2, Delta: 1}
	gp := gathering.Params{KC: 2, KP: 1, MP: 1}
	if _, err := New(crowd.Params{}, gp, func() crowd.Searcher { return nil }); err == nil {
		t.Fatal("bad crowd params accepted")
	}
	if _, err := New(cp, gathering.Params{}, func() crowd.Searcher { return nil }); err == nil {
		t.Fatal("bad gathering params accepted")
	}
	if _, err := New(cp, gp, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
}

func TestExample4CrowdExtension(t *testing.T) {
	cp := crowd.Params{MC: 1, KC: 4, Delta: 1.0}
	gp := gathering.Params{KC: 4, KP: 1, MP: 1}
	s := newStore(t, cp, gp)

	s.Append(cdbFromRows(0, figure2Rows()))
	// After the first batch the closed crowds are those of Fig. 2b at t9.
	want := []string{
		"0:2.0,2.0,1.0,1.0,1.0,0.0,",
		"0:2.0,2.0,1.0,1.0,2.0,",
		"4:4.0,4.5,5.0,5.0,",
	}
	if got := signatures(s.Crowds()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after batch 1:\n got %v\nwant %v", got, want)
	}

	s.Append(cdbFromRows(8, figure4BatchRows()))
	// Fig. 4b, time 13: the old tail crowds were extended by c2⁹ and a new
	// crowd formed entirely within the batch.
	want = []string{
		"0:2.0,2.0,1.0,1.0,1.0,0.0,",
		"0:2.0,2.0,1.0,1.0,2.0,",
		"4:4.0,4.5,5.0,5.0,5.0,", // ⟨c3⁵ c2⁶ c1⁷ c1⁸ c2⁹⟩
		"5:6.0,5.0,5.0,5.0,",     // ⟨c3⁶ c1⁷ c1⁸ c2⁹⟩
		"8:2.0,2.0,1.0,1.0,",     // ⟨c1⁹ c2¹⁰ c1¹¹ c1¹²⟩
	}
	if got := signatures(s.Crowds()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after batch 2:\n got %v\nwant %v", got, want)
	}
	if s.Ticks() != 12 {
		t.Fatalf("Ticks = %d", s.Ticks())
	}
}

// buildFull concatenates row batches into one CDB for from-scratch runs.
func buildFull(batches [][][]float64) *snapshot.CDB {
	full := &snapshot.CDB{Domain: trajectory.TimeDomain{Step: 1}}
	tick := trajectory.Tick(0)
	for _, rows := range batches {
		full.Append(cdbFromRows(tick, rows))
		tick += trajectory.Tick(len(rows))
	}
	return full
}

func randRows(r *rand.Rand, ticks int) [][]float64 {
	rows := make([][]float64, ticks)
	for t := range rows {
		n := r.Intn(4)
		seen := map[float64]bool{}
		for i := 0; i < n; i++ {
			y := float64(r.Intn(6))
			if !seen[y] {
				seen[y] = true
				rows[t] = append(rows[t], y)
			}
		}
	}
	return rows
}

func TestIncrementalMatchesScratchRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		nBatches := 2 + r.Intn(4)
		batches := make([][][]float64, nBatches)
		for i := range batches {
			batches[i] = randRows(r, 2+r.Intn(6))
		}
		cp := crowd.Params{MC: 1, KC: 2 + r.Intn(2), Delta: 1.0}
		gp := gathering.Params{KC: cp.KC, KP: 1 + r.Intn(2), MP: 1}

		// Incremental: feed batch by batch. Note each batch must be built
		// from the same global cluster objects as the from-scratch run, so
		// build the full CDB first and slice it.
		full := buildFull(batches)
		s := newStore(t, cp, gp)
		tick := 0
		for _, rows := range batches {
			n := len(rows)
			batch := full.Slice(trajectory.Tick(tick), n)
			s.Append(&snapshot.CDB{Domain: batch.Domain, Clusters: batch.Clusters})
			tick += n
		}

		res := crowd.Discover(full, cp, &crowd.GridSearcher{Delta: cp.Delta})
		want := signatures(res.Crowds)
		got := signatures(s.Crowds())
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: crowds differ\n got %v\nwant %v", trial, got, want)
		}

		// Gatherings must also match a full TAD* run per crowd.
		wantG := map[string][][2]int{}
		for _, cr := range res.Crowds {
			var sig [][2]int
			for _, g := range gathering.TADStar(cr, gp) {
				sig = append(sig, [2]int{g.Lo, g.Hi})
			}
			wantG[signature(cr)] = sig
		}
		crowds := s.Crowds()
		gathers := s.Gatherings()
		for i, cr := range crowds {
			var sig [][2]int
			for _, g := range gathers[i] {
				sig = append(sig, [2]int{g.Lo, g.Hi})
			}
			if !reflect.DeepEqual(sig, wantG[signature(cr)]) {
				t.Fatalf("trial %d: gatherings of %s differ: got %v want %v",
					trial, signature(cr), sig, wantG[signature(cr)])
			}
		}
	}
}

// TestRetainedAnswersNeverChange holds every answer a reader could have
// kept — each crowd and gathering list Crowds and Gatherings return after
// each Append of a randomized stream — and checks at the end of the
// stream that none of them changed. Tail candidates are handed out as the
// store holds them and later Appends resume discovery from those very
// nodes, so any in-place write to a crowd or gathering shows up here. Each
// held cluster's contents are recorded by value too, so a write through
// any alias of its arrays shows up as well.
func TestRetainedAnswersNeverChange(t *testing.T) {
	type gatherRec struct {
		g      *gathering.Gathering
		lo, hi int
		parts  []trajectory.ObjectID
	}
	type clusterRec struct {
		t    trajectory.Tick
		objs []trajectory.ObjectID
		pts  []geo.Point
		mbr  geo.Rect
	}
	type crowdRec struct {
		c        *crowd.Crowd
		start    trajectory.Tick
		lifetime int
		clusters []*snapshot.Cluster
		values   []clusterRec
		gathers  []gatherRec
	}
	valueOf := func(cl *snapshot.Cluster) clusterRec {
		return clusterRec{cl.T, append([]trajectory.ObjectID(nil), cl.Objects...),
			append([]geo.Point(nil), cl.Points...), cl.MBR()}
	}
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		nBatches := 2 + r.Intn(4)
		batches := make([][][]float64, nBatches)
		for i := range batches {
			batches[i] = randRows(r, 2+r.Intn(6))
		}
		cp := crowd.Params{MC: 1, KC: 2 + r.Intn(2), Delta: 1.0}
		gp := gathering.Params{KC: cp.KC, KP: 1 + r.Intn(2), MP: 1}

		full := buildFull(batches)
		s := newStore(t, cp, gp)
		var held []crowdRec
		tick := 0
		for _, rows := range batches {
			batch := full.Slice(trajectory.Tick(tick), len(rows))
			s.Append(&snapshot.CDB{Domain: batch.Domain, Clusters: batch.Clusters})
			tick += len(rows)
			gathers := s.Gatherings()
			for i, c := range s.Crowds() {
				rec := crowdRec{c: c, start: c.Start, lifetime: c.Lifetime()}
				for k := 0; k < c.Lifetime(); k++ {
					rec.clusters = append(rec.clusters, c.At(k))
					rec.values = append(rec.values, valueOf(c.At(k)))
				}
				for _, g := range gathers[i] {
					rec.gathers = append(rec.gathers, gatherRec{g, g.Lo, g.Hi,
						append([]trajectory.ObjectID(nil), g.Participators...)})
				}
				held = append(held, rec)
			}
		}

		for _, rec := range held {
			c := rec.c
			if c.Start != rec.start || c.Lifetime() != rec.lifetime {
				t.Fatalf("trial %d: held crowd of start %d lifetime %d became start %d lifetime %d",
					trial, rec.start, rec.lifetime, c.Start, c.Lifetime())
			}
			for k, cl := range rec.clusters {
				if c.At(k) != cl || c.Clusters()[k] != cl {
					t.Fatalf("trial %d: held crowd at tick %d changed its cluster at position %d", trial, rec.start, k)
				}
				if got := valueOf(cl); !reflect.DeepEqual(got, rec.values[k]) {
					t.Fatalf("trial %d: held cluster at tick %d changed from %+v to %+v", trial, cl.T, rec.values[k], got)
				}
			}
			for _, g := range rec.gathers {
				if g.g.Lo != g.lo || g.g.Hi != g.hi || !reflect.DeepEqual(g.g.Participators, g.parts) {
					t.Fatalf("trial %d: held gathering [%d,%d) %v became [%d,%d) %v", trial,
						g.lo, g.hi, g.parts, g.g.Lo, g.g.Hi, g.g.Participators)
				}
			}
		}
	}
}

func TestStoreGatheringAccessors(t *testing.T) {
	cp := crowd.Params{MC: 1, KC: 2, Delta: 1.0}
	gp := gathering.Params{KC: 2, KP: 2, MP: 1}
	s := newStore(t, cp, gp)
	// One committed object present at every tick (clusterAt mints fresh
	// objects, so build these clusters by hand).
	cdb := &snapshot.CDB{
		Domain:   trajectory.TimeDomain{Step: 1, N: 3},
		Clusters: make([][]*snapshot.Cluster, 3),
	}
	for tt := 0; tt < 3; tt++ {
		cdb.Clusters[tt] = []*snapshot.Cluster{snapshot.NewCluster(
			trajectory.Tick(tt),
			[]trajectory.ObjectID{7},
			[]geo.Point{{X: 0, Y: 0}},
		)}
	}
	s.Append(cdb)
	crowds := s.Crowds()
	if len(crowds) != 1 {
		t.Fatalf("crowds = %v", signatures(crowds))
	}
	gs := s.Gatherings()
	if len(gs) != 1 {
		t.Fatalf("gathering groups = %d", len(gs))
	}
	flat := s.FlatGatherings()
	if len(flat) == 0 {
		t.Fatal("no gatherings found for a stable single-object chain")
	}
}

func TestEmptyBatch(t *testing.T) {
	cp := crowd.Params{MC: 1, KC: 2, Delta: 1.0}
	gp := gathering.Params{KC: 2, KP: 1, MP: 1}
	s := newStore(t, cp, gp)
	s.Append(cdbFromRows(0, [][]float64{{0}, {0}}))
	before := signatures(s.Crowds())
	s.Append(&snapshot.CDB{Domain: trajectory.TimeDomain{Step: 1, N: 0}})
	after := signatures(s.Crowds())
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("empty batch changed results: %v -> %v", before, after)
	}
}
