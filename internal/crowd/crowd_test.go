package crowd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// ---- helpers ----------------------------------------------------------

var nextObj trajectory.ObjectID

// clusterAt builds a single-point cluster at (0, y) for tick t; with δ = 1
// two such clusters are "close" iff their rows differ by at most 1, which
// is exactly the adjacency convention of the paper's Figure 2.
func clusterAt(t trajectory.Tick, y float64) *snapshot.Cluster {
	nextObj++
	return snapshot.NewCluster(t,
		[]trajectory.ObjectID{nextObj},
		[]geo.Point{{X: 0, Y: y}})
}

// cdbFromRows builds a CDB where rows[t] lists the y-coordinates of the
// clusters present at tick t.
func cdbFromRows(rows [][]float64) *snapshot.CDB {
	cdb := &snapshot.CDB{
		Domain:   trajectory.TimeDomain{Step: 1, N: len(rows)},
		Clusters: make([][]*snapshot.Cluster, len(rows)),
	}
	for t, ys := range rows {
		for _, y := range ys {
			cdb.Clusters[t] = append(cdb.Clusters[t], clusterAt(trajectory.Tick(t), y))
		}
	}
	return cdb
}

// signature renders a crowd as "start:y1,y2,..." for order-insensitive
// comparison.
func signature(c *Crowd) string {
	s := fmt.Sprintf("%d:", c.Start)
	for _, cl := range c.Clusters() {
		s += fmt.Sprintf("%.1f,", cl.Points[0].Y)
	}
	return s
}

func signatures(cs []*Crowd) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = signature(c)
	}
	sort.Strings(out)
	return out
}

// ---- paper Figure 2 ----------------------------------------------------

// figure2CDB encodes the adjacency structure of Fig. 2a using rows; see
// the derivation in the test below. Ticks are 0-based (paper t1 ↔ tick 0).
func figure2CDB() *snapshot.CDB {
	return cdbFromRows([][]float64{
		{2},         // t1: c1¹
		{2, 3},      // t2: c1², c2²
		{1, 3},      // t3: c1³, c2³
		{1},         // t4: c1⁴
		{1, 2, 4},   // t5: c1⁵, c2⁵, c3⁵
		{0, 4.5, 6}, // t6: c1⁶, c2⁶, c3⁶
		{5},         // t7: c1⁷
		{5},         // t8: c1⁸
	})
}

func TestDiscoverFigure2(t *testing.T) {
	cdb := figure2CDB()
	p := Params{MC: 1, KC: 4, Delta: 1.0}
	res := Discover(cdb, p, &BruteSearcher{Delta: p.Delta})

	// Expected closed crowds from Fig. 2b:
	//   ⟨c1¹ c1² c1³ c1⁴ c2⁵⟩          rows 2,2,1,1,2  starting tick 0
	//   ⟨c1¹ c1² c1³ c1⁴ c1⁵ c1⁶⟩      rows 2,2,1,1,1,0 starting tick 0
	//   ⟨c3⁵ c2⁶ c1⁷ c1⁸⟩              rows 4,4.5,5,5   starting tick 4
	want := []string{
		"0:2.0,2.0,1.0,1.0,1.0,0.0,",
		"0:2.0,2.0,1.0,1.0,2.0,",
		"4:4.0,4.5,5.0,5.0,",
	}
	got := signatures(res.Crowds)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("closed crowds:\n got %v\nwant %v", got, want)
	}

	// The tail (saved state CS for incremental extension, Example 4) must
	// contain exactly the candidates alive after t8: ⟨c3⁵ c2⁶ c1⁷ c1⁸⟩ and
	// ⟨c3⁶ c1⁷ c1⁸⟩.
	wantTail := []string{
		"4:4.0,4.5,5.0,5.0,",
		"5:6.0,5.0,5.0,",
	}
	if gotTail := signatures(res.Tail); !reflect.DeepEqual(gotTail, wantTail) {
		t.Fatalf("tail:\n got %v\nwant %v", gotTail, wantTail)
	}
}

func TestDiscoverFigure2AllSearchers(t *testing.T) {
	p := Params{MC: 1, KC: 4, Delta: 1.0}
	ref := Discover(figure2CDB(), p, &BruteSearcher{Delta: p.Delta})
	for _, name := range []string{"sr", "ir", "grid"} {
		s, err := NewSearcher(name, p.Delta)
		if err != nil {
			t.Fatal(err)
		}
		res := Discover(figure2CDB(), p, s)
		if !reflect.DeepEqual(signatures(res.Crowds), signatures(ref.Crowds)) {
			t.Fatalf("%s: crowds differ from brute force", name)
		}
	}
}

// ---- parameter handling -------------------------------------------------

func TestParamsValidate(t *testing.T) {
	if err := (Params{MC: 1, KC: 1, Delta: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{MC: 0, KC: 1, Delta: 1},
		{MC: 1, KC: 0, Delta: 1},
		{MC: 1, KC: 1, Delta: 0},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("%+v accepted", p)
		}
	}
}

func TestNewSearcher(t *testing.T) {
	for _, name := range []string{"brute", "sr", "ir", "grid"} {
		if _, err := NewSearcher(name, 10); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := NewSearcher("nope", 10); err == nil {
		t.Fatal("unknown searcher accepted")
	}
}

func TestCrowdAccessors(t *testing.T) {
	c := New(5, []*snapshot.Cluster{clusterAt(5, 0), clusterAt(6, 0)})
	if c.Lifetime() != 2 || c.End() != 6 {
		t.Fatalf("Lifetime=%d End=%d", c.Lifetime(), c.End())
	}
	if got := c.String(); got != "Cr[5..6]" {
		t.Fatalf("String = %q", got)
	}
	e := c.extend(clusterAt(7, 0))
	if e.Lifetime() != 3 || c.Lifetime() != 2 {
		t.Fatal("extend mutated receiver or failed")
	}
}

// ---- support threshold --------------------------------------------------

func TestDiscoverSupportThreshold(t *testing.T) {
	// Three ticks of one stationary 2-object cluster: a crowd for mc ≤ 2,
	// nothing for mc = 3.
	mk := func() *snapshot.CDB {
		cdb := &snapshot.CDB{
			Domain:   trajectory.TimeDomain{Step: 1, N: 3},
			Clusters: make([][]*snapshot.Cluster, 3),
		}
		for tt := 0; tt < 3; tt++ {
			cdb.Clusters[tt] = []*snapshot.Cluster{snapshot.NewCluster(
				trajectory.Tick(tt),
				[]trajectory.ObjectID{1, 2},
				[]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}},
			)}
		}
		return cdb
	}
	res := Discover(mk(), Params{MC: 2, KC: 3, Delta: 5}, &BruteSearcher{Delta: 5})
	if len(res.Crowds) != 1 {
		t.Fatalf("mc=2: %d crowds", len(res.Crowds))
	}
	res = Discover(mk(), Params{MC: 3, KC: 3, Delta: 5}, &BruteSearcher{Delta: 5})
	if len(res.Crowds) != 0 {
		t.Fatalf("mc=3: %d crowds", len(res.Crowds))
	}
}

func TestDiscoverLifetimeThreshold(t *testing.T) {
	// A 3-tick chain: kc=4 finds nothing, kc=3 finds one.
	cdb := cdbFromRows([][]float64{{0}, {0}, {0}})
	if res := Discover(cdb, Params{MC: 1, KC: 4, Delta: 1}, &BruteSearcher{Delta: 1}); len(res.Crowds) != 0 {
		t.Fatalf("kc=4 found %d", len(res.Crowds))
	}
	cdb = cdbFromRows([][]float64{{0}, {0}, {0}})
	if res := Discover(cdb, Params{MC: 1, KC: 3, Delta: 1}, &BruteSearcher{Delta: 1}); len(res.Crowds) != 1 {
		t.Fatalf("kc=3 found %d", len(res.Crowds))
	}
}

func TestDiscoverEmptyCDB(t *testing.T) {
	cdb := &snapshot.CDB{Domain: trajectory.TimeDomain{Step: 1, N: 0}}
	res := Discover(cdb, Params{MC: 1, KC: 1, Delta: 1}, &BruteSearcher{Delta: 1})
	if len(res.Crowds) != 0 || len(res.Tail) != 0 {
		t.Fatal("empty CDB produced results")
	}
}

func TestDiscoverGapBreaksCrowd(t *testing.T) {
	// Chain with a tick that has no clusters: two separate crowds.
	cdb := cdbFromRows([][]float64{{0}, {0}, {}, {0}, {0}})
	res := Discover(cdb, Params{MC: 1, KC: 2, Delta: 1}, &BruteSearcher{Delta: 1})
	if len(res.Crowds) != 2 {
		t.Fatalf("%d crowds, want 2", len(res.Crowds))
	}
}

// ---- randomized cross-validation ---------------------------------------

// randomCDB builds a CDB of single-point clusters on an integer row grid,
// which keeps Hausdorff distances exact and the brute-force enumeration
// tractable.
func randomCDB(r *rand.Rand, ticks, maxPerTick int) *snapshot.CDB {
	rows := make([][]float64, ticks)
	for t := range rows {
		n := r.Intn(maxPerTick + 1)
		seen := map[float64]bool{}
		for i := 0; i < n; i++ {
			y := float64(r.Intn(8))
			if !seen[y] {
				seen[y] = true
				rows[t] = append(rows[t], y)
			}
		}
	}
	return cdbFromRows(rows)
}

// bruteClosedCrowds enumerates every maximal consecutive cluster sequence
// with pairwise-consecutive distance ≤ δ via DFS and keeps the closed ones
// of length ≥ kc.
func bruteClosedCrowds(cdb *snapshot.CDB, p Params) []string {
	n := len(cdb.Clusters)
	close := func(a, b *snapshot.Cluster) bool {
		return geo.WithinHausdorff(a.Points, b.Points, p.Delta)
	}
	eligible := func(t int) []*snapshot.Cluster {
		var out []*snapshot.Cluster
		if t < 0 || t >= n {
			return nil
		}
		for _, c := range cdb.Clusters[t] {
			if c.Len() >= p.MC {
				out = append(out, c)
			}
		}
		return out
	}
	var out []string
	var dfs func(seq []*snapshot.Cluster, start int)
	dfs = func(seq []*snapshot.Cluster, start int) {
		t := start + len(seq)
		ext := false
		for _, c := range eligible(t) {
			if close(seq[len(seq)-1], c) {
				ext = true
				dfs(append(seq[:len(seq):len(seq)], c), start)
			}
		}
		if !ext && len(seq) >= p.KC {
			// check backward closedness
			for _, c := range eligible(start - 1) {
				if close(c, seq[0]) {
					return // has a super-crowd through the left
				}
			}
			cr := New(trajectory.Tick(start), seq)
			out = append(out, signature(cr))
		}
	}
	for t := 0; t < n; t++ {
		for _, c := range eligible(t) {
			dfs([]*snapshot.Cluster{c}, t)
		}
	}
	sort.Strings(out)
	// dedupe (the same closed crowd can be reached from suffix starts; a
	// suffix start is filtered by backward closedness, but identical
	// sequences can still occur if DFS revisits)
	uniq := out[:0]
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			uniq = append(uniq, s)
		}
	}
	return uniq
}

func TestDiscoverMatchesBruteEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		cdb := randomCDB(r, 6+r.Intn(5), 4)
		p := Params{MC: 1, KC: 2 + r.Intn(2), Delta: 1.0}
		want := bruteClosedCrowds(cdb, p)
		for _, name := range []string{"brute", "sr", "ir", "grid"} {
			s, _ := NewSearcher(name, p.Delta)
			res := Discover(cdb, p, s)
			got := signatures(res.Crowds)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d searcher %s:\n got %v\nwant %v", trial, name, got, want)
			}
		}
	}
}

func TestDiscoveredCrowdsSatisfyDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 20; trial++ {
		cdb := randomCDB(r, 10, 5)
		p := Params{MC: 1, KC: 3, Delta: 1.0}
		res := Discover(cdb, p, &GridSearcher{Delta: p.Delta})
		for _, cr := range res.Crowds {
			if cr.Lifetime() < p.KC {
				t.Fatalf("crowd too short: %v", cr)
			}
			cls := cr.Clusters()
			for i, cl := range cls {
				if cl.Len() < p.MC {
					t.Fatalf("cluster below mc in %v", cr)
				}
				if cl.T != cr.Start+trajectory.Tick(i) {
					t.Fatalf("non-consecutive ticks in %v", cr)
				}
				if i > 0 && !geo.WithinHausdorff(cls[i-1].Points, cl.Points, p.Delta) {
					t.Fatalf("consecutive clusters too far in %v", cr)
				}
			}
		}
	}
}

func TestSearcherStats(t *testing.T) {
	// SR must examine at least as many candidates as IR on the same data.
	p := Params{MC: 1, KC: 3, Delta: 1.0}
	r := rand.New(rand.NewSource(61))
	cdb := randomCDB(r, 20, 6)
	sr := &SRSearcher{Delta: p.Delta}
	ir := &IRSearcher{Delta: p.Delta}
	Discover(cdb, p, sr)
	Discover(cdb, p, ir)
	if sr.Candidates < ir.Candidates {
		t.Fatalf("SR candidates %d < IR candidates %d", sr.Candidates, ir.Candidates)
	}
	if sr.Results != ir.Results {
		t.Fatalf("result counts differ: SR %d, IR %d", sr.Results, ir.Results)
	}
}

// TestSearchAllocs holds every searcher's Search to zero allocations per
// warmed call: the per-tick sweep runs it once per candidate, so its
// result buffer and the grid index's candidate list must be reused. Each
// searcher is prepared over two ticks and queried with a cluster of the
// earlier one, the sweep's own pattern, so the grid searcher reuses the
// query's decomposition (RangeSearchDecomposed) and refines a candidate
// whose cells differ from the query's.
func TestSearchAllocs(t *testing.T) {
	const delta = 5
	id := trajectory.ObjectID(0)
	blob := func(tk trajectory.Tick, cx, cy float64) *snapshot.Cluster {
		var objs []trajectory.ObjectID
		var pts []geo.Point
		for i := 0; i < 9; i++ {
			id++
			objs = append(objs, id)
			pts = append(pts, geo.Point{X: cx + float64(2*(i%3)), Y: cy + float64(2*(i/3))})
		}
		return snapshot.NewCluster(tk, objs, pts)
	}
	t0 := []*snapshot.Cluster{blob(0, 0, 0), blob(0, 100, 0)}
	t1 := []*snapshot.Cluster{blob(1, 3, 2), blob(1, 100, 40)}
	q := t0[0]
	for _, name := range []string{"brute", "sr", "ir", "grid"} {
		s, err := NewSearcher(name, delta)
		if err != nil {
			t.Fatal(err)
		}
		s.Prepare(t0)
		s.Prepare(t1)
		if g, ok := s.(*GridSearcher); ok {
			if _, ok := g.prev.DecompositionOf(q); !ok {
				t.Fatal("grid: the query's decomposition is not reused from the previous tick")
			}
		}
		if got := s.Search(q); !reflect.DeepEqual(got, []int32{0}) {
			t.Fatalf("%s: Search = %v, want [0]", name, got)
		}
		if n := testing.AllocsPerRun(100, func() { s.Search(q) }); n != 0 {
			t.Errorf("%s: warmed Search allocates %.1f times per call, want 0", name, n)
		}
	}
}
