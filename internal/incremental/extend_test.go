package incremental

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// stableCDB builds a CDB with persistent membership: each row y carries a
// committed core of objects (present with probability stay) plus
// never-recurring churn, and adjacent rows sit within the crowd δ, so
// long-lived crowds branch, merge and keep real gatherings alive across
// batches — the regime the detector cache and Theorem-2 update serve.
func stableCDB(r *rand.Rand, ticks, rows, core, churn int, stay, rowP float64) *snapshot.CDB {
	cdb := &snapshot.CDB{
		Domain:   trajectory.TimeDomain{Step: 1, N: ticks},
		Clusters: make([][]*snapshot.Cluster, ticks),
	}
	next := trajectory.ObjectID(rows * 1000)
	for t := 0; t < ticks; t++ {
		for y := 0; y < rows; y++ {
			if r.Float64() > rowP {
				continue
			}
			var ids []trajectory.ObjectID
			for c := 0; c < core; c++ {
				if r.Float64() < stay {
					ids = append(ids, trajectory.ObjectID(y*1000+c))
				}
			}
			for c := 0; c < 1+r.Intn(churn+1); c++ {
				ids = append(ids, next)
				next++
			}
			pts := make([]geo.Point, len(ids))
			for i := range pts {
				pts[i] = geo.Point{X: float64(i % core), Y: float64(y)}
			}
			cdb.Clusters[t] = append(cdb.Clusters[t],
				snapshot.NewCluster(trajectory.Tick(t), ids, pts))
		}
	}
	return cdb
}

// TestStoreDetectorReuseMatchesScratchRandomized is the store-level half
// of the detector-cache property: appending random batches of a
// persistent-membership stream — where crowds live for many batches,
// branch, and carry non-trivial participator sets — must yield exactly the
// crowds and gatherings of a from-scratch discovery plus fresh TAD* per
// crowd. This drives RunIncremental over extended (and cloned) detectors
// on every batch, unlike the fresh-object randomized test above, whose
// participator structure is degenerate.
func TestStoreDetectorReuseMatchesScratchRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(431))
	for trial := 0; trial < 20; trial++ {
		// Two rows within δ of each other make candidates branch whenever
		// both rows are present at consecutive ticks; rowP and the tick
		// count are kept moderate because each branch doubles the
		// candidate set (Algorithm 1 is exponential in sustained overlap —
		// true of the old representation too).
		ticks := 12 + r.Intn(9)
		full := stableCDB(r, ticks, 1+r.Intn(2), 3+r.Intn(4), 2, 0.5+0.45*r.Float64(), 0.6)
		cp := crowd.Params{MC: 1, KC: 2 + r.Intn(3), Delta: 1.5}
		gp := gathering.Params{KC: cp.KC, KP: 2 + r.Intn(3), MP: 1 + r.Intn(3)}

		s := newStore(t, cp, gp)
		tick := 0
		for tick < ticks {
			n := 1 + r.Intn(6)
			if tick+n > ticks {
				n = ticks - tick
			}
			batch := full.Slice(trajectory.Tick(tick), n)
			s.Append(&snapshot.CDB{Domain: batch.Domain, Clusters: batch.Clusters})
			tick += n
		}

		res := crowd.Discover(full, cp, &crowd.GridSearcher{Delta: cp.Delta})
		if got, want := signatures(s.Crowds()), signatures(res.Crowds); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: crowds differ\n got %v\nwant %v", trial, got, want)
		}

		wantG := map[string][][2]int{}
		for _, cr := range res.Crowds {
			var sig [][2]int
			for _, g := range gathering.TADStar(cr, gp) {
				sig = append(sig, [2]int{g.Lo, g.Hi})
			}
			wantG[signature(cr)] = sig
		}
		crowds, gathers := s.Crowds(), s.Gatherings()
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

// appendBatches applies batches [from, to) of a pre-sliced stream.
func appendBatches(s *Store, full *snapshot.CDB, batchTicks, from, to int) {
	for b := from; b < to; b++ {
		batch := full.Slice(trajectory.Tick(b*batchTicks), batchTicks)
		s.Append(&snapshot.CDB{Domain: batch.Domain, Clusters: batch.Clusters})
	}
}

// TestAppendAllocsFlatAsHistoryGrows guards the tentpole invariant: the
// allocation count of appending one fixed-size batch must not scale with
// the length of the history already ingested. Before the persistent-crowd
// and extendable-detector rework, every Append re-copied each surviving
// chain (O(lifetime) per extension) and rebuilt each tail detector
// (O(lifetime × objects)), so the deep-history append allocated roughly
// linearly more; now both extend in place. Reading the answer back with
// Crowds must allocate nothing at all.
func TestAppendAllocsFlatAsHistoryGrows(t *testing.T) {
	const batchTicks, measured = 8, 4
	shallowBatches, deepBatches := 2, 24
	total := deepBatches + measured
	r := rand.New(rand.NewSource(7))
	full := stableCDB(r, total*batchTicks, 1, 24, 4, 0.9, 1.0)
	cp := crowd.Params{MC: 1, KC: 4, Delta: 1.5}
	gp := gathering.Params{KC: 4, KP: 6, MP: 4}

	measure := func(history int) float64 {
		s := newStore(t, cp, gp)
		appendBatches(s, full, batchTicks, 0, history)
		b := history
		n := testing.AllocsPerRun(measured-1, func() {
			// Each call appends the next batch; the average covers
			// histories [history, history+measured).
			appendBatches(s, full, batchTicks, b, b+1)
			b++
		})
		if len(s.Crowds()) == 0 {
			t.Fatal("no crowds found; workload is degenerate")
		}
		if c := testing.AllocsPerRun(100, func() { s.Crowds() }); c != 0 {
			t.Fatalf("Store.Crowds allocates %.1f times per call, want 0", c)
		}
		return n
	}

	shallow := measure(shallowBatches)
	deep := measure(deepBatches)
	if shallow == 0 {
		t.Fatal("no allocations measured; workload is degenerate")
	}
	if ratio := deep / shallow; ratio > 2.5 {
		t.Fatalf("append allocations grow with history: %.0f at %d batches vs %.0f at %d batches (%.1fx, want ≤ 2.5x)",
			deep, deepBatches, shallow, shallowBatches, ratio)
	}
}

// TestCompactAllocs: compacting a final crowd of L clusters with g
// gatherings allocates a summary per cluster, the new crowd (its node and
// memo), a gathering and a sub-crowd (node and memo) per gathering, and
// the two slices: L+3g+4. It copies and writes nothing; summaries already
// memoised are not made again.
func TestCompactAllocs(t *testing.T) {
	s := gatheringStore(t)
	cr, gs := s.tail[0], s.tailGathers[s.tail[0]]
	L, g := cr.Lifetime(), len(gs)
	if g == 0 {
		t.Fatal("seed crowd has no gatherings")
	}
	// The presized memo is one more allocation unless escape analysis
	// keeps it on the stack.
	if n := testing.AllocsPerRun(20, func() { make(summaries, L).compact(cr, gs) }); n != float64(L+3*g+4) && n != float64(L+3*g+5) {
		t.Fatalf("compact with a cold memo allocates %.0f times, want %d, or %d with the memo", n, L+3*g+4, L+3*g+5)
	}
	warm := summaries{}
	warm.compact(cr, gs)
	if n := testing.AllocsPerRun(20, func() { warm.compact(cr, gs) }); n != float64(3*g+4) {
		t.Fatalf("compact with a warm memo allocates %.0f times, want %d", n, 3*g+4)
	}
}
