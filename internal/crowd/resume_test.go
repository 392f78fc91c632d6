package crowd

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// TestDiscoverFromResumeEquivalence checks the contract the incremental
// layer builds on: splitting a sweep at any tick k — running Discover on
// the prefix, then resuming with DiscoverFrom over the suffix alone and the
// saved tail — yields exactly the closed crowds of an uninterrupted sweep.
func TestDiscoverFromResumeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(163))
	for trial := 0; trial < 30; trial++ {
		cdb := randomCDB(r, 8+r.Intn(6), 4)
		p := Params{MC: 1, KC: 2 + r.Intn(2), Delta: 1.0}

		full := Discover(cdb, p, &GridSearcher{Delta: p.Delta})
		want := signatures(full.Crowds)

		n := len(cdb.Clusters)
		k := 1 + r.Intn(n-1)
		prefix := &snapshot.CDB{
			Domain:   trajectory.TimeDomain{Step: 1, N: k},
			Clusters: cdb.Clusters[:k],
		}
		part1 := Discover(prefix, p, &GridSearcher{Delta: p.Delta})

		// closed crowds of the prefix that do NOT end at tick k-1 are
		// final; the rest is re-derived by the resumed sweep
		var merged []*Crowd
		for _, cr := range part1.Crowds {
			if cr.End() != trajectory.Tick(k-1) {
				merged = append(merged, cr)
			}
		}
		part2 := DiscoverFrom(cdb.Slice(trajectory.Tick(k), n-k), trajectory.Tick(k), part1.Tail, p, &GridSearcher{Delta: p.Delta})
		merged = append(merged, part2.Crowds...)

		got := signatures(merged)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d split at %d:\n got %v\nwant %v", trial, k, got, want)
		}

		// the tails must agree too (they seed the NEXT resume)
		if !reflect.DeepEqual(signatures(part2.Tail), signatures(full.Tail)) {
			t.Fatalf("trial %d: tails diverge", trial)
		}
	}
}

// TestGridSearcherDecompReuse pins the decomposition-reuse path: queries
// that come from the previous tick's prepared set must take the cached
// branch and return the same results as a fresh searcher.
func TestGridSearcherDecompReuse(t *testing.T) {
	r := rand.New(rand.NewSource(167))
	cdb := randomCDB(r, 12, 5)
	p := Params{MC: 1, KC: 2, Delta: 1.0}

	a := Discover(cdb, p, &GridSearcher{Delta: p.Delta})
	b := Discover(cdb, p, &BruteSearcher{Delta: p.Delta})
	if !reflect.DeepEqual(signatures(a.Crowds), signatures(b.Crowds)) {
		t.Fatal("grid searcher with decomposition reuse diverges from brute force")
	}

	// Directly: prepare tick t, then tick t+1, and query a tick-t cluster.
	var t0, t1 []*snapshot.Cluster
	for tick := 0; tick+1 < len(cdb.Clusters); tick++ {
		if len(cdb.Clusters[tick]) > 0 && len(cdb.Clusters[tick+1]) > 0 {
			t0, t1 = cdb.Clusters[tick], cdb.Clusters[tick+1]
			break
		}
	}
	if t0 == nil {
		t.Skip("no adjacent non-empty ticks in random CDB")
	}
	warm := &GridSearcher{Delta: p.Delta}
	warm.Prepare(t0)
	warm.Prepare(t1)
	cold := &GridSearcher{Delta: p.Delta}
	cold.Prepare(t1)
	for _, q := range t0 {
		got := append([]int32(nil), warm.Search(q)...)
		want := append([]int32(nil), cold.Search(q)...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cached decomposition path differs: %v vs %v", got, want)
		}
	}
}
