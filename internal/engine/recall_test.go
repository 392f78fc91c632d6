package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/experiments"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/incremental"
	"repro/internal/trajectory"
)

// recallPipeline is the ROADMAP scenario's parameter setting (the paper's
// thresholds scaled to a 400-taxi synthetic day).
func recallPipeline() core.Config {
	return core.Config{
		Eps: 200, MinPts: 5,
		MC: 10, KC: 10, Delta: 300,
		KP: 8, MP: 8,
		Searcher: "grid",
	}
}

// gatheringSigs canonicalises a gathering list for set comparison: span
// plus sorted participators identify a gathering.
func gatheringSigs(gs []*gathering.Gathering) []string {
	out := make([]string, 0, len(gs))
	for _, g := range gs {
		out = append(out, fmt.Sprintf("%d-%d:%v", g.Crowd.Start, g.Crowd.End(), g.Participators))
	}
	sort.Strings(out)
	return out
}

// recallDay is the ROADMAP recall day: 400 taxis, 144 ticks, seed 3.
func recallDay() *trajectory.DB {
	cfg := gen.Default()
	cfg.NumTaxis = 400
	cfg.TicksPerDay = 144
	cfg.Seed = 3
	return gen.Generate(cfg)
}

// randomSplit cuts db into consecutive batches of 1 to 24 ticks.
func randomSplit(db *trajectory.DB, rng *rand.Rand) []*trajectory.DB {
	var out []*trajectory.DB
	for from := 0; from < db.Domain.N; {
		n := min(1+rng.Intn(24), db.Domain.N-from)
		out = append(out, db.SliceTicks(trajectory.Tick(from), n))
		from += n
	}
	return out
}

// answerSigs renders closed crowds, in order, with their gatherings: span,
// per-tick membership and each gathering's span and participators.
func answerSigs(crowds []*crowd.Crowd, gathers [][]*gathering.Gathering) []string {
	out := make([]string, len(crowds))
	for i, cr := range crowds {
		sig := fmt.Sprintf("%d:", cr.Start)
		for _, cl := range cr.Clusters() {
			sig += fmt.Sprintf("%v", cl.Objects)
		}
		out[i] = sig + fmt.Sprint(gatheringSigs(gathers[i]))
	}
	return out
}

// matchStore feeds batches to an engine built from cfg and to one
// incremental.Store, requires the engine to answer exactly what the store
// does — the same tick frontier and the same closed crowds, in
// crowd.Compare order, with the same gatherings — and returns the store.
func matchStore(t *testing.T, cfg Config, batches []*trajectory.DB) *incremental.Store {
	t.Helper()
	pipe := cfg.Pipeline
	st, err := incremental.New(
		crowd.Params{MC: pipe.MC, KC: pipe.KC, Delta: pipe.Delta},
		gathering.Params{KC: pipe.KC, KP: pipe.KP, MP: pipe.MP},
		pipe.SearcherFactory(),
	)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, b := range batches {
		st.Append(core.BuildCDB(b, pipe))
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	crowds, gathers := st.Crowds(), st.Gatherings()
	idx := make([]int, len(crowds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return crowd.Compare(crowds[idx[a]], crowds[idx[b]]) < 0 })
	wantCrowds := make([]*crowd.Crowd, len(idx))
	wantGathers := make([][]*gathering.Gathering, len(idx))
	for k, i := range idx {
		wantCrowds[k], wantGathers[k] = crowds[i], gathers[i]
	}

	res := e.Snapshot(Query{})
	if res.Ticks != st.Ticks() || e.Ticks() != st.Ticks() {
		t.Fatalf("engine at %d ticks (Ticks() %d), store at %d", res.Ticks, e.Ticks(), st.Ticks())
	}
	got, want := answerSigs(res.Crowds, res.Gatherings), answerSigs(wantCrowds, wantGathers)
	if !slices.Equal(got, want) {
		t.Fatalf("engine answer differs from the store over %d batches:\n got %v\nwant %v", len(batches), got, want)
	}
	return st
}

// TestEngineMatchesStore is the engine's parity property: under seeded
// random batch splits and Workers from 1 to 4, an engine answers exactly
// what one incremental.Store answers when fed the same batches (see
// matchStore). The inputs are the recall day, on which the store finds
// the ROADMAP scenario's 10 gatherings under every split (Theorem 2), and
// a small clear-weather day.
func TestEngineMatchesStore(t *testing.T) {
	inputs := []struct {
		name       string
		pipe       core.Config
		db         *trajectory.DB
		gatherings int // gatherings the store finds; -1 for any but none
	}{
		{"recall", recallPipeline(), recallDay(), 10},
		{"clear", testPipeline(), experiments.Workload(experiments.Scale{Taxis: 200, TicksPerDay: 96, Seed: 1}, gen.Clear), -1},
	}
	for _, in := range inputs {
		for seed := int64(1); seed <= 8; seed++ {
			batches := randomSplit(in.db, rand.New(rand.NewSource(seed)))
			workers := 1 + int(seed-1)%4
			t.Run(fmt.Sprintf("%s/seed=%d/workers=%d", in.name, seed, workers), func(t *testing.T) {
				st := matchStore(t, Config{Pipeline: in.pipe, Workers: workers}, batches)
				if n := len(st.FlatGatherings()); n == 0 || in.gatherings >= 0 && n != in.gatherings {
					t.Fatalf("the store found %d gatherings over %d batches, want %d", n, len(batches), in.gatherings)
				}
			})
		}
	}
}

// TestSingleShardMatchesStore checks that the engine is exactly the
// incremental algorithm on a fixed split: a clear 200-taxi day in four
// batches gives the same frontier, crowds and gatherings as a directly
// driven incremental.Store.
func TestSingleShardMatchesStore(t *testing.T) {
	st := matchStore(t, Config{Pipeline: testPipeline()}, testWorkload(t, 200, 96, 4))
	if len(st.Crowds()) == 0 {
		t.Fatal("workload produced no crowds; test is vacuous")
	}
}

// TestShardedRecallParity: the recall day in 16-tick batches yields the
// store's answer, with its 10 gatherings, at per-tick DBSCAN parallelism
// (Workers) 1 to 16. Each case keeps the name it had when the engine
// could split into that many stores, so a run selected by name still
// finds it.
func TestShardedRecallParity(t *testing.T) {
	batches := recallDay().Batches(16)
	for _, n := range []int{1, 2, 4, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			st := matchStore(t, Config{Pipeline: recallPipeline(), Workers: n}, batches)
			if got := len(st.FlatGatherings()); got != 10 {
				t.Fatalf("found %d gatherings, the ROADMAP scenario has 10", got)
			}
		})
	}
}

// TestZeroConfigRecallParity: an engine configured with nothing but its
// pipeline yields the store's answer, with its 10 gatherings, on the
// recall day fed in batches of 2 to 16 ticks. Each case keeps the name it
// had when the engine could split into that many stores, so a run
// selected by name still finds it.
func TestZeroConfigRecallParity(t *testing.T) {
	db := recallDay()
	for _, n := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			st := matchStore(t, Config{Pipeline: recallPipeline()}, db.Batches(n))
			if got := len(st.FlatGatherings()); got != 10 {
				t.Fatalf("found %d gatherings over %d-tick batches, the ROADMAP scenario has 10", got, n)
			}
		})
	}
}

// TestSnapshotLimitDeterministic checks that Limit truncates the
// deterministically-sorted result: for every k, the Limit-k answer is the
// prefix of the full answer.
func TestSnapshotLimitDeterministic(t *testing.T) {
	sites := []geo.Point{
		{X: 1000, Y: 1000}, {X: 40000, Y: 1000},
		{X: 1000, Y: 40000}, {X: 40000, Y: 40000}, {X: 80000, Y: 80000},
	}
	db := parkedDB(sites, 12, 24)
	e, err := New(Config{Pipeline: testPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, b := range db.Batches(12) {
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	full := e.Snapshot(Query{})
	if len(full.Crowds) != len(sites) {
		t.Fatalf("found %d crowds, want one per site (%d)", len(full.Crowds), len(sites))
	}
	if full.Ticks != db.Domain.N {
		t.Fatalf("Ticks = %d after flush, want %d", full.Ticks, db.Domain.N)
	}
	for i := 1; i < len(full.Crowds); i++ {
		if crowd.Compare(full.Crowds[i-1], full.Crowds[i]) >= 0 {
			t.Fatalf("snapshot not sorted at %d: %v !< %v", i, full.Crowds[i-1], full.Crowds[i])
		}
	}
	for k := 1; k <= len(full.Crowds); k++ {
		res := e.Snapshot(Query{Limit: k})
		if len(res.Crowds) != k {
			t.Fatalf("Limit %d returned %d crowds", k, len(res.Crowds))
		}
		for i, cr := range res.Crowds {
			if crowd.Compare(cr, full.Crowds[i]) != 0 {
				t.Fatalf("Limit %d result[%d] = %v, want prefix of full answer (%v)",
					k, i, cr, full.Crowds[i])
			}
		}
	}
}
