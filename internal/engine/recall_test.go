package engine

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/incremental"
	"repro/internal/stats"
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

// recallDay returns the ROADMAP recall day (400 taxis, 144 ticks, seed 3)
// in 16-tick batches, and the 10 gatherings a single incremental.Store
// finds on it.
func recallDay(t *testing.T) (pipe core.Config, batches []*trajectory.DB, base []string) {
	t.Helper()
	cfg := gen.Default()
	cfg.NumTaxis = 400
	cfg.TicksPerDay = 144
	cfg.Seed = 3
	pipe = recallPipeline()
	batches = gen.Generate(cfg).Batches(16)

	st, err := incremental.New(
		crowd.Params{MC: pipe.MC, KC: pipe.KC, Delta: pipe.Delta},
		gathering.Params{KC: pipe.KC, KP: pipe.KP, MP: pipe.MP},
		pipe.SearcherFactory(),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		st.Append(core.BuildCDB(b, pipe))
	}
	base = gatheringSigs(st.FlatGatherings())
	if len(base) != 10 {
		t.Fatalf("baseline found %d gatherings, the ROADMAP scenario has 10", len(base))
	}
	return pipe, batches, base
}

// engineSigs ingests batches into a fresh engine and returns its
// gatherings' signatures and counters.
func engineSigs(t *testing.T, cfg Config, batches []*trajectory.DB) ([]string, stats.EngineCounterSnapshot) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, b := range batches {
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	return gatheringSigs(e.Snapshot(Query{}).AllGatherings()), e.Counters().Snapshot()
}

// TestShardedRecallParity is the regression guard for the halo/merge fix:
// the recall day must yield the identical gathering set from a single
// incremental.Store and from GridCell engines at 1–16 shards with 3 km
// cells and a 4×δ halo. Before halo replication the 4-shard engine found
// 3 of the baseline's 10 gatherings. The 16-shard case exercises the
// stitching path (no single shard sees some boundary crowds whole there
// — see BENCH_recall.json).
func TestShardedRecallParity(t *testing.T) {
	pipe, batches, base := recallDay(t)
	for _, shards := range []int{1, 2, 4, 8, 16} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, cs := engineSigs(t, Config{
				Pipeline:    pipe,
				Shards:      shards,
				Partitioner: GridCell{CellSize: 3000, Halo: 4 * pipe.Delta},
			}, batches)
			if len(got) != len(base) {
				t.Errorf("found %d gatherings, baseline has %d", len(got), len(base))
			}
			compareSigSets(t, got, base)
			if shards == 1 {
				return
			}
			if cs.ClustersReplicated == 0 {
				t.Error("halo replication never fired on the boundary-heavy scenario")
			}
			if cs.CrowdsDeduped == 0 {
				t.Error("snapshot merge never deduplicated a boundary crowd")
			}
		})
	}
}

// TestZeroConfigRecallParity: an engine configured with nothing but its
// pipeline and a shard count must find the single store's gatherings on
// the recall day. With a zero Partitioner once meaning "no halo", 2 to 16
// shards found 9 of the 10 and reported no error.
func TestZeroConfigRecallParity(t *testing.T) {
	pipe, batches, base := recallDay(t)
	for _, shards := range []int{2, 4, 8, 16} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, _ := engineSigs(t, Config{Pipeline: pipe, Shards: shards}, batches)
			if len(got) != len(base) {
				t.Errorf("found %d gatherings, baseline has %d", len(got), len(base))
			}
			compareSigSets(t, got, base)
		})
	}
}

// TestSnapshotLimitDeterministic checks that Limit truncates the
// deterministically-sorted result: for every k, the Limit-k answer is the
// prefix of the full answer, independent of shard iteration order.
func TestSnapshotLimitDeterministic(t *testing.T) {
	sites := []geo.Point{
		{X: 1000, Y: 1000}, {X: 40000, Y: 1000},
		{X: 1000, Y: 40000}, {X: 40000, Y: 40000}, {X: 80000, Y: 80000},
	}
	db := parkedDB(sites, 12, 24)
	e, err := New(Config{Pipeline: testPipeline(), Shards: 4,
		Partitioner: GridCell{CellSize: 5000}})
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
		if compareCrowds(full.Crowds[i-1], full.Crowds[i]) >= 0 {
			t.Fatalf("snapshot not sorted at %d: %v !< %v", i, full.Crowds[i-1], full.Crowds[i])
		}
	}
	for k := 1; k <= len(full.Crowds); k++ {
		res := e.Snapshot(Query{Limit: k})
		if len(res.Crowds) != k {
			t.Fatalf("Limit %d returned %d crowds", k, len(res.Crowds))
		}
		for i, cr := range res.Crowds {
			if compareCrowds(cr, full.Crowds[i]) != 0 {
				t.Fatalf("Limit %d result[%d] = %v, want prefix of full answer (%v)",
					k, i, cr, full.Crowds[i])
			}
		}
	}
}
