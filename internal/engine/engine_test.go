package engine

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/experiments"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/incremental"
	"repro/internal/trajectory"
)

// testPipeline returns thresholds matched to the small test workloads.
func testPipeline() core.Config {
	return core.Config{
		Eps: 200, MinPts: 5,
		MC: 8, KC: 8, Delta: 300,
		KP: 6, MP: 6,
		Searcher: "grid",
	}
}

// testWorkload generates a small synthetic day and slices it into batches.
func testWorkload(t testing.TB, taxis, ticks, batches int) []*trajectory.DB {
	t.Helper()
	db := experiments.Workload(experiments.Scale{Taxis: taxis, TicksPerDay: ticks, Seed: 1}, gen.Clear)
	return db.Batches(db.Domain.N / batches)
}

// parkedDB builds a fully deterministic workload: perSite objects parked
// at each site for every tick, spaced a few metres apart so DBSCAN joins
// them into one cluster per site per tick.
func parkedDB(sites []geo.Point, perSite, ticks int) *trajectory.DB {
	db := &trajectory.DB{Domain: trajectory.TimeDomain{Start: 0, Step: 1, N: ticks}}
	id := trajectory.ObjectID(0)
	for _, site := range sites {
		for k := 0; k < perSite; k++ {
			tr := trajectory.Trajectory{ID: id, Samples: make([]trajectory.Sample, ticks)}
			p := geo.Point{X: site.X + float64(k)*3, Y: site.Y}
			for t := 0; t < ticks; t++ {
				tr.Samples[t] = trajectory.Sample{Time: float64(t), P: p}
			}
			db.Trajs = append(db.Trajs, tr)
			id++
		}
	}
	return db
}

// TestSingleShardMatchesStore checks that a one-shard engine is exactly
// the incremental algorithm: same crowds, gatherings and ticks as a
// directly-driven incremental.Store over the same batch sequence.
func TestSingleShardMatchesStore(t *testing.T) {
	pipe := testPipeline()
	batches := testWorkload(t, 200, 96, 4)

	e, err := New(Config{Pipeline: pipe, Shards: 1})
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

	res := e.Snapshot(Query{})
	if res.Ticks != st.Ticks() {
		t.Fatalf("engine ticks %d, store ticks %d", res.Ticks, st.Ticks())
	}
	if got, want := len(res.Crowds), len(st.Crowds()); got != want {
		t.Fatalf("engine found %d crowds, store %d", got, want)
	}
	if got, want := len(res.AllGatherings()), len(st.FlatGatherings()); got != want {
		t.Fatalf("engine found %d gatherings, store %d", got, want)
	}
	if len(res.Crowds) == 0 {
		t.Fatal("workload produced no crowds; test is vacuous")
	}
}

// TestConcurrentAppendQuery hammers a multi-shard engine with appends and
// snapshot queries from many goroutines at once; run with -race. The halo
// makes boundary clusters shared views of several shards, so the read-time
// merge dedups cross-shard copies. Every result a reader holds is recorded
// by value whenever its frontier advances, and once ingest has drained
// each record must still match the result it was taken from: shared
// crowds, clusters and gatherings never change. A write racing a reader
// shows as a DATA RACE, a later one as a changed record.
func TestConcurrentAppendQuery(t *testing.T) {
	batches := testWorkload(t, 200, 96, 8)
	e, err := New(Config{Pipeline: testPipeline(), Shards: 4, Workers: 4,
		Partitioner: GridCell{CellSize: 4000, Halo: 1200}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	feed := make(chan *trajectory.DB)
	var appenders sync.WaitGroup
	for a := 0; a < 3; a++ {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for b := range feed {
				if err := e.Append(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	type record struct {
		res  *Result
		held []crowdValue
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	records := make([][]record, 4)
	queries := []Query{
		{},
		{GatheringsOnly: true},
		{Window: &TickWindow{From: 10, To: 60}},
		{Bounds: &geo.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}},
		{Limit: 3},
	}
	for r := range records {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			seen := -1
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				res := e.Snapshot(queries[(r+i)%len(queries)])
				if len(res.Crowds) != len(res.Gatherings) {
					t.Errorf("ragged result: %d crowds, %d gathering groups",
						len(res.Crowds), len(res.Gatherings))
					return
				}
				if res.Ticks > seen && len(res.Crowds) > 0 {
					seen = res.Ticks
					records[r] = append(records[r], record{res, resultValue(res)})
				}
			}
		}(r)
	}

	total := 0
	for _, b := range batches {
		total += b.Domain.N
		feed <- b
	}
	close(feed)
	appenders.Wait()
	e.Flush()
	close(done)
	readers.Wait()

	if e.Ticks() != total {
		t.Fatalf("ticks = %d after flush, want %d", e.Ticks(), total)
	}
	got := e.Counters().Snapshot()
	if got.BatchesEnqueued != uint64(len(batches)) {
		t.Fatalf("counted %d batches, want %d", got.BatchesEnqueued, len(batches))
	}
	if got.CrowdsDeduped == 0 {
		t.Fatal("the merge deduped no crowd; the halo shares nothing")
	}
	held := 0
	for r, recs := range records {
		for _, rec := range recs {
			if now := resultValue(rec.res); !reflect.DeepEqual(now, rec.held) {
				t.Fatalf("reader %d: the result it held at frontier %d changed after more ingest", r, rec.res.Ticks)
			}
		}
		held += len(recs)
	}
	if held == 0 {
		t.Fatal("no reader held a non-empty result")
	}
	t.Logf("%d held results unchanged; %d crowds deduped, %d clusters replicated",
		held, got.CrowdsDeduped, got.ClustersReplicated)
}

// crowdValue is a crowd of a Result copied by value: its clusters'
// contents and its gatherings, down to the participator IDs.
type crowdValue struct {
	Start    trajectory.Tick
	Clusters []clusterValue
	Gathers  []gatheringValue
}

type clusterValue struct {
	T       trajectory.Tick
	Objects []trajectory.ObjectID
	Points  []geo.Point
	MBR     geo.Rect
}

type gatheringValue struct {
	Lo, Hi, Lifetime int
	Start            trajectory.Tick
	Participators    []trajectory.ObjectID
}

// resultValue copies everything res reaches into values that share no
// memory with it.
func resultValue(res *Result) []crowdValue {
	out := make([]crowdValue, len(res.Crowds))
	for i, cr := range res.Crowds {
		v := crowdValue{Start: cr.Start}
		for k := 0; k < cr.Lifetime(); k++ {
			cl := cr.At(k)
			v.Clusters = append(v.Clusters, clusterValue{cl.T,
				append([]trajectory.ObjectID(nil), cl.Objects...),
				append([]geo.Point(nil), cl.Points...), cl.MBR()})
		}
		for _, g := range res.Gatherings[i] {
			v.Gathers = append(v.Gathers, gatheringValue{g.Lo, g.Hi, g.Crowd.Lifetime(),
				g.Crowd.Start, append([]trajectory.ObjectID(nil), g.Participators...)})
		}
		out[i] = v
	}
	return out
}

// TestBackpressure holds the single shard inside ApplyFault so the queue
// fills deterministically: TryAppend must refuse, Append must block, a
// parked Append must not stall TryAppend, and releasing the shard must
// drain everything.
func TestBackpressure(t *testing.T) {
	db := parkedDB([]geo.Point{{X: 1000, Y: 1000}}, 12, 8)
	entered := make(chan struct{})
	release := make(chan struct{})
	e, err := New(Config{Pipeline: testPipeline(), Shards: 1,
		ApplyFault: func(_ int, seq uint64) {
			if seq == 0 {
				close(entered)
				<-release
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	var unblock sync.Once
	defer func() {
		unblock.Do(func() { close(release) })
		e.Close()
	}()

	// Batch 0 reaches the shard goroutine, which parks in ApplyFault.
	if err := e.Append(db); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Batches 1 to shardQueue fill the shard's channel; the router takes
	// the next batch and stalls sending it.
	for i := 1; i <= shardQueue+1; i++ {
		if err := e.Append(db); err != nil {
			t.Fatalf("Append %d with room in the queue: %v", i, err)
		}
	}
	if err := e.TryAppend(db); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TryAppend on full queue: %v, want ErrQueueFull", err)
	}
	if got := e.Counters().Snapshot().BatchesRejected; got != 1 {
		t.Fatalf("BatchesRejected = %d, want 1", got)
	}

	blocked := make(chan error, 1)
	go func() { blocked <- e.Append(db) }()
	select {
	case err := <-blocked:
		t.Fatalf("Append on full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
		// still blocked: backpressure is holding
	}
	// A parked Append must not stall TryAppend: it still fails fast.
	fast := make(chan error, 1)
	go func() { fast <- e.TryAppend(db) }()
	select {
	case err := <-fast:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("TryAppend behind parked Append: %v, want ErrQueueFull", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TryAppend blocked behind a parked Append")
	}

	unblock.Do(func() { close(release) })
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append never unblocked after the shard was released")
	}
	e.Flush()

	if want := (shardQueue + 3) * db.Domain.N; e.Ticks() != want {
		t.Fatalf("ticks = %d, want %d", e.Ticks(), want)
	}
	if res := e.Snapshot(Query{GatheringsOnly: true}); len(res.Crowds) == 0 {
		t.Fatal("parked workload produced no gatherings")
	}
}

// TestQueryFilters loads two far-apart parked sites and checks window,
// bounding-box, gatherings-only and limit filtering.
func TestQueryFilters(t *testing.T) {
	sites := []geo.Point{{X: 1000, Y: 1000}, {X: 80000, Y: 80000}}
	db := parkedDB(sites, 20, 40)
	e, err := New(Config{Pipeline: testPipeline(), Shards: 4,
		Partitioner: GridCell{CellSize: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, b := range db.Batches(20) {
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	all := e.Snapshot(Query{})
	if len(all.Crowds) != 2 {
		t.Fatalf("found %d crowds, want one per site (2)", len(all.Crowds))
	}
	if got := len(all.AllGatherings()); got != 2 {
		t.Fatalf("found %d gatherings, want 2", got)
	}

	near := e.Snapshot(Query{Bounds: &geo.Rect{MinX: 0, MinY: 0, MaxX: 5000, MaxY: 5000}})
	if len(near.Crowds) != 1 {
		t.Fatalf("bbox around site 1 matched %d crowds, want 1", len(near.Crowds))
	}
	nowhere := e.Snapshot(Query{Bounds: &geo.Rect{MinX: 200000, MinY: 200000, MaxX: 300000, MaxY: 300000}})
	if len(nowhere.Crowds) != 0 {
		t.Fatalf("empty-region bbox matched %d crowds", len(nowhere.Crowds))
	}

	if res := e.Snapshot(Query{Window: &TickWindow{From: 0, To: 39}}); len(res.Crowds) != 2 {
		t.Fatalf("full window matched %d crowds, want 2", len(res.Crowds))
	}
	if res := e.Snapshot(Query{Window: &TickWindow{From: 100, To: 200}}); len(res.Crowds) != 0 {
		t.Fatalf("future window matched %d crowds", len(res.Crowds))
	}
	if res := e.Snapshot(Query{Limit: 1}); len(res.Crowds) != 1 {
		t.Fatalf("Limit 1 returned %d crowds", len(res.Crowds))
	}
}

// TestConfigRejectsBadPartitioner checks partitioner validation: negative
// cell sizes and halo margins below 4×δ are rejected, 4×δ is accepted,
// and a zero cell size and halo resolve to their 10×δ and 4×δ defaults.
func TestConfigRejectsBadPartitioner(t *testing.T) {
	pipe := testPipeline()
	for _, g := range []GridCell{
		{CellSize: -1},
		{CellSize: 3000, Halo: -1},
		{CellSize: 3000, Halo: pipe.Delta / 2},
		{CellSize: 3000, Halo: pipe.Delta},
	} {
		_, err := New(Config{Pipeline: pipe, Partitioner: g})
		if err == nil {
			t.Errorf("GridCell %+v accepted", g)
		} else if g.CellSize > 0 && !strings.Contains(err.Error(), "4×δ") {
			t.Errorf("GridCell %+v refused without naming 4×δ: %v", g, err)
		}
	}
	e, err := New(Config{Pipeline: pipe, Partitioner: GridCell{CellSize: 3000, Halo: 4 * pipe.Delta}})
	if err != nil {
		t.Fatalf("halo 4×δ refused: %v", err)
	}
	e.Close()
	cfg := Config{Pipeline: pipe}.withDefaults()
	if want := 10 * pipe.Delta; cfg.Partitioner.CellSize != want {
		t.Errorf("zero CellSize resolved to %v, want 10×δ = %v", cfg.Partitioner.CellSize, want)
	}
	if want := 4 * pipe.Delta; cfg.Partitioner.Halo != want {
		t.Errorf("zero Halo resolved to %v, want 4×δ = %v", cfg.Partitioner.Halo, want)
	}
}

// TestCloseSemantics checks Close is idempotent and rejects later appends.
func TestCloseSemantics(t *testing.T) {
	e, err := New(Config{Pipeline: testPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	db := parkedDB([]geo.Point{{X: 0, Y: 0}}, 6, 4)
	if err := e.Append(db); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Append(db); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := e.TryAppend(db); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryAppend after Close: %v, want ErrClosed", err)
	}
	// Close drained the queue, so state is still queryable.
	if e.Ticks() != db.Domain.N {
		t.Fatalf("ticks = %d after close, want %d", e.Ticks(), db.Domain.N)
	}
}

// TestDeterministicAcrossRuns runs the same sharded ingest twice and
// expects identical results (ordered appends, pure partitioner).
func TestDeterministicAcrossRuns(t *testing.T) {
	batches := testWorkload(t, 150, 72, 3)
	run := func() (int, int) {
		e, err := New(Config{Pipeline: testPipeline(), Shards: 3,
			Partitioner: GridCell{CellSize: 4000}})
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
		res := e.Snapshot(Query{})
		return len(res.Crowds), len(res.AllGatherings())
	}
	c1, g1 := run()
	c2, g2 := run()
	if c1 != c2 || g1 != g2 {
		t.Fatalf("non-deterministic: run1 (%d crowds, %d gatherings) vs run2 (%d, %d)",
			c1, g1, c2, g2)
	}
}
