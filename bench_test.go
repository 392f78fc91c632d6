// Benchmarks regenerating the paper's evaluation, one per table/figure
// series, plus the ablation benches listed in DESIGN.md §5. Run with
//
//	go test -bench=. -benchmem
//
// The Fig. 6–8 benches measure the same code paths as the tables printed
// by cmd/experiments; the Fig. 5 benches measure the full effectiveness
// pipeline (clustering + discovery + baselines) on one synthetic day.
package gatherings_test

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dbscan"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/geojson"
	"repro/internal/incremental"
	"repro/internal/patterns"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// benchScale keeps full-suite bench time reasonable while preserving the
// workload structure.
func benchScale() experiments.Scale {
	return experiments.Scale{Taxis: 300, TicksPerDay: 144, Fig7Crowds: 10, Fig8Crowds: 10, Seed: 1}
}

var (
	benchOnce sync.Once
	benchDB   *trajectory.DB
	benchCDB  *snapshot.CDB
	denseDB   *trajectory.DB
	denseCDB  *snapshot.CDB
)

func benchSetup() {
	benchOnce.Do(func() {
		sc := benchScale()
		benchDB = experiments.Workload(sc, gen.Clear)
		benchCDB = snapshot.Build(benchDB, snapshot.Options{
			DBSCAN: dbscan.Params{Eps: 200, MinPts: 5},
		})
		// The Fig. 6 benches need clusters of hundreds of points (the
		// paper's 30,000-taxi regime) or the exact-Hausdorff refinement
		// the R-tree schemes pay never dominates.
		g := gen.Default()
		g.NumTaxis = 1500
		g.TicksPerDay = 96
		g.JamCommitted = 120
		g.JamChurn = 60
		g.DropGoVisitors = 100
		g.PlatoonSize = 40
		denseDB = gen.Generate(g)
		denseCDB = snapshot.Build(denseDB, snapshot.Options{
			DBSCAN: dbscan.Params{Eps: 200, MinPts: 5},
		})
	})
}

func benchCrowdParams() crowd.Params {
	return crowd.Params{MC: 10, KC: 10, Delta: 300}
}

func benchGatherParams() gathering.Params {
	return gathering.Params{KC: 10, KP: 8, MP: 8}
}

// ---- Fig. 5: effectiveness pipeline ---------------------------------------

func BenchmarkFig5aPatternCountsByTime(b *testing.B) {
	benchSetup()
	for i := 0; i < b.N; i++ {
		res := discoverAll(b, benchCDB)
		_ = res
		_ = patterns.Swarms(benchCDB, patterns.SwarmParams{MinO: 6, MinT: 8})
		_ = patterns.Convoys(benchCDB, patterns.ConvoyParams{M: 6, K: 8})
	}
}

func BenchmarkFig5bSnowyDay(b *testing.B) {
	sc := benchScale()
	db := experiments.Workload(sc, gen.Snowy)
	cdb := snapshot.Build(db, snapshot.Options{DBSCAN: dbscan.Params{Eps: 200, MinPts: 5}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = discoverAll(b, cdb)
	}
}

func discoverAll(b *testing.B, cdb *snapshot.CDB) []*gathering.Gathering {
	b.Helper()
	p := benchCrowdParams()
	res := crowd.Discover(cdb, p, &crowd.GridSearcher{Delta: p.Delta})
	var out []*gathering.Gathering
	for _, cr := range res.Crowds {
		out = append(out, gathering.TADStar(cr, benchGatherParams())...)
	}
	return out
}

// ---- Fig. 6: crowd discovery per scheme ------------------------------------

func BenchmarkFig6CrowdDiscoverySR(b *testing.B)   { benchCrowd(b, "sr") }
func BenchmarkFig6CrowdDiscoveryIR(b *testing.B)   { benchCrowd(b, "ir") }
func BenchmarkFig6CrowdDiscoveryGRID(b *testing.B) { benchCrowd(b, "grid") }

func benchCrowd(b *testing.B, scheme string) {
	benchSetup()
	p := benchCrowdParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := crowd.NewSearcher(scheme, p.Delta)
		if err != nil {
			b.Fatal(err)
		}
		crowd.Discover(denseCDB, p, s)
	}
}

// ---- Fig. 7: gathering detection per detector -------------------------------

func fig7Crowds() []*crowd.Crowd {
	r := rand.New(rand.NewSource(11))
	out := make([]*crowd.Crowd, 20)
	for i := range out {
		out[i] = experiments.SyntheticCrowd(r, 35, 16, 6, 0.85, 16)
	}
	return out
}

func BenchmarkFig7GatheringBruteForce(b *testing.B) {
	benchGather(b, func(cr *crowd.Crowd, p gathering.Params) { gathering.BruteForce(cr, p) })
}

func BenchmarkFig7GatheringTAD(b *testing.B) {
	benchGather(b, func(cr *crowd.Crowd, p gathering.Params) { gathering.TAD(cr, p) })
}

func BenchmarkFig7GatheringTADStar(b *testing.B) {
	benchGather(b, func(cr *crowd.Crowd, p gathering.Params) { gathering.TADStar(cr, p) })
}

func benchGather(b *testing.B, run func(*crowd.Crowd, gathering.Params)) {
	crowds := fig7Crowds()
	p := gathering.Params{KC: 10, KP: 14, MP: 11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(crowds[i%len(crowds)], p)
	}
}

// ---- Fig. 8: incremental vs recomputation -----------------------------------

func BenchmarkFig8aRecompute(b *testing.B) {
	benchSetup()
	p := benchCrowdParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crowd.Discover(benchCDB, p, &crowd.GridSearcher{Delta: p.Delta})
	}
}

func BenchmarkFig8aExtendOneDay(b *testing.B) {
	benchSetup()
	p := benchCrowdParams()
	gp := benchGatherParams()
	half := benchCDB.Domain.N / 2
	first := benchCDB.Slice(0, half)
	second := benchCDB.Slice(trajectory.Tick(half), benchCDB.Domain.N-half)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := incremental.New(p, gp, func() crowd.Searcher {
			return &crowd.GridSearcher{Delta: p.Delta}
		})
		if err != nil {
			b.Fatal(err)
		}
		store.Append(&snapshot.CDB{Domain: first.Domain, Clusters: first.Clusters})
		b.StartTimer()
		store.Append(&snapshot.CDB{Domain: second.Domain, Clusters: second.Clusters})
	}
}

func fig8bCrowdsAndOld(oldLen int) ([]*crowd.Crowd, [][]*gathering.Gathering, gathering.Params) {
	gp := gathering.Params{KC: 4, KP: 10, MP: 20}
	r := rand.New(rand.NewSource(7))
	crowds := make([]*crowd.Crowd, 10)
	olds := make([][]*gathering.Gathering, len(crowds))
	for i := range crowds {
		crowds[i] = experiments.SyntheticCrowd(r, 240, 48, 2, 0.75, 6)
		oldCrowd := crowds[i].Sub(0, oldLen)
		olds[i] = gathering.TADStar(oldCrowd, gp)
	}
	return crowds, olds, gp
}

func BenchmarkFig8bRecompute(b *testing.B) {
	crowds, _, gp := fig8bCrowdsAndOld(216)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gathering.TADStar(crowds[i%len(crowds)], gp)
	}
}

func BenchmarkFig8bGatheringUpdate(b *testing.B) {
	crowds, olds, gp := fig8bCrowdsAndOld(216)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(crowds)
		gathering.NewDetector(crowds[k], gp).RunIncremental(216, olds[k])
	}
}

// ---- incremental append: per-batch cost vs history --------------------------

// incrementalStream builds a persistent-membership CDB: one cluster per
// tick holding a committed core (objects 0..core-1, present w.p. stay)
// plus never-recurring churn, so a single crowd chain survives the whole
// stream with live gatherings — the state the incremental layer extends.
func incrementalStream(ticks, core, churn int, stay float64, seed int64) *snapshot.CDB {
	r := rand.New(rand.NewSource(seed))
	cdb := &snapshot.CDB{
		Domain:   trajectory.TimeDomain{Step: 1, N: ticks},
		Clusters: make([][]*snapshot.Cluster, ticks),
	}
	next := trajectory.ObjectID(core)
	for t := 0; t < ticks; t++ {
		var ids []trajectory.ObjectID
		for c := 0; c < core; c++ {
			if r.Float64() < stay {
				ids = append(ids, trajectory.ObjectID(c))
			}
		}
		for c := 0; c < churn; c++ {
			ids = append(ids, next)
			next++
		}
		pts := make([]geo.Point, len(ids))
		for i := range pts {
			pts[i] = geo.Point{X: float64(i % core), Y: 0}
		}
		cdb.Clusters[t] = []*snapshot.Cluster{snapshot.NewCluster(trajectory.Tick(t), ids, pts)}
	}
	return cdb
}

// BenchmarkIncrementalAppend measures the cost of appending ONE fixed-size
// batch to a store that already holds history×batch ticks. The §III-C
// design goal — and the tentpole of the persistent-crowd / extendable-
// detector rework — is that this cost is flat in the history: before it,
// crowd extension re-copied each surviving chain and gathering detection
// rebuilt each tail detector, so ns/op grew linearly with history.
func BenchmarkIncrementalAppend(b *testing.B) {
	const batchTicks = 12
	cp := crowd.Params{MC: 10, KC: 10, Delta: 300}
	gp := gathering.Params{KC: 10, KP: 8, MP: 8}
	for _, history := range []int{1, 2, 4, 8} {
		history := history
		b.Run(fmt.Sprintf("history=%dx", history), func(b *testing.B) {
			full := incrementalStream((history+1)*batchTicks, 60, 8, 0.9, 11)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := incremental.New(cp, gp, func() crowd.Searcher {
					return &crowd.GridSearcher{Delta: cp.Delta}
				})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < history; k++ {
					s := full.Slice(trajectory.Tick(k*batchTicks), batchTicks)
					store.Append(&snapshot.CDB{Domain: s.Domain, Clusters: s.Clusters})
				}
				s := full.Slice(trajectory.Tick(history*batchTicks), batchTicks)
				batch := &snapshot.CDB{Domain: s.Domain, Clusters: s.Clusters}
				b.StartTimer()
				store.Append(batch)
			}
		})
	}
}

// ---- streaming engine: ingest and query -------------------------------------

// benchEnginePipeline matches benchCrowdParams/benchGatherParams so the
// engine benches are comparable with the Fig. 8 incremental ones.
func benchEnginePipeline() core.Config {
	return core.Config{
		Eps: 200, MinPts: 5,
		MC: 10, KC: 10, Delta: 300,
		KP: 8, MP: 8,
		Searcher: "grid",
	}
}

// benchEngineBatches slices the dense bench workload (large snapshot
// clusters) into 12-tick batches.
func benchEngineBatches() []*trajectory.DB {
	benchSetup()
	return denseDB.Batches(12)
}

// BenchmarkEngineIngestStoreBaseline is the single-Store reference: the
// same batch stream applied synchronously to one incremental store.
func BenchmarkEngineIngestStoreBaseline(b *testing.B) {
	batches := benchEngineBatches()
	pipe := benchEnginePipeline()
	cp := crowd.Params{MC: pipe.MC, KC: pipe.KC, Delta: pipe.Delta}
	gp := gathering.Params{KC: pipe.KC, KP: pipe.KP, MP: pipe.MP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := incremental.New(cp, gp, pipe.SearcherFactory())
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			store.Append(core.BuildCDB(batch, pipe))
		}
	}
}

// BenchmarkEngineIngest measures wall-clock ingest of the whole batch
// stream through the engine: the router clusters batch k+1 while the
// applier applies batch k. clusters/op is the snapshot clusters built.
func BenchmarkEngineIngest(b *testing.B) {
	batches := benchEngineBatches()
	var clusters uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(engine.Config{Pipeline: benchEnginePipeline()})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := eng.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
		eng.Flush()
		clusters += eng.Counters().Snapshot().ClustersBuilt
		eng.Close()
	}
	b.ReportMetric(float64(clusters)/float64(b.N), "clusters/op")
}

// BenchmarkEngineQuerySnapshot measures query latency against a loaded
// engine, with concurrent readers sharing it (b.RunParallel): a filter
// over the memoised sorted read.
func BenchmarkEngineQuerySnapshot(b *testing.B) {
	batches := benchEngineBatches()
	eng, err := engine.New(engine.Config{Pipeline: benchEnginePipeline()})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for _, batch := range batches {
		if err := eng.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	eng.Flush()
	queries := []engine.Query{
		{},
		{GatheringsOnly: true},
		{Window: &engine.TickWindow{From: 20, To: 100}},
		{Bounds: &geo.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}, GatheringsOnly: true},
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_ = eng.Snapshot(queries[i%len(queries)])
			i++
		}
	})
}

// BenchmarkExport measures the GeoJSON rendering every /gatherings read
// runs, on the dense bench day's full answer from a loaded engine.
func BenchmarkExport(b *testing.B) {
	batches := benchEngineBatches()
	eng, err := engine.New(engine.Config{Pipeline: benchEnginePipeline()})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for _, batch := range batches {
		if err := eng.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	eng.Flush()
	res := eng.Snapshot(engine.Query{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := geojson.Export(io.Discard, res.Crowds, res.Gatherings, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations (DESIGN.md §5) ----------------------------------------------

func BenchmarkPopcountWord(b *testing.B) {
	v, m := randomBitvecPair(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.PopcountMasked(m)
	}
}

func BenchmarkPopcountTree(b *testing.B) {
	v, m := randomBitvecPair(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.PopcountMaskedTree(m)
	}
}

func randomBitvecPair(n int) (bitvec.Vector, bitvec.Vector) {
	r := rand.New(rand.NewSource(13))
	v, m := bitvec.New(n), bitvec.New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			v.Set(i)
		}
		if r.Intn(2) == 0 {
			m.Set(i)
		}
	}
	return v, m
}

func randomPointSets(n int) ([]geo.Point, []geo.Point) {
	r := rand.New(rand.NewSource(17))
	mk := func() []geo.Point {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: r.NormFloat64() * 100, Y: r.NormFloat64() * 100}
		}
		return pts
	}
	return mk(), mk()
}

func BenchmarkHausdorffExact(b *testing.B) {
	p, q := randomPointSets(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geo.Hausdorff(p, q)
	}
}

func BenchmarkHausdorffEarlyExitPredicate(b *testing.B) {
	p, q := randomPointSets(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geo.WithinHausdorff(p, q, 150)
	}
}

func BenchmarkSnapshotClusteringSequential(b *testing.B) {
	benchSetup()
	opts := snapshot.Options{DBSCAN: dbscan.Params{Eps: 200, MinPts: 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshot.Build(benchDB, opts)
	}
}

func BenchmarkSnapshotClusteringParallel(b *testing.B) {
	benchSetup()
	opts := snapshot.Options{DBSCAN: dbscan.Params{Eps: 200, MinPts: 5}, Parallelism: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshot.Build(benchDB, opts)
	}
}

// BenchmarkSnapshotClusteringDense is phase 1 on the dense engine-bench
// day (1500 taxis, clusters of hundreds of points), sequentially: the
// per-tick DBSCAN cost the serving path pays inside Engine.Append.
func BenchmarkSnapshotClusteringDense(b *testing.B) {
	benchSetup()
	opts := snapshot.Options{DBSCAN: dbscan.Params{Eps: 200, MinPts: 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshot.Build(denseDB, opts)
	}
}

// BenchmarkRangeSearch* isolate one range search per scheme, removing
// Algorithm 1's bookkeeping from the Fig. 6 comparison.
func BenchmarkRangeSearchSR(b *testing.B)   { benchRangeSearch(b, "sr") }
func BenchmarkRangeSearchIR(b *testing.B)   { benchRangeSearch(b, "ir") }
func BenchmarkRangeSearchGRID(b *testing.B) { benchRangeSearch(b, "grid") }

func benchRangeSearch(b *testing.B, scheme string) {
	benchSetup()
	// take the densest tick of the dense CDB and query every cluster of
	// the previous tick against it
	bestTick, best := 1, 0
	for t := 1; t < len(denseCDB.Clusters); t++ {
		n := 0
		for _, c := range denseCDB.Clusters[t] {
			n += c.Len()
		}
		if n > best {
			best, bestTick = n, t
		}
	}
	queries := denseCDB.Clusters[bestTick-1]
	targets := denseCDB.Clusters[bestTick]
	if len(queries) == 0 || len(targets) == 0 {
		b.Skip("no clusters at densest tick")
	}
	s, err := crowd.NewSearcher(scheme, 300)
	if err != nil {
		b.Fatal(err)
	}
	s.Prepare(targets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Search(queries[i%len(queries)])
	}
}
