package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	gatherings "repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/engine"
	"repro/internal/engine/admit"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// specFile is servebench/workloads.json: the thresholds every workload
// runs at, and each workload's input shape and pipeline settings.
type specFile struct {
	Thresholds thresholds      `json:"thresholds"`
	Workloads  map[string]spec `json:"workloads"`
}

type thresholds struct {
	Eps      float64 `json:"eps"`
	MinPts   int     `json:"minpts"`
	MC       int     `json:"mc"`
	KC       int     `json:"kc"`
	Delta    float64 `json:"delta"`
	KP       int     `json:"kp"`
	MP       int     `json:"mp"`
	Searcher string  `json:"searcher"`
}

// spec is one workload. The fields that shape the input are fixed in
// ticks, never in seconds, so a run's work does not depend on how fast
// the host is.
type spec struct {
	Loop        string  `json:"loop"`   // "closed" or "open"
	Regime      string  `json:"regime"` // "dense" (Fig. 6) or "default" (gen.Default)
	Taxis       int     `json:"taxis"`
	TicksPerDay int     `json:"ticks_per_day"`
	Days        int     `json:"days"`
	WarmupDays  int     `json:"warmup_days"` // leading days ingested before the measurement
	BatchTicks  int     `json:"batch_ticks"`
	Rate        float64 `json:"rate_batches_per_s"` // open loop only
	Reader      bool    `json:"reader"`             // a closed-loop reader runs during ingest
	ThinkMs     float64 `json:"reader_think_ms"`    // the reader's pause between queries
	Nodes       int     `json:"nodes"`              // 1, or 3 for the in-process cluster
	WALSync     string  `json:"wal_sync"`           // "" runs without WAL and checkpoints
	CkptEvery   int     `json:"checkpoint_every"`
	Chaos       *struct {
		ReorderProb float64 `json:"reorder_prob"`
		DupProb     float64 `json:"dup_prob"`
		MaxDelay    int     `json:"max_delay"`
	} `json:"chaos"`
}

func loadSpec(path, name string) (thresholds, spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return thresholds{}, spec{}, err
	}
	var f specFile
	if err := json.Unmarshal(data, &f); err != nil {
		return thresholds{}, spec{}, fmt.Errorf("%s: %w", path, err)
	}
	sp, ok := f.Workloads[name]
	if !ok {
		names := make([]string, 0, len(f.Workloads))
		for n := range f.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return thresholds{}, spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	if sp.BatchTicks <= 0 || sp.Taxis <= 0 || sp.TicksPerDay <= 0 || sp.Days <= 0 {
		return thresholds{}, spec{}, fmt.Errorf("workload %q: taxis, ticks_per_day, days and batch_ticks must be positive", name)
	}
	if sp.WarmupDays < 0 || sp.WarmupDays >= sp.Days {
		return thresholds{}, spec{}, fmt.Errorf("workload %q: warmup_days must leave at least one measured day", name)
	}
	if sp.WarmupDays > 0 && (sp.Chaos != nil || sp.Nodes > 1 || (sp.TicksPerDay*sp.WarmupDays)%sp.BatchTicks != 0) {
		return thresholds{}, spec{}, fmt.Errorf("workload %q: a warm-up needs an in-order single-node feed and whole batches", name)
	}
	if sp.Loop == "open" && sp.Rate <= 0 {
		return thresholds{}, spec{}, fmt.Errorf("workload %q: an open loop needs rate_batches_per_s", name)
	}
	return f.Thresholds, sp, nil
}

// pipeline is the discovery configuration every engine and the reference
// store run.
func (t thresholds) pipeline() core.Config {
	return core.Config{
		Eps: t.Eps, MinPts: t.MinPts,
		MC: t.MC, KC: t.KC, Delta: t.Delta,
		KP: t.KP, MP: t.MP,
		Searcher: t.Searcher,
	}
}

// engineConfig is gatherserve's engine at its default flags (grid
// partitioner, 10×delta cells, 4×delta halo, one shard and worker per
// CPU) with the workload's thresholds.
func (t thresholds) engineConfig() engine.Config {
	cfg := gatherings.DefaultEngineConfig()
	cfg.Pipeline = t.pipeline()
	cfg.Partitioner = engine.GridCell{CellSize: 10 * t.Delta, Halo: 4 * t.Delta}
	return cfg
}

// inputs is everything a workload feeds the program, made from the seed
// before anything is timed.
type inputs struct {
	db      *trajectory.DB
	batches []*trajectory.DB // in order, as gatherserve cuts them
	events  []chaos.Event    // the deliveries, perturbed when the spec asks
	dups    int              // duplicate deliveries among events
	warm    int              // leading events ingested before the measurement
	ticks   int              // ticks in the measured events
	area    float64          // side of the generated city, metres
}

func makeInputs(sp spec, seed int64) inputs {
	cfg := gen.Default()
	cfg.Seed = seed
	cfg.NumTaxis = sp.Taxis
	cfg.TicksPerDay = sp.TicksPerDay
	cfg.Days = sp.Days
	if sp.Regime == "dense" {
		// The Fig. 6 regime of the engine benches (BENCH_ingest.json):
		// clusters of hundreds of points, so DBSCAN dominates.
		cfg.JamCommitted = 120
		cfg.JamChurn = 60
		cfg.DropGoVisitors = 100
		cfg.PlatoonSize = 40
	}
	db := gen.Generate(cfg)
	// gatherserve's feed loop: views that share whole trajectories.
	batches := db.Batches(sp.BatchTicks)
	in := inputs{db: db, batches: batches, area: cfg.AreaSize}
	in.warm = sp.WarmupDays * sp.TicksPerDay / sp.BatchTicks
	in.ticks = db.Domain.N - sp.WarmupDays*sp.TicksPerDay
	if sp.Chaos != nil {
		// The workload is a messy feed without loss: every delivery must
		// land inside the admitter's watermark. chaos.Perturb can chain
		// reorderings past MaxDelay, so perturbations that would push a
		// batch beyond the watermark are redrawn from the next seed.
		for k := int64(0); ; k++ {
			in.events = chaos.Perturb(batches, chaos.Config{
				Seed:        seed + k<<32,
				ReorderProb: sp.Chaos.ReorderProb,
				DupProb:     sp.Chaos.DupProb,
				MaxDelay:    sp.Chaos.MaxDelay,
			})
			if withinWatermark(in.events, admit.DefaultWatermark) {
				break
			}
		}
	} else {
		for i, b := range batches {
			in.events = append(in.events, chaos.Event{Seq: uint64(i), Batch: b})
		}
	}
	in.dups = len(in.events) - len(batches)
	return in
}

// withinWatermark reports whether an admitter with watermark w would take
// every delivery of events without abandoning a slot: no batch arrives w
// or more sequences ahead of the next one to release.
func withinWatermark(events []chaos.Event, w int) bool {
	next := uint64(0)
	parked := map[uint64]bool{}
	for _, ev := range events {
		switch {
		case ev.Seq < next || parked[ev.Seq]:
			// duplicate
		case ev.Seq >= next+uint64(w):
			return false
		case ev.Seq == next:
			next++
			for parked[next] {
				delete(parked, next)
				next++
			}
		default:
			parked[ev.Seq] = true
		}
	}
	return true
}

// reference is the single-store replay of the in-order batches: the
// correctness oracle, the single-threaded baseline, and the source of the
// snapshot and incremental layer metrics.
type reference struct {
	sigs       []string
	gatherings int
	buildMs    []float64 // snapshot.Build per batch
	appendMs   []float64 // incremental.Store.Append per batch
	ticksPerS  float64
}

func replayReference(pipe core.Config, workers int, batches []*trajectory.DB) (reference, error) {
	st, err := incremental.New(
		crowd.Params{MC: pipe.MC, KC: pipe.KC, Delta: pipe.Delta},
		gathering.Params{KC: pipe.KC, KP: pipe.KP, MP: pipe.MP},
		pipe.SearcherFactory(),
	)
	if err != nil {
		return reference{}, err
	}
	var ref reference
	var total time.Duration
	ticks := 0
	opts := pipe.SnapshotOptions(workers)
	for _, b := range batches {
		t0 := time.Now()
		cdb := snapshot.Build(b, opts)
		t1 := time.Now()
		st.Append(cdb)
		t2 := time.Now()
		ref.buildMs = append(ref.buildMs, ms(t1.Sub(t0)))
		ref.appendMs = append(ref.appendMs, ms(t2.Sub(t1)))
		total += t2.Sub(t0)
		ticks += b.Domain.N
	}
	ref.ticksPerS = float64(ticks) / total.Seconds()
	ref.sigs = signatures(st.Crowds(), st.Gatherings())
	ref.gatherings = len(ref.sigs)
	return ref, nil
}

// signatures renders a gathering set as sorted "start-end:participators"
// strings, the comparison key between an engine and the reference.
func signatures(crowds []*crowd.Crowd, gs [][]*gathering.Gathering) []string {
	var out []string
	for i := range crowds {
		for _, g := range gs[i] {
			out = append(out, fmt.Sprintf("%d-%d:%v", g.Crowd.Start, g.Crowd.End(), g.Participators))
		}
	}
	sort.Strings(out)
	return out
}

func sameSigs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// windowBytes is what a WAL record of b would weigh if it carried only
// the samples inside the batch's tick window (plus the record and
// per-trajectory headers of wal.EncodePayload), against the whole
// trajectories the feed's views share.
func windowBytes(b *trajectory.DB) int {
	lo, hi := b.Domain.Start, b.Domain.TimeOf(trajectory.Tick(b.Domain.N))
	n := 8 + 8 + 8 + 4 + 4
	for i := range b.Trajs {
		ss := b.Trajs[i].Samples // sorted by time
		from := sort.Search(len(ss), func(j int) bool { return ss[j].Time >= lo })
		k := sort.Search(len(ss), func(j int) bool { return ss[j].Time >= hi }) - from
		if k > 0 {
			n += 8 + 4 + 24*k
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
