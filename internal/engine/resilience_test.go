// Resilience tests: the admission stage in front of the engine (messy
// stream ≡ in-order replay), quarantine after an apply panic, and the
// SaveState/LoadState checkpoint roundtrip. The fault vocabulary comes
// from internal/chaos; everything is seeded and deterministic.

package engine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine/admit"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// churn thins a third of the batches: a rotating subset of objects goes
// dark for that tick window, the way real fleets drop in and out of a
// feed. Both sides of a parity test consume the same churned content.
func churn(batches []*trajectory.DB) []*trajectory.DB {
	out := make([]*trajectory.DB, len(batches))
	for i, b := range batches {
		if i%3 != 1 {
			out[i] = b
			continue
		}
		nb := &trajectory.DB{Domain: b.Domain}
		for j := range b.Trajs {
			if int(b.Trajs[j].ID)%5 == i%5 {
				continue
			}
			nb.Trajs = append(nb.Trajs, b.Trajs[j])
		}
		out[i] = nb
	}
	return out
}

func compareSigSets(t *testing.T, got, want []string) {
	t.Helper()
	wantSet := make(map[string]bool, len(want))
	for _, s := range want {
		wantSet[s] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, s := range got {
		gotSet[s] = true
	}
	for _, s := range want {
		if !gotSet[s] {
			t.Errorf("missing gathering %s", s)
		}
	}
	for _, s := range got {
		if !wantSet[s] {
			t.Errorf("extra gathering %s", s)
		}
	}
}

// TestMessyStreamParity is the admission property test: a stream
// perturbed with reordering (within the watermark), duplicate deliveries
// and object churn, pushed through the admission stage, must yield the
// identical gathering set as in-order replay of the same batches. It runs
// three perturbation seeds. Each case keeps the name it had when the
// engine could split into that many stores (the seed was derived from
// the count), so a run selected by name still finds it.
func TestMessyStreamParity(t *testing.T) {
	pipe := testPipeline()
	batches := churn(testWorkload(t, 250, 96, 8))
	mk := func() *Engine {
		e, err := New(Config{Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	base := mk()
	defer base.Close()
	for _, b := range batches {
		if err := base.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	base.Flush()
	want := gatheringSigs(base.Snapshot(Query{}).AllGatherings())
	if len(want) == 0 {
		t.Fatal("in-order run found no gatherings; parity would be vacuous")
	}

	for _, c := range []struct {
		name string
		seed int64
	}{
		{"shards=1/halo=true", 2200},
		{"shards=4/halo=true", 5200},
		{"shards=8/halo=true", 9200},
	} {
		t.Run(c.name, func(t *testing.T) {
			evs := chaos.Perturb(batches, chaos.Config{
				Seed:        c.seed,
				ReorderProb: 0.35, MaxDelay: 3, DupProb: 0.3,
			})
			rc := &stats.ResilienceCounters{}
			adm := admit.New(admit.Config{Watermark: 8, Counters: rc})
			messy := mk()
			defer messy.Close()
			var emits []admit.Emit
			feed := func() {
				for _, em := range emits {
					if err := messy.Append(em.Batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, ev := range evs {
				emits = adm.Offer(ev.Seq, ev.Batch, emits[:0])
				feed()
			}
			emits = adm.Drain(emits[:0])
			feed()
			messy.Flush()

			// Exact parity is only promised for loss-free admission; the
			// chaos config is tuned to stay inside the watermark, and
			// this pins it (deterministic per seed).
			if n := rc.BatchesDropped.Load(); n != 0 {
				t.Fatalf("perturbation escaped the watermark: %d batches dropped — widen it or calm the chaos config", n)
			}
			if rc.BatchesReordered.Load() == 0 || rc.BatchesDuplicate.Load() == 0 {
				t.Fatalf("perturbation was a no-op (reordered=%d duplicate=%d); the parity proves nothing",
					rc.BatchesReordered.Load(), rc.BatchesDuplicate.Load())
			}
			if rc.BatchesAdmitted.Load() != uint64(len(batches)) {
				t.Fatalf("admitted %d batches, stream has %d", rc.BatchesAdmitted.Load(), len(batches))
			}

			compareSigSets(t, gatheringSigs(messy.Snapshot(Query{}).AllGatherings()), want)
		})
	}
}

// TestDroppedBatchNeverSilent: a batch missing from the stream surfaces as
// a counted drop and a filler emission — the engine's tick frontier stays
// aligned and nothing disappears without a tally.
func TestDroppedBatchNeverSilent(t *testing.T) {
	pipe := testPipeline()
	batches := testWorkload(t, 150, 48, 6)
	per := batches[0].Domain.N

	e, err := New(Config{Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rc := &stats.ResilienceCounters{}
	adm := admit.New(admit.Config{Watermark: 4, Counters: rc})
	var emits []admit.Emit
	const lost = 2
	fillers := 0
	for i, b := range batches {
		if i == lost {
			continue
		}
		emits = adm.Offer(uint64(i), b, emits[:0])
		for _, em := range emits {
			if em.Filler {
				fillers++
			}
			if err := e.Append(em.Batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, em := range adm.Drain(nil) {
		if em.Filler {
			fillers++
		}
		if err := e.Append(em.Batch); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	if fillers != 1 {
		t.Errorf("released %d fillers, want exactly 1 for the lost slot", fillers)
	}
	if got := rc.BatchesDropped.Load(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if got := rc.TicksDropped.Load(); got != uint64(per) {
		t.Errorf("ticks dropped = %d, want %d", got, per)
	}
	if got := e.Ticks(); got != 48 {
		t.Errorf("engine frontier at %d ticks, want 48 — the filler failed to keep domains aligned", got)
	}
}

// TestApplyPanicQuarantines: an injected panic during an apply must
// quarantine the engine — not crash the process, not deadlock the
// pipeline, not answer from a poisoned store — be visible in the counters,
// and heal on a checkpoint restore.
func TestApplyPanicQuarantines(t *testing.T) {
	sites := []geo.Point{{X: 1000, Y: 1000}, {X: 40000, Y: 1000}}
	db := parkedDB(sites, 12, 24)
	mk := func(fault func(uint64)) *Engine {
		e, err := New(Config{Pipeline: testPipeline(), ApplyFault: fault})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	e := mk(chaos.FaultAt(1))
	for _, b := range db.Batches(6) {
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush() // returning at all proves the pipeline did not deadlock

	if !e.Quarantined() {
		t.Fatal("Quarantined() = false after an apply panic")
	}
	if cs := e.Counters().Snapshot(); cs.ApplyPanics != 1 {
		t.Errorf("ApplyPanics = %d, want 1", cs.ApplyPanics)
	}
	// Later appends drain and advance the frontier; the poisoned store
	// answers nothing.
	if err := e.Append(parkedDB(sites, 12, 4)); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if e.Ticks() != 28 {
		t.Errorf("frontier at %d ticks after quarantine, want 28", e.Ticks())
	}
	if res := e.Snapshot(Query{}); res.Ticks != 0 || len(res.Crowds) != 0 {
		t.Errorf("quarantined engine answered %d crowds at tick %d, want none at 0", len(res.Crowds), res.Ticks)
	}

	// A poisoned store must never reach a checkpoint.
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("SaveState on a quarantined engine: err = %v, want a quarantine refusal", err)
	}

	// A restore from a healthy engine's checkpoint heals it.
	healthy := mk(nil)
	if err := healthy.Append(db); err != nil {
		t.Fatal(err)
	}
	healthy.Flush()
	if err := healthy.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if e.Quarantined() {
		t.Fatal("LoadState left the engine quarantined")
	}
	compareSigSets(t, gatheringSigs(e.Snapshot(Query{}).AllGatherings()),
		gatheringSigs(healthy.Snapshot(Query{}).AllGatherings()))
}

// TestSaveLoadRoundtrip: checkpointing mid-stream and restoring into a
// fresh engine must preserve the incremental state exactly — the restored
// engine, fed the rest of the stream, matches the uninterrupted one.
func TestSaveLoadRoundtrip(t *testing.T) {
	pipe := testPipeline()
	batches := testWorkload(t, 200, 96, 4)

	mk := func() *Engine {
		e, err := New(Config{Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e1 := mk()
	defer e1.Close()
	for _, b := range batches[:2] {
		if err := e1.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e1.Flush()
	var buf bytes.Buffer
	if err := e1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	e2 := mk()
	defer e2.Close()
	if err := e2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if e2.Ticks() != e1.Ticks() {
		t.Fatalf("restored frontier at %d ticks, saved at %d", e2.Ticks(), e1.Ticks())
	}

	for _, e := range []*Engine{e1, e2} {
		for _, b := range batches[2:] {
			if err := e.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}
	compareSigSets(t,
		gatheringSigs(e2.Snapshot(Query{}).AllGatherings()),
		gatheringSigs(e1.Snapshot(Query{}).AllGatherings()))
}

// TestLoadStateMismatches: a checkpoint must refuse to restore into an
// engine with different thresholds. (A checkpoint with more than one
// store section is TestShardCountMismatch's, in internal/recovery.)
func TestLoadStateMismatches(t *testing.T) {
	pipe := testPipeline()
	batches := testWorkload(t, 100, 24, 2)
	e1, err := New(Config{Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	for _, b := range batches {
		if err := e1.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e1.Flush()
	var buf bytes.Buffer
	if err := e1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	wrong := pipe
	wrong.MC = pipe.MC + 2
	e3, err := New(Config{Pipeline: wrong})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if err := e3.LoadState(bytes.NewReader(saved)); err == nil || !strings.Contains(err.Error(), "thresholds") {
		t.Fatalf("params mismatch: err = %v, want a thresholds complaint", err)
	}
}

// TestLoadStateRefreshesSnapshot: a query answered before LoadState must
// not be served again after it. The memoised read must see a restore,
// which installs a new store without applying any batch.
func TestLoadStateRefreshesSnapshot(t *testing.T) {
	pipe := testPipeline()
	mk := func() *Engine {
		e, err := New(Config{Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	src := mk()
	if err := src.Append(parkedDB([]geo.Point{{X: 1000, Y: 1000}}, 8, 12)); err != nil {
		t.Fatal(err)
	}
	src.Flush()
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	want := gatheringSigs(src.Snapshot(Query{}).AllGatherings())
	if len(want) == 0 {
		t.Fatal("source engine found no gathering; the test needs one")
	}

	e := mk()
	if got := e.Snapshot(Query{}); len(got.Crowds) != 0 {
		t.Fatalf("fresh engine answered %d crowds", len(got.Crowds))
	}
	if err := e.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	res := e.Snapshot(Query{})
	if res.Ticks != src.Ticks() {
		t.Errorf("restored snapshot at %d ticks, want %d", res.Ticks, src.Ticks())
	}
	compareSigSets(t, gatheringSigs(res.AllGatherings()), want)
}
