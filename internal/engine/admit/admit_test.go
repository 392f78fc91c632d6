package admit

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// batch builds a distinct-content batch for sequence seq: per ticks wide,
// domain positioned where the admitter expects slot seq to live.
func batch(seq, per int) *trajectory.DB {
	return &trajectory.DB{Domain: trajectory.TimeDomain{
		Start: float64(seq * per), Step: 1, N: per,
	}}
}

func seqs(ems []Emit) []uint64 {
	out := make([]uint64, len(ems))
	for i, e := range ems {
		out[i] = e.Seq
	}
	return out
}

func wantSeqs(t *testing.T, ems []Emit, want ...uint64) {
	t.Helper()
	got := seqs(ems)
	if len(got) != len(want) {
		t.Fatalf("released %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("released %v, want %v", got, want)
		}
	}
}

func TestInOrderPassThrough(t *testing.T) {
	c := &stats.ResilienceCounters{}
	a := New(Config{Watermark: 4, Counters: c})
	for i := 0; i < 6; i++ {
		out := a.Offer(uint64(i), batch(i, 4), nil)
		wantSeqs(t, out, uint64(i))
		if out[0].Filler {
			t.Fatalf("in-order batch %d released as filler", i)
		}
	}
	if got := c.BatchesAdmitted.Load(); got != 6 {
		t.Errorf("admitted %d, want 6", got)
	}
	for name, v := range map[string]uint64{
		"reordered": c.BatchesReordered.Load(),
		"late":      c.BatchesLate.Load(),
		"duplicate": c.BatchesDuplicate.Load(),
		"dropped":   c.BatchesDropped.Load(),
	} {
		if v != 0 {
			t.Errorf("%s = %d on a clean in-order stream", name, v)
		}
	}
}

func TestReorderWithinWatermark(t *testing.T) {
	c := &stats.ResilienceCounters{}
	a := New(Config{Watermark: 4, Counters: c})

	wantSeqs(t, a.Offer(1, batch(1, 4), nil)) // early: parked
	if a.buffered != 1 {
		t.Fatalf("buffered = %d after parking one batch", a.buffered)
	}
	// The missing predecessor releases the whole run.
	wantSeqs(t, a.Offer(0, batch(0, 4), nil), 0, 1)
	if a.buffered != 0 {
		t.Fatalf("buffered = %d after the run drained", a.buffered)
	}
	if c.BatchesReordered.Load() != 1 {
		t.Errorf("reordered = %d, want 1", c.BatchesReordered.Load())
	}
	if c.BatchesAdmitted.Load() != 2 {
		t.Errorf("admitted = %d, want 2", c.BatchesAdmitted.Load())
	}
}

func TestDuplicateSequence(t *testing.T) {
	c := &stats.ResilienceCounters{}
	a := New(Config{Watermark: 4, Counters: c})

	a.Offer(0, batch(0, 4), nil)
	// Released slot re-offered: duplicate.
	wantSeqs(t, a.Offer(0, batch(0, 4), nil))
	// Parked slot re-offered: duplicate too.
	a.Offer(2, batch(2, 4), nil)
	wantSeqs(t, a.Offer(2, batch(2, 4), nil))
	if got := c.BatchesDuplicate.Load(); got != 2 {
		t.Errorf("duplicate = %d, want 2", got)
	}
	if got := c.BatchesAdmitted.Load(); got != 1 {
		t.Errorf("admitted = %d, want 1", got)
	}
}

func TestDuplicateContentUnderNewSequence(t *testing.T) {
	c := &stats.ResilienceCounters{}
	a := New(Config{Watermark: 4, Counters: c})

	b0 := batch(0, 4)
	a.Offer(0, b0, nil)
	// A producer retry that bumped its counter: same content, next seq.
	wantSeqs(t, a.Offer(1, b0, nil))
	if got := c.BatchesDuplicate.Load(); got != 1 {
		t.Fatalf("duplicate = %d, want 1", got)
	}
	// The real batch 1 still goes through.
	wantSeqs(t, a.Offer(1, batch(1, 4), nil), 1)
	if got := c.BatchesAdmitted.Load(); got != 2 {
		t.Errorf("admitted = %d, want 2", got)
	}
}

func TestBeyondWatermarkAbandonsAndCountsLate(t *testing.T) {
	c := &stats.ResilienceCounters{}
	a := New(Config{Watermark: 4, Counters: c})

	a.Offer(0, batch(0, 4), nil)
	// Seq 8 is 4 slots past the watermark: slots 1-4 are forced out as
	// fillers, 8 itself parks.
	out := a.Offer(8, batch(8, 4), nil)
	wantSeqs(t, out, 1, 2, 3, 4)
	for _, e := range out {
		if !e.Filler {
			t.Fatalf("abandoned slot %d released without the filler mark", e.Seq)
		}
		if e.Batch.Domain.N != 4 || e.Batch.Domain.Start != float64(e.Seq*4) {
			t.Fatalf("filler %d has domain %+v, want start %d width 4",
				e.Seq, e.Batch.Domain, e.Seq*4)
		}
		if len(e.Batch.Trajs) != 0 {
			t.Fatalf("filler %d carries trajectories", e.Seq)
		}
	}
	if got := c.BatchesDropped.Load(); got != 4 {
		t.Errorf("dropped = %d, want 4", got)
	}
	if got := c.TicksDropped.Load(); got != 16 {
		t.Errorf("ticks dropped = %d, want 16", got)
	}

	// An abandoned slot arriving now is late-beyond-watermark, once; a
	// second arrival of the same slot is a plain duplicate.
	wantSeqs(t, a.Offer(2, batch(2, 4), nil))
	if got := c.BatchesLate.Load(); got != 1 {
		t.Errorf("late = %d, want 1", got)
	}
	wantSeqs(t, a.Offer(2, batch(2, 4), nil))
	if got := c.BatchesDuplicate.Load(); got != 1 {
		t.Errorf("duplicate = %d, want 1", got)
	}

	// Drain abandons the gap in front of the parked 8 and releases it.
	out = a.Drain(nil)
	wantSeqs(t, out, 5, 6, 7, 8)
	if !out[0].Filler || !out[1].Filler || !out[2].Filler || out[3].Filler {
		t.Fatalf("Drain filler marks wrong: %+v", out)
	}
	if got := c.BatchesDropped.Load(); got != 7 {
		t.Errorf("dropped = %d after drain, want 7", got)
	}
	if got := c.BatchesAdmitted.Load(); got != 2 {
		t.Errorf("admitted = %d, want 2 (seqs 0 and 8)", got)
	}
}

// TestForcedAdvanceReleasesParkedFrontier: a forced watermark advance
// that stops on a parked batch must release it at once. Otherwise a
// re-delivery of that sequence is released in its place, the parked copy
// is stranded, Pending never reaches zero and Drain never returns.
func TestForcedAdvanceReleasesParkedFrontier(t *testing.T) {
	c := &stats.ResilienceCounters{}
	a := New(Config{Watermark: 2, Counters: c})

	wantSeqs(t, a.Offer(1, batch(1, 4), nil)) // parks ahead of the gap at 0
	// Seq 2 forces the watermark past slot 0, which stops on the parked 1.
	out := a.Offer(2, batch(2, 4), nil)
	wantSeqs(t, out, 0, 1, 2)
	if !out[0].Filler || out[1].Filler || out[2].Filler {
		t.Fatalf("filler marks wrong: %+v", out)
	}
	wantSeqs(t, a.Offer(1, batch(1, 4), nil)) // the re-delivery
	if got := c.BatchesDuplicate.Load(); got != 1 {
		t.Errorf("duplicate = %d, want 1 for the re-delivered batch 1", got)
	}
	if got := c.BatchesAdmitted.Load(); got != 2 {
		t.Errorf("admitted = %d, want 2 (batch 1 exactly once, then 2)", got)
	}
	// Checked before Drain: a stranded slot would make it loop forever.
	if a.buffered != 0 {
		t.Fatalf("buffered = %d after the stream, want 0", a.buffered)
	}
	wantSeqs(t, a.Drain(nil))
	if a.next != 3 {
		t.Fatalf("next = %d, want 3", a.next)
	}
}

func TestStartSeedsResumeFrontier(t *testing.T) {
	c := &stats.ResilienceCounters{}
	a := New(Config{Watermark: 4, Start: 5, Counters: c})

	// A producer replaying its feed from the beginning after a recovery:
	// already-applied sequences are duplicates, the frontier batch admits.
	wantSeqs(t, a.Offer(3, batch(3, 4), nil))
	if got := c.BatchesDuplicate.Load(); got != 1 {
		t.Fatalf("pre-frontier batch counted as %d duplicates, want 1", got)
	}
	wantSeqs(t, a.Offer(5, batch(5, 4), nil), 5)
	if a.next != 6 {
		t.Fatalf("next = %d, want 6", a.next)
	}
}

// TestOfferAllocs is the ISSUE's hot-path guard: admitting an in-order
// stream must not allocate per batch (beyond the batches themselves, made
// before the clock starts).
func TestOfferAllocs(t *testing.T) {
	const runs = 200
	bs := make([]*trajectory.DB, runs+2)
	for i := range bs {
		bs[i] = batch(i, 4)
	}
	a := New(Config{Watermark: 8})
	var out []Emit
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		out = a.Offer(uint64(i), bs[i], out[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Offer allocates %.1f times per in-order batch, want 0", allocs)
	}
}

// TestFingerprintDistinguishesBatches: every 2-tick batch of a generated
// day gets its own fingerprint, an identical copy of a batch gets the
// same one, and moving any one endpoint coordinate by one ulp changes it.
func TestFingerprintDistinguishesBatches(t *testing.T) {
	g := gen.Default()
	g.NumTaxis = 200
	g.TicksPerDay = 96
	batches := gen.Generate(g).Batches(2)
	seen := make(map[uint64]int, len(batches))
	for i, b := range batches {
		fp := fingerprint(b)
		if j, ok := seen[fp]; ok {
			t.Fatalf("batches %d and %d share fingerprint %#x", j, i, fp)
		}
		seen[fp] = i
	}

	orig := batches[len(batches)/2]
	cp := &trajectory.DB{Domain: orig.Domain, Trajs: make([]trajectory.Trajectory, len(orig.Trajs))}
	for i, tr := range orig.Trajs {
		cp.Trajs[i] = trajectory.Trajectory{ID: tr.ID, Samples: append([]trajectory.Sample(nil), tr.Samples...)}
	}
	want := fingerprint(orig)
	if got := fingerprint(cp); got != want {
		t.Fatalf("identical copy fingerprints %#x, original %#x", got, want)
	}
	moved := 0
	for i := range cp.Trajs {
		ss := cp.Trajs[i].Samples
		if len(ss) == 0 {
			continue
		}
		for _, s := range []*trajectory.Sample{&ss[0], &ss[len(ss)-1]} {
			for _, c := range []*float64{&s.P.X, &s.P.Y} {
				old := *c
				*c = math.Nextafter(old, math.Inf(1))
				if fingerprint(cp) == want {
					t.Fatalf("trajectory %d: one-ulp move of an endpoint coordinate %v kept the fingerprint", cp.Trajs[i].ID, old)
				}
				*c = old
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("the batch has no samples to move")
	}
	if got := fingerprint(cp); got != want {
		t.Fatalf("restored copy fingerprints %#x, original %#x", got, want)
	}
}
