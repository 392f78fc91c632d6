package chaos

import (
	"reflect"
	"testing"

	"repro/internal/trajectory"
)

func testBatches(n int) []*trajectory.DB {
	out := make([]*trajectory.DB, n)
	for i := range out {
		out[i] = &trajectory.DB{Domain: trajectory.TimeDomain{
			Start: float64(i * 4), Step: 1, N: 4,
		}}
	}
	return out
}

func TestPerturbDeterministic(t *testing.T) {
	batches := testBatches(50)
	cfg := Config{Seed: 7, ReorderProb: 0.4, MaxDelay: 3, DupProb: 0.3, DropProb: 0.1}
	a := Perturb(batches, cfg)
	b := Perturb(batches, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and config produced different event streams")
	}
	cfg.Seed = 8
	if reflect.DeepEqual(a, Perturb(batches, cfg)) {
		t.Fatal("different seeds produced identical event streams — seed is dead")
	}
}

func TestPerturbLosslessWithoutDrops(t *testing.T) {
	batches := testBatches(60)
	evs := Perturb(batches, Config{Seed: 3, ReorderProb: 0.5, MaxDelay: 3, DupProb: 0.4})
	count := map[uint64]int{}
	for _, ev := range evs {
		count[ev.Seq]++
		if ev.Batch != batches[ev.Seq] {
			t.Fatalf("seq %d delivered with the wrong batch", ev.Seq)
		}
	}
	dups := 0
	for i := range batches {
		c := count[uint64(i)]
		if c < 1 {
			t.Errorf("seq %d never delivered despite DropProb 0", i)
		}
		if c > 2 {
			t.Errorf("seq %d delivered %d times; one duplicate max", i, c)
		}
		if c == 2 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("DupProb 0.4 over 60 batches produced no duplicates")
	}
}

// TestPerturbDelayBound sweeps seeds with reordering alone and checks
// the MaxDelay contract: no event is delivered more than MaxDelay
// positions after its sequence number.
func TestPerturbDelayBound(t *testing.T) {
	for _, n := range []int{40, 200} {
		batches := testBatches(n)
		for _, cfg := range []Config{
			{ReorderProb: 0.2, MaxDelay: 4},
			{ReorderProb: 0.5, MaxDelay: 3},
			{ReorderProb: 0.9, MaxDelay: 1},
			{ReorderProb: 1, MaxDelay: 8},
		} {
			for seed := int64(0); seed < 300; seed++ {
				cfg.Seed = seed
				evs := Perturb(batches, cfg)
				if len(evs) != n {
					t.Fatalf("n=%d %+v: %d events delivered, want %d", n, cfg, len(evs), n)
				}
				for i, ev := range evs {
					if slip := i - int(ev.Seq); slip > cfg.MaxDelay {
						t.Fatalf("n=%d %+v: seq %d delivered at %d, %d positions late (MaxDelay %d)",
							n, cfg, ev.Seq, i, slip, cfg.MaxDelay)
					}
				}
			}
		}
	}
}

func TestPerturbDropsEverything(t *testing.T) {
	evs := Perturb(testBatches(20), Config{Seed: 1, DropProb: 1})
	if len(evs) != 0 {
		t.Fatalf("DropProb 1 still delivered %d events", len(evs))
	}
}

// fires exercises a fault plan over apply sequences 0 to seqs-1 and
// records which applies panic.
func fires(f func(uint64), seqs int) map[uint64]bool {
	out := map[uint64]bool{}
	for q := uint64(0); q < uint64(seqs); q++ {
		func() {
			defer func() {
				if recover() != nil {
					out[q] = true
				}
			}()
			f(q)
		}()
	}
	return out
}

func TestFaultsDeterministic(t *testing.T) {
	a := fires(Faults(11, 32, 0.2), 32)
	b := fires(Faults(11, 32, 0.2), 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault plans")
	}
	if len(a) == 0 {
		t.Fatal("prob 0.2 over 32 applies faulted nothing")
	}
	// Applies outside the precomputed plan never fault.
	if len(fires(Faults(11, 32, 1), 40)) != 32 {
		t.Fatal("faults fired outside the precomputed seq bound")
	}
}

func TestFaultAt(t *testing.T) {
	got := fires(FaultAt(3, 0), 5)
	want := map[uint64]bool{3: true, 0: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FaultAt fired at %v, want %v", got, want)
	}
}
