// Package chaos is the fault-injection harness for the streaming ingest
// path. It perturbs an in-order batch stream the way real feeds do —
// delaying, reordering, duplicating and dropping batches — and injects
// shard-apply panics into the engine, all deterministically from an
// explicit seed so every failure a test finds is replayable.
//
// Perturb works on (sequence, batch) events, the admission stage's input
// alphabet: the sequence numbers are assigned from the original in-order
// positions, then the delivery order and multiplicity are mangled. What
// the admitter must reconstruct — and the property tests assert it does —
// is the original sequence.
package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/trajectory"
)

// Event is one delivery of a batch under its stream sequence number.
type Event struct {
	Seq   uint64
	Batch *trajectory.DB
}

// Config configures a perturbation. Zero values disable the respective
// fault; all randomness comes from Seed.
type Config struct {
	// Seed drives every random choice. The same seed, batches and config
	// produce the identical event stream.
	Seed int64
	// ReorderProb is the probability a batch is delayed behind its
	// successors.
	ReorderProb float64
	// MaxDelay bounds, in delivery positions, how far a reordered batch
	// slips and how late a duplicate re-delivery lands. Zero means 3.
	// Keep it at or below the admitter's watermark for loss-free streams.
	MaxDelay int
	// DupProb is the probability a delivered batch is delivered again,
	// up to MaxDelay positions later.
	DupProb float64
	// DropProb is the probability a batch is never delivered at all.
	DropProb float64
}

// Perturb returns the delivery stream of batches under cfg: sequence
// numbers follow the original order, delivery does not. The batches
// themselves are shared, not copied.
func Perturb(batches []*trajectory.DB, cfg Config) []Event {
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxDelay := cfg.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 3
	}

	evs := make([]Event, len(batches))
	for i, b := range batches {
		evs[i] = Event{Seq: uint64(i), Batch: b}
	}

	// Reorder: a selected event slips 1..MaxDelay positions behind its
	// successors (rotate it rightwards).
	for i := 0; i < len(evs); i++ {
		if rng.Float64() < cfg.ReorderProb {
			j := i + 1 + rng.Intn(maxDelay)
			if j >= len(evs) {
				j = len(evs) - 1
			}
			ev := evs[i]
			copy(evs[i:j], evs[i+1:j+1])
			evs[j] = ev
		}
	}

	// Duplicates: a selected event is re-delivered 0..MaxDelay positions
	// after its (possibly reordered) delivery.
	dups := make(map[int][]Event)
	ndups := 0
	for i, ev := range evs {
		if rng.Float64() < cfg.DupProb {
			at := i + rng.Intn(maxDelay+1)
			dups[at] = append(dups[at], ev)
			ndups++
		}
	}

	// Drops: a selected batch never arrives (its duplicate re-delivery,
	// if any, still might — real networks do that too).
	out := make([]Event, 0, len(evs)+ndups)
	for i, ev := range evs {
		if rng.Float64() >= cfg.DropProb {
			out = append(out, ev)
		}
		out = append(out, dups[i]...)
	}
	// Re-deliveries scheduled past the end of the stream.
	for i := len(evs); i < len(evs)+maxDelay+1; i++ {
		out = append(out, dups[i]...)
	}
	return out
}

// Faults builds a deterministic shard-apply fault plan for
// engine.Config.ApplyFault: each (shard, applySeq) pair panics with
// probability prob, decided up front from the seed — so the plan is
// reproducible no matter how the engine's shard goroutines interleave.
// shards and seqs bound the precomputed plan; applies outside it never
// fault.
func Faults(seed int64, shards, seqs int, prob float64) func(shard int, seq uint64) {
	rng := rand.New(rand.NewSource(seed))
	plan := make(map[[2]uint64]bool)
	for s := 0; s < shards; s++ {
		for q := 0; q < seqs; q++ {
			if rng.Float64() < prob {
				plan[[2]uint64{uint64(s), uint64(q)}] = true
			}
		}
	}
	return func(shard int, seq uint64) {
		if plan[[2]uint64{uint64(shard), seq}] {
			panic(fmt.Sprintf("chaos: injected apply fault at shard %d seq %d", shard, seq))
		}
	}
}

// FaultAt builds a fault plan that panics exactly at the given (shard,
// applySeq) pairs — the scalpel to Faults' shotgun.
func FaultAt(pairs ...[2]int) func(shard int, seq uint64) {
	plan := make(map[[2]uint64]bool, len(pairs))
	for _, p := range pairs {
		plan[[2]uint64{uint64(p[0]), uint64(p[1])}] = true
	}
	return func(shard int, seq uint64) {
		if plan[[2]uint64{uint64(shard), seq}] {
			panic(fmt.Sprintf("chaos: injected apply fault at shard %d seq %d", shard, seq))
		}
	}
}
