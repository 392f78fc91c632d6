package engine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/geo"
)

// FuzzLoadState asserts that LoadState, the reader of every engine
// checkpoint, never panics on arbitrary bytes; that a refused checkpoint
// leaves the engine's frontier and answers exactly as they were; and that
// an accepted one saves into bytes that load again into the same
// frontier and answer. The seeds are real SaveState output of 1- and
// 2-shard engines.
func FuzzLoadState(f *testing.F) {
	pipe := testPipeline()
	// Two sites in different 3 km cells, each parking 8 objects for 12
	// ticks: small checkpoints with a gathering on each shard of the
	// 2-shard engine.
	batches := parkedDB([]geo.Point{{X: 1000, Y: 1000}, {X: 5000, Y: 1000}}, 8, 12).Batches(6)
	mk := func(shards int) *Engine {
		e, err := New(Config{Pipeline: pipe, Shards: shards, Partitioner: GridCell{CellSize: 3000}})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(e.Close)
		return e
	}
	save := func(t testing.TB, e *Engine) []byte {
		var buf bytes.Buffer
		if err := e.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// The engines live across executions: every execution first resets
	// its target to the base checkpoint, so a refused load has a
	// non-empty state to preserve, and the engines' goroutines sit idle
	// instead of adding per-execution coverage noise.
	var target, again [2]*Engine
	var base [2][]byte
	for k := range target {
		target[k], again[k] = mk(k+1), mk(k+1)
		for _, b := range batches {
			if err := target[k].Append(b); err != nil {
				f.Fatal(err)
			}
		}
		target[k].Flush()
		base[k] = save(f, target[k])
		f.Add(k == 1, base[k])
	}

	f.Fuzz(func(t *testing.T, twoShards bool, data []byte) {
		k := 0
		if twoShards {
			k = 1
		}
		e := target[k]
		if err := e.LoadState(bytes.NewReader(base[k])); err != nil {
			t.Fatalf("base checkpoint does not load: %v", err)
		}
		before, answer := shardSig(e), snapshotSig(e)
		if err := e.LoadState(bytes.NewReader(data)); err != nil {
			if after := shardSig(e); after != before {
				t.Fatalf("refused checkpoint (%v) changed the shards:\n got %s\nwant %s", err, after, before)
			}
			if after := snapshotSig(e); after != answer {
				t.Fatalf("refused checkpoint (%v) changed the answer:\n got %s\nwant %s", err, after, answer)
			}
			return
		}
		if err := again[k].LoadState(bytes.NewReader(save(t, e))); err != nil {
			t.Fatalf("accepted checkpoint re-saves into bytes that do not load: %v", err)
		}
		if got, want := snapshotSig(again[k]), snapshotSig(e); got != want {
			t.Fatalf("re-saved checkpoint loads into a different state:\n got %s\nwant %s", got, want)
		}
	})
}

// shardSig renders the engine's frontier and the identity of every
// shard's store: a refused LoadState must install nothing.
func shardSig(e *Engine) string {
	sig := fmt.Sprintf("ticks=%d", e.Ticks())
	for i, sh := range e.shards {
		sh.mu.RLock()
		sig += fmt.Sprintf(" %d:%p/%v/%d", i, sh.store, sh.quarantined, sh.appliedTicks)
		sh.mu.RUnlock()
	}
	return sig
}

// snapshotSig renders a full snapshot answer: its frontier, crowds and
// gatherings.
func snapshotSig(e *Engine) string {
	res := e.Snapshot(Query{})
	sig := fmt.Sprintf("ticks=%d", res.Ticks)
	for i, c := range res.Crowds {
		sig += fmt.Sprintf(" %d-%d:%v", c.Start, c.End(), gatheringSigs(res.Gatherings[i]))
	}
	return sig
}
