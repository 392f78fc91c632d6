package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/geo"
)

// FuzzLoadState asserts that LoadState, the reader of every engine
// checkpoint, never panics on arbitrary bytes, as given or with their
// store sections' checksums recomputed; that a refused checkpoint leaves
// the engine's frontier and answers exactly as they were; and that an
// accepted one saves into bytes that load again into the same frontier
// and answer. The seeds are real SaveState output and the same store
// section written twice, as a build running -shards 2 laid it out.
func FuzzLoadState(f *testing.F) {
	pipe := testPipeline()
	// Two sites 4 km apart, each parking 8 objects for 12 ticks: a small
	// checkpoint with a gathering on each site.
	batches := parkedDB([]geo.Point{{X: 1000, Y: 1000}, {X: 5000, Y: 1000}}, 8, 12).Batches(6)
	mk := func() *Engine {
		e, err := New(Config{Pipeline: pipe})
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
	// the target to the base checkpoint, so a refused load has a
	// non-empty state to preserve, and the engines' goroutines sit idle
	// instead of adding per-execution coverage noise.
	target, again := mk(), mk()
	for _, b := range batches {
		if err := target.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	target.Flush()
	base := save(f, target)
	f.Add(base)
	two := binary.LittleEndian.AppendUint32(nil, 2)
	f.Add(append(append(two, base[4:]...), base[4:]...))

	check := func(t *testing.T, data []byte) {
		if err := target.LoadState(bytes.NewReader(base)); err != nil {
			t.Fatalf("base checkpoint does not load: %v", err)
		}
		before, answer := storeSig(target), snapshotSig(target)
		if err := target.LoadState(bytes.NewReader(data)); err != nil {
			if after := storeSig(target); after != before {
				t.Fatalf("refused checkpoint (%v) changed the store:\n got %s\nwant %s", err, after, before)
			}
			if after := snapshotSig(target); after != answer {
				t.Fatalf("refused checkpoint (%v) changed the answer:\n got %s\nwant %s", err, after, answer)
			}
			return
		}
		if err := again.LoadState(bytes.NewReader(save(t, target))); err != nil {
			t.Fatalf("accepted checkpoint re-saves into bytes that do not load: %v", err)
		}
		if got, want := snapshotSig(again), snapshotSig(target); got != want {
			t.Fatalf("re-saved checkpoint loads into a different state:\n got %s\nwant %s", got, want)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		// A mutation inside a store section almost never keeps that
		// section's checksum right; resealing every whole section lets
		// it reach the store decoder.
		check(t, resealed(data))
	})
}

// resealed returns a copy of a SaveState checkpoint with the CRC-32
// trailer of every whole length-prefixed section recomputed.
func resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	for p := 4; p+8 <= len(out); {
		n := binary.LittleEndian.Uint64(out[p:])
		p += 8
		if n < 4 || n > uint64(len(out)-p) {
			break
		}
		sec := out[p : p+int(n)]
		binary.LittleEndian.PutUint32(sec[n-4:], crc32.ChecksumIEEE(sec[:n-4]))
		p += int(n)
	}
	return out
}

// storeSig renders the engine's frontier and the identity of its store:
// a refused LoadState must install nothing.
func storeSig(e *Engine) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fmt.Sprintf("ticks=%d %p/%v", e.Ticks(), e.store, e.quarantined)
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
