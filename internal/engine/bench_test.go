package engine

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// denseEngine returns a flushed engine holding the dense bench day (the
// repository's Fig. 6 regime: 1,500 taxis, 96 ticks, clusters of hundreds
// of points) ingested in 12-tick batches with gatherserve's defaults: two
// shards, 3 km grid cells and a halo of 4×delta.
func denseEngine(b *testing.B) *Engine {
	b.Helper()
	g := gen.Default()
	g.NumTaxis = 1500
	g.TicksPerDay = 96
	g.JamCommitted = 120
	g.JamChurn = 60
	g.DropGoVisitors = 100
	g.PlatoonSize = 40
	pipe := core.Config{
		Eps: 200, MinPts: 5,
		MC: 10, KC: 10, Delta: 300,
		KP: 8, MP: 8,
		Searcher: "grid",
	}
	e, err := New(Config{Pipeline: pipe, Shards: 2, Partitioner: GridCell{CellSize: 3000, Halo: 4 * pipe.Delta}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	for _, batch := range gen.Generate(g).Batches(12) {
		if err := e.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	e.Flush()
	return e
}

// BenchmarkCheckpoint measures the checkpoint codec alone on the dense
// bench day's state: SaveState into a reused buffer, and LoadState of
// those bytes into a second engine. ckpt-B/op is the checkpoint's size.
func BenchmarkCheckpoint(b *testing.B) {
	e := denseEngine(b)
	var ckpt bytes.Buffer
	if err := e.SaveState(&ckpt); err != nil {
		b.Fatal(err)
	}
	b.Run("Save", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := e.SaveState(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "ckpt-B/op")
	})
	b.Run("Load", func(b *testing.B) {
		target, err := New(e.cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer target.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := target.LoadState(bytes.NewReader(ckpt.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ckpt.Len()), "ckpt-B/op")
	})
}
