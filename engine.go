package gatherings

import (
	"runtime"

	"repro/internal/engine"
)

// The streaming engine: a thread-safe service over the §III-C incremental
// algorithm. An Engine ingests trajectory batches through one routing
// goroutine and one goroutine per shard (one shard by default), each
// draining a bounded task channel, while answering snapshot queries for
// the current closed crowds and gatherings, filtered by time window and
// bounding box. See EngineConfig for the sharding and concurrency knobs.
type (
	// Engine is the concurrent streaming-discovery service.
	Engine = engine.Engine
	// EngineConfig configures sharding, the global build's parallelism
	// and the grid-cell partitioner.
	EngineConfig = engine.Config
	// EngineQuery selects crowds and gatherings from an engine snapshot;
	// the zero value matches everything.
	EngineQuery = engine.Query
	// EngineResult is one snapshot answer (crowds with their gatherings).
	EngineResult = engine.Result
	// TickWindow is an inclusive tick interval for EngineQuery.
	TickWindow = engine.TickWindow

	// GridCellPartitioner shards by spatial cell, so co-located objects —
	// the stuff of crowds — share a shard. The engine clusters each batch
	// once globally and routes per-tick cluster views: a cluster lives on
	// the shard owning its centroid's cell and shards owning cells within
	// Halo receive views of it, so groups straddling a cell boundary are
	// discovered whole and deduplicated at query time. Its zero value
	// means 10×δ cells and a 4×δ halo; a halo below 4×δ is refused.
	GridCellPartitioner = engine.GridCell
)

// Engine ingest errors.
var (
	// ErrQueueFull is returned by Engine.TryAppend when the engine's
	// routing goroutine is not waiting for a batch.
	ErrQueueFull = engine.ErrQueueFull
	// ErrEngineClosed is returned by appends after Engine.Close.
	ErrEngineClosed = engine.ErrClosed
)

// DefaultEngineConfig returns the paper's pipeline defaults wrapped in a
// serving-oriented engine setup: one incremental store (Shards 1, the
// §III-C algorithm over one state, as Theorem 2 defines it) behind a
// global clustering build with per-tick parallelism of one per CPU. With
// one shard the engine is a two-stage pipeline: the router clusters batch
// k+1 while the store applies batch k, and a read after an apply sorts
// the store's crowds without any cross-shard merge. Sharding is an
// explicit opt-in (Shards > 1): the partitioner, left zero here, then
// resolves from the pipeline's δ to 10×δ cells and a 4×δ halo, boundary
// clusters are shared as views with adjacent shards, and duplicate
// discoveries are merged at read time. On the 2-vCPU hosts measured
// (BENCH_onestore.json) sharding bought no speed and cost a merge per
// read and a larger checkpoint.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{Pipeline: DefaultConfig(), Shards: 1, Workers: runtime.GOMAXPROCS(0)}
}

// NewEngine creates a streaming engine and starts its routing and shard
// goroutines. Close it to stop them; queries remain valid afterwards.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }
