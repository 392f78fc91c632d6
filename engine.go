package gatherings

import (
	"runtime"

	"repro/internal/engine"
)

// The streaming engine: a thread-safe, sharded service over the §III-C
// incremental algorithm. An Engine ingests trajectory batches through one
// routing goroutine and one goroutine per shard, each draining a bounded
// task channel, while answering snapshot queries for the current closed
// crowds and gatherings, filtered by time window and
// bounding box. See EngineConfig for the sharding and concurrency knobs.
type (
	// Engine is the concurrent streaming-discovery service.
	Engine = engine.Engine
	// EngineConfig configures sharding, the global build's parallelism,
	// the bounded ingest queue and the grid-cell partitioner.
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
	// discovered whole and deduplicated at query time.
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
// serving-oriented engine setup: one shard per CPU, a global clustering
// build with per-tick parallelism of one per CPU, and a grid-cell
// partitioner with 3 km cells (10×δ, comfortably larger than a gathering
// site) so spatial density stays intact within each shard. The
// partitioner's halo margin of 4×δ enables the cluster-once pipeline:
// each batch is clustered once globally and boundary clusters are shared
// as views with adjacent shards, so groups straddling a cell edge are
// discovered whole and deduplicated at query time — multi-shard recall
// matches a single incremental store at roughly the single-pass
// clustering cost.
func DefaultEngineConfig() EngineConfig {
	ncpu := runtime.GOMAXPROCS(0)
	cfg := DefaultConfig()
	return EngineConfig{
		Pipeline:    cfg,
		Shards:      ncpu,
		Workers:     ncpu,
		Partitioner: GridCellPartitioner{CellSize: 10 * cfg.Delta, Halo: 4 * cfg.Delta},
	}
}

// NewEngine creates a streaming engine and starts its routing and shard
// goroutines. Close it to stop them; queries remain valid afterwards.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }
