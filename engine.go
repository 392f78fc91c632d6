package gatherings

import (
	"runtime"

	"repro/internal/engine"
)

// The streaming engine: a thread-safe service over the §III-C incremental
// algorithm. An Engine is one incremental store behind a two-stage
// pipeline — a router goroutine clusters each batch once while an applier
// goroutine applies the previous one — and answers snapshot queries for
// the current closed crowds and gatherings, filtered by time window and
// bounding box.
type (
	// Engine is the concurrent streaming-discovery service.
	Engine = engine.Engine
	// EngineConfig configures the pipeline thresholds and the per-batch
	// clustering build's parallelism.
	EngineConfig = engine.Config
	// EngineQuery selects crowds and gatherings from an engine snapshot;
	// the zero value matches everything.
	EngineQuery = engine.Query
	// EngineResult is one snapshot answer (crowds with their gatherings).
	EngineResult = engine.Result
	// TickWindow is an inclusive tick interval for EngineQuery.
	TickWindow = engine.TickWindow
)

// Engine ingest errors.
var (
	// ErrQueueFull is returned by Engine.TryAppend when the engine's
	// routing goroutine is not waiting for a batch.
	ErrQueueFull = engine.ErrQueueFull
	// ErrEngineClosed is returned by appends after Engine.Close.
	ErrEngineClosed = engine.ErrClosed
	// ErrEngineQuarantined names the state Engine.Quarantined reports:
	// an apply panicked and the engine's store is no longer trusted.
	ErrEngineQuarantined = engine.ErrQuarantined
)

// DefaultEngineConfig returns the paper's pipeline defaults wrapped in a
// serving-oriented engine setup: one incremental store (the §III-C
// algorithm over one state, as Theorem 2 defines it) behind a clustering
// build with per-tick parallelism of one per CPU.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{Pipeline: DefaultConfig(), Workers: runtime.GOMAXPROCS(0)}
}

// NewEngine creates a streaming engine and starts its router and applier
// goroutines. Close it to stop them; queries remain valid afterwards.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }
