// Command gatherserve tails a trajectory CSV into the streaming engine as
// timed batches and serves the discovered crowds and gatherings over HTTP
// as GeoJSON — the serving-path counterpart of the one-shot gatherfind.
//
// Usage:
//
//	gatherserve -in traj.csv [-ticks 288] [-step 1] [-batch 24] [-interval 0]
//	            [-eps 200] [-minpts 5] [-mc 15] [-kc 20] [-delta 300]
//	            [-kp 15] [-mp 10] [-searcher grid]
//	            [-watermark 8] [-checkpoint state.ckpt] [-wal state.wal]
//	            [-checkpoint-every 16] [-wal-sync always]
//	            [-cluster map.json -node a] [-forward-deadline 30s]
//	            [-attempt-timeout 2s] [-breaker-threshold 5]
//	            [-breaker-cooldown 3s] [-retry-seed 0]
//	            [-addr :8080] [-oneshot] [-pprof]
//
// The CSV is replayed in batches of -batch ticks, one every -interval
// (immediately when zero), through watermark admission (-watermark), the
// optional write-ahead log and checkpoints (-wal, -checkpoint,
// -checkpoint-every, -wal-sync) and the engine, one incremental store;
// internal/server documents each stage. A checkpoint written by an older
// sharded build (more than one store section) is refused at startup with
// an error naming its section count. While ingestion runs, the server
// answers:
//
//	GET /gatherings?from=0&to=100&bbox=minx,miny,maxx,maxy&limit=50
//	    crowds that currently hold a closed gathering, as GeoJSON
//	GET /crowds?...   every closed crowd, same filters
//	GET /stats        ingest/query/resilience counters and the tick frontier
//	GET /healthz      liveness
//	GET /readyz       readiness: 503 until checkpoint restore and WAL
//	                  replay finish, 200 once the engine serves live state
//
// A malformed filter (a non-numeric or inverted tick window, a bbox that is
// not four finite coordinates with min ≤ max, a negative limit) answers
// 400. Every answer carries its tick frontier in X-Gather-Ticks. If an
// apply panics, the engine is quarantined: /gatherings, /crowds and
// /readyz answer 503 naming it, and /stats shows "quarantined: true",
// until a restart restores the last checkpoint.
//
// With -cluster map.json -node <id> the server is one node of a cluster
// (internal/cluster): the node with -in is the ingest front and forwards
// per-owner sub-batches to the others; reads are scatter-gather and a dead
// peer degrades them to HTTP 200 with X-Gather-Partial and
// X-Gather-Unreachable. All nodes must run the same map and pipeline flags.
//
// -wal-sync picks the WAL durability point: always (fsync per append),
// checkpoint (fsync only at checkpoints), off (the OS decides). See
// docs/INVARIANTS.md for the crash-loss tradeoff. With -pprof the
// net/http/pprof handlers are served under /debug/pprof/:
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
// With -oneshot the whole file is ingested, the gatherings GeoJSON is
// written to stdout, and the process exits without serving.
//
// SIGINT/SIGTERM stop the feed at the next batch and the listener; in-
// flight queries get 15s, then the final checkpoint is written, forward
// queues drain and the engine is flushed and closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	gatherings "repro"
	"repro/internal/geojson"
	"repro/internal/server"
)

func main() {
	cfg := server.DefaultConfig()
	flag.StringVar(&cfg.In, "in", cfg.In, "input trajectory CSV (required)")
	flag.IntVar(&cfg.Ticks, "ticks", cfg.Ticks, "number of ticks in the analysis domain")
	flag.Float64Var(&cfg.Step, "step", cfg.Step, "tick width in input time units")
	flag.IntVar(&cfg.Batch, "batch", cfg.Batch, "ticks per ingest batch")
	flag.DurationVar(&cfg.Interval, "interval", cfg.Interval, "delay between batches (0 = replay at full speed)")

	flag.Float64Var(&cfg.Eps, "eps", cfg.Eps, "DBSCAN epsilon (metres)")
	flag.IntVar(&cfg.MinPts, "minpts", cfg.MinPts, "DBSCAN density threshold m")
	flag.IntVar(&cfg.MC, "mc", cfg.MC, "crowd support threshold mc")
	flag.IntVar(&cfg.KC, "kc", cfg.KC, "crowd lifetime threshold kc (ticks)")
	flag.Float64Var(&cfg.Delta, "delta", cfg.Delta, "variation threshold delta (metres)")
	flag.IntVar(&cfg.KP, "kp", cfg.KP, "participator lifetime threshold kp (ticks)")
	flag.IntVar(&cfg.MP, "mp", cfg.MP, "gathering support threshold mp")
	flag.StringVar(&cfg.Searcher, "searcher", cfg.Searcher, "range search scheme: brute, sr, ir or grid")

	flag.IntVar(&cfg.Watermark, "watermark", cfg.Watermark, "admission reorder window in batches: out-of-order batches within it are re-sequenced, beyond it dropped and counted")
	flag.StringVar(&cfg.Checkpoint, "checkpoint", cfg.Checkpoint, "checkpoint file: incremental state saved every -checkpoint-every batches and restored on startup (empty = no checkpoints)")
	flag.StringVar(&cfg.WAL, "wal", cfg.WAL, "write-ahead log file: admitted batches logged before apply and replayed after a crash (empty = no WAL)")
	flag.IntVar(&cfg.CheckpointEvery, "checkpoint-every", cfg.CheckpointEvery, "admitted batches between checkpoints; 0 checkpoints only on clean shutdown")
	flag.StringVar(&cfg.WALSync, "wal-sync", cfg.WALSync, "WAL durability point: always (fsync per append), checkpoint (fsync only at checkpoints and close), off (the OS decides) — see docs/INVARIANTS.md")

	flag.StringVar(&cfg.Cluster, "cluster", cfg.Cluster, "membership map JSON: run as one node of a multi-node cluster (requires -node)")
	flag.StringVar(&cfg.Node, "node", cfg.Node, "this node's id in the -cluster membership map")
	flag.DurationVar(&cfg.ForwardDeadline, "forward-deadline", cfg.ForwardDeadline, "total retry wall-time for one forwarded sub-batch before it is dropped and counted")
	flag.DurationVar(&cfg.AttemptTimeout, "attempt-timeout", cfg.AttemptTimeout, "timeout of a single cluster HTTP attempt")
	flag.IntVar(&cfg.BreakerThreshold, "breaker-threshold", cfg.BreakerThreshold, "consecutive peer failures that open its circuit breaker")
	flag.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", cfg.BreakerCooldown, "how long an open breaker waits before a half-open probe")
	flag.Int64Var(&cfg.RetrySeed, "retry-seed", cfg.RetrySeed, "seed for cluster forward retry jitter; any fixed value makes backoff schedules replayable")

	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "HTTP listen address")
	flag.BoolVar(&cfg.Oneshot, "oneshot", cfg.Oneshot, "ingest everything, print gatherings GeoJSON, exit")
	flag.BoolVar(&cfg.Pprof, "pprof", cfg.Pprof, "serve net/http/pprof handlers under /debug/pprof/ for live profiling")
	flag.Parse()
	if cfg.In == "" && cfg.Cluster == "" {
		flag.Usage()
		os.Exit(2)
	}
	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	// In cluster mode only the ingest front has -in and a feed.
	feed, err := cfg.Feed()
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel ctx, which stops the feed and the listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.Oneshot {
		if err := s.Run(ctx, feed); err != nil {
			fatal(err)
		}
		res := s.Engine().Snapshot(gatherings.EngineQuery{GatheringsOnly: true})
		if err := geojson.Export(os.Stdout, res.Crowds, res.Gatherings, nil); err != nil {
			fatal(err)
		}
		return
	}

	// A server that cannot reconstruct its durable state must not serve
	// from an unknown one: a failed Run ends the process.
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		if err := s.Run(ctx, feed); err != nil {
			fatal(err)
		}
	}()

	// Header and read timeouts bound what a slow client can pin per
	// connection; the handle makes graceful shutdown possible. No write
	// timeout: a large GeoJSON export over a slow link is legitimate.
	srv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	log.Printf("serving on %s", cfg.Addr)
	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down: draining queries")
	shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// The cancelled context stops the ingest loop, which writes its final
	// checkpoint and closes the WAL before signalling done; only then is
	// it safe to close the engine under it.
	log.Printf("shutting down: stopping ingest")
	<-ingestDone
	log.Printf("shutting down: draining forwards, flushing engine")
	s.Close()
	log.Printf("shutdown complete: %d ticks applied", s.Engine().Ticks())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gatherserve:", err)
	os.Exit(1)
}
