// Command gatherserve tails a trajectory CSV into the streaming engine as
// timed batches and serves the discovered crowds and gatherings over HTTP
// as GeoJSON — the serving-path counterpart of the one-shot gatherfind.
//
// Usage:
//
//	gatherserve -in traj.csv [-ticks 288] [-step 1] [-batch 24] [-interval 0]
//	            [-shards 0] [-workers 0] [-queue 0]
//	            [-cell 3000] [-halo 1200]
//	            [-eps 200] [-minpts 5] [-mc 15] [-kc 20] [-delta 300]
//	            [-kp 15] [-mp 10] [-searcher grid]
//	            [-watermark 8] [-checkpoint state.ckpt] [-wal state.wal]
//	            [-checkpoint-every 16] [-wal-sync always]
//	            [-cluster map.json -node a] [-forward-deadline 30s]
//	            [-attempt-timeout 2s] [-breaker-threshold 5]
//	            [-breaker-cooldown 3s] [-hedge 0]
//	            [-retry-seed 0]
//	            [-addr :8080] [-oneshot] [-pprof]
//
// The CSV is replayed in batches of -batch ticks, one every -interval
// (immediately when zero), through the engine's bounded ingest queue:
// one routing goroutine DBSCAN-clusters each batch once globally
// (-workers ticks at a time) and routes its clusters to the shards by
// -cell grid cell, sharing clusters within -halo of a cell edge as views
// with the adjacent shards (see internal/engine); every shard goroutine
// buffers up to -queue/-shards tasks, so a backlogged engine blocks the
// feed rather than dropping batches.
//
// Every batch passes the watermark admission stage (internal/engine/admit)
// before the engine: out-of-order batches within -watermark are
// re-sequenced, duplicates are dropped, and a batch lost beyond the
// watermark is replaced by an empty filler (logged and counted on /stats)
// so the tick domain stays aligned. With -checkpoint and/or -wal the
// admitted stream is made durable: each batch is appended to the
// write-ahead log before it is applied, and every -checkpoint-every
// batches the per-shard incremental state is checkpointed and the log
// truncated. A killed server restores the checkpoint, replays the log,
// and resumes with an identical gathering set — re-delivered batches from
// the restarted feed are classified as duplicates and dropped. While
// ingestion runs, the server answers:
//
//	GET /gatherings?from=0&to=100&bbox=minx,miny,maxx,maxy&limit=50
//	    crowds that currently hold a closed gathering, as GeoJSON
//	GET /crowds?...   every closed crowd, same filters
//	GET /stats        ingest/query/resilience counters and the tick frontier
//	GET /healthz      liveness
//	GET /readyz       readiness: 503 until checkpoint restore and WAL
//	                  replay finish, 200 once the engine serves live state
//
// With -cluster map.json -node <id> the server runs as one member of a
// multi-node cluster (internal/cluster): the membership map assigns grid
// cells to nodes, the node with -in becomes the ingest front — it cuts
// every batch into per-owner sub-batches and forwards them over HTTP with
// retries, backoff and per-peer circuit breakers — and nodes started
// without -in ingest only what is forwarded to them. Every node runs the
// same admit→WAL→engine pipeline on its sub-stream, so restarts recover
// from checkpoint+WAL and re-delivered forwards drop as duplicates.
// /gatherings and /crowds become scatter-gather reads across the
// membership: a dead or partitioned peer degrades the answer to a partial
// result — HTTP 200 with X-Gather-Partial and X-Gather-Unreachable
// headers, never a 5xx — and /healthz reports "degraded" while any peer's
// breaker is open. All nodes of one cluster must run the same membership
// map (checked by version) and the same pipeline flags.
//
// -wal-sync picks the WAL durability point: always (fsync per append),
// checkpoint (fsync only at checkpoints), off (the OS decides). See
// docs/INVARIANTS.md for the crash-loss tradeoff.
//
// With -pprof the net/http/pprof handlers are additionally served under
// /debug/pprof/, so a live ingest can be profiled in place:
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
// With -oneshot the whole file is ingested, the gatherings GeoJSON is
// written to stdout, and the process exits without serving.
//
// SIGINT/SIGTERM shut the server down gracefully: the listener stops, in-
// flight queries get 15s to finish, then the engine is flushed and closed
// so every applied batch is consistent before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	gatherings "repro"
	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/engine/admit"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/geojson"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/wal"
)

func main() {
	var (
		in       = flag.String("in", "", "input trajectory CSV (required)")
		ticks    = flag.Int("ticks", 288, "number of ticks in the analysis domain")
		step     = flag.Float64("step", 1, "tick width in input time units")
		batch    = flag.Int("batch", 24, "ticks per ingest batch")
		interval = flag.Duration("interval", 0, "delay between batches (0 = replay at full speed)")

		shards  = flag.Int("shards", 0, "engine shards (0 = one per CPU)")
		workers = flag.Int("workers", 0, "per-tick parallelism of the global clustering build (0 = one per shard)")
		queue   = flag.Int("queue", 0, "ingest queue depth in shard tasks, split evenly across the shards (0 = 4×shards)")
		cell    = flag.Float64("cell", 0, "grid partition cell size in metres (0 = 10×delta)")
		halo    = flag.Float64("halo", -1, "grid partition halo margin in metres: boundary clusters are shared as views with adjacent shards, with duplicates merged at query time (-1 = 4×delta, 0 = no replication)")

		eps      = flag.Float64("eps", 200, "DBSCAN epsilon (metres)")
		minpts   = flag.Int("minpts", 5, "DBSCAN density threshold m")
		mc       = flag.Int("mc", 15, "crowd support threshold mc")
		kc       = flag.Int("kc", 20, "crowd lifetime threshold kc (ticks)")
		delta    = flag.Float64("delta", 300, "variation threshold delta (metres)")
		kp       = flag.Int("kp", 15, "participator lifetime threshold kp (ticks)")
		mp       = flag.Int("mp", 10, "gathering support threshold mp")
		searcher = flag.String("searcher", "grid", "range search scheme: brute, sr, ir or grid")

		watermark = flag.Int("watermark", admit.DefaultWatermark, "admission reorder window in batches: out-of-order batches within it are re-sequenced, beyond it dropped and counted")
		ckptPath  = flag.String("checkpoint", "", "checkpoint file: per-shard incremental state saved every -checkpoint-every batches and restored on startup (empty = no checkpoints)")
		walPath   = flag.String("wal", "", "write-ahead log file: admitted batches logged before apply and replayed after a crash (empty = no WAL)")
		ckptEvery = flag.Int("checkpoint-every", 16, "admitted batches between checkpoints; 0 checkpoints only on clean shutdown")
		walSync   = flag.String("wal-sync", "always", "WAL durability point: always (fsync per append), checkpoint (fsync only at checkpoints and close), off (the OS decides) — see docs/INVARIANTS.md")

		clusterMap = flag.String("cluster", "", "membership map JSON: run as one node of a multi-node cluster (requires -node)")
		nodeID     = flag.String("node", "", "this node's id in the -cluster membership map")
		fwdDL      = flag.Duration("forward-deadline", 30*time.Second, "total retry wall-time for one forwarded sub-batch before it is dropped and counted")
		attemptTO  = flag.Duration("attempt-timeout", 2*time.Second, "timeout of a single cluster HTTP attempt")
		brkThresh  = flag.Int("breaker-threshold", 5, "consecutive peer failures that open its circuit breaker")
		brkCool    = flag.Duration("breaker-cooldown", 3*time.Second, "how long an open breaker waits before a half-open probe")
		hedge      = flag.Duration("hedge", 0, "hedged-read delay for scatter-gather queries: a second request launches if the first has not answered within this (0 = no hedging)")

		retrySeed = flag.Int64("retry-seed", 0, "seed for cluster forward retry jitter; any fixed value makes backoff schedules replayable")

		addr    = flag.String("addr", ":8080", "HTTP listen address")
		oneshot = flag.Bool("oneshot", false, "ingest everything, print gatherings GeoJSON, exit")
		pprofOn = flag.Bool("pprof", false, "serve net/http/pprof handlers under /debug/pprof/ for live profiling")
	)
	flag.Parse()
	if *in == "" && *clusterMap == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *clusterMap != "" && *oneshot {
		fatal(fmt.Errorf("-oneshot and -cluster are incompatible"))
	}
	syncMode, err := wal.ParseSyncMode(*walSync)
	if err != nil {
		fatal(err)
	}

	// In cluster mode only the ingest front has -in; the other nodes ingest
	// what the front forwards to them.
	var db *gatherings.DB
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		trajs, err := gatherings.ReadTrajectoriesCSV(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if len(trajs) == 0 {
			fatal(fmt.Errorf("no trajectories in %s", *in))
		}
		start := math.Inf(1)
		for i := range trajs {
			if s, _, ok := trajs[i].Lifespan(); ok && s < start {
				start = s
			}
		}
		db = &gatherings.DB{
			Trajs:  trajs,
			Domain: gatherings.TimeDomain{Start: start, Step: *step, N: *ticks},
		}
		if err := db.Validate(); err != nil {
			fatal(err)
		}
	}
	if *batch <= 0 {
		fatal(fmt.Errorf("-batch must be > 0, got %d", *batch))
	}

	cfg := gatherings.DefaultEngineConfig()
	cfg.Pipeline.Eps, cfg.Pipeline.MinPts = *eps, *minpts
	cfg.Pipeline.MC, cfg.Pipeline.KC, cfg.Pipeline.Delta = *mc, *kc, *delta
	cfg.Pipeline.KP, cfg.Pipeline.MP = *kp, *mp
	cfg.Pipeline.Searcher = *searcher
	// Zero flag values keep DefaultEngineConfig's resolution (one shard
	// per CPU, build parallelism of one per shard, queue of 4×shards).
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *queue > 0 {
		cfg.QueueDepth = *queue
	}
	cellSize := *cell
	if cellSize == 0 {
		cellSize = 10 * *delta
	}
	haloSize := *halo
	switch {
	case haloSize == -1:
		haloSize = 4 * *delta
	case haloSize < 0:
		fatal(fmt.Errorf("-halo must be ≥ 0 (or -1 for the 4×delta default), got %v", haloSize))
	}
	cfg.Partitioner = gatherings.GridCellPartitioner{CellSize: cellSize, Halo: haloSize}

	eng, err := gatherings.NewEngine(cfg)
	if err != nil {
		fatal(err)
	}

	// On SIGINT/SIGTERM: stop the ingest loop, stop accepting queries,
	// drain in-flight ones, checkpoint, then flush and close the engine.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// ready flips once checkpoint restore and WAL replay finish; until
	// then /readyz answers 503 while /healthz stays a bare liveness probe.
	var ready atomic.Bool
	resil := &stats.ResilienceCounters{}
	clCounters := &stats.ClusterCounters{}

	// Cluster mode: build the node runtime before ingest and serving start,
	// so the receive path can take forwards from the first request on.
	var clNode *cluster.Node
	if *clusterMap != "" {
		m, err := cluster.LoadMap(*clusterMap)
		if err != nil {
			fatal(err)
		}
		clNode, err = cluster.NewNode(cluster.NodeConfig{
			Map:              m,
			Self:             cluster.NodeID(*nodeID),
			Engine:           eng,
			GatherParams:     gathering.Params{KC: *kc, KP: *kp, MP: *mp},
			Counters:         clCounters,
			Ready:            func() bool { return ready.Load() },
			AttemptTimeout:   *attemptTO,
			ForwardDeadline:  *fwdDL,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCool,
			Hedge:            *hedge,
			Seed:             *retrySeed,
			Logf:             log.Printf,
		})
		if err != nil {
			fatal(err)
		}
		role := "member"
		if db != nil {
			role = "ingest front"
		}
		log.Printf("cluster: node %q (%s) of %d members, map version %d", *nodeID, role, len(m.Nodes), m.Version)
	}

	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		// Recovery first: restore the checkpoint, replay the WAL. A server
		// that cannot reconstruct its durable state must not serve from an
		// unknown one.
		mgr, err := recovery.Open(eng, recovery.Options{
			CheckpointPath: *ckptPath,
			WALPath:        *walPath,
			Every:          *ckptEvery,
			Sync:           syncMode,
			Counters:       resil,
		})
		if err != nil {
			fatal(err)
		}
		if n := resil.WALReplayed.Load(); n > 0 || mgr.NextSeq() > 0 {
			log.Printf("recovered: %d batches from checkpoint, %d replayed from WAL, frontier at batch %d",
				mgr.NextSeq()-n, n, mgr.NextSeq())
		}
		ready.Store(true)

		// The admission stage starts at the recovered frontier: batches the
		// restarted feed re-delivers below it are duplicates, dropped.
		adm := admit.New(admit.Config{
			Watermark:     *watermark,
			Start:         mgr.NextSeq(),
			TicksPerBatch: *batch,
			Counters:      resil,
		})
		var emits []admit.Emit

		if db == nil {
			// Cluster member without a feed: ingest what the front
			// forwards, until shutdown.
			for {
				select {
				case <-ctx.Done():
					// Best-effort: release anything parked in the reorder
					// buffer before the final checkpoint (with the front's
					// ordered per-peer forwarding it is empty in practice).
					emits = adm.Drain(emits[:0])
					if err := applyEmits(eng, mgr, emits); err != nil {
						logIngestEnd(err)
					}
					eng.Flush()
					closeManager(mgr)
					return
				case fwd := <-clNode.Inbox():
					emits = adm.Offer(fwd.Seq, fwd.Batch, emits[:0])
					if err := applyEmits(eng, mgr, emits); err != nil {
						logIngestEnd(err)
						closeManager(mgr)
						return
					}
				}
			}
		}

		// Feed loop: the standalone server, or the cluster's ingest front —
		// which first forwards every remote sub-batch and then applies its
		// own through the same pipeline.
		for i, b := range db.Batches(*batch) {
			if clNode != nil {
				b = clNode.Route(uint64(i), b)
			}
			emits = adm.Offer(uint64(i), b, emits[:0])
			if err := applyEmits(eng, mgr, emits); err != nil {
				logIngestEnd(err)
				closeManager(mgr)
				return
			}
			if *interval > 0 {
				select {
				case <-ctx.Done():
					closeManager(mgr)
					return
				case <-time.After(*interval):
				}
			}
		}
		emits = adm.Drain(emits[:0])
		if err := applyEmits(eng, mgr, emits); err != nil {
			logIngestEnd(err)
			closeManager(mgr)
			return
		}
		eng.Flush()
		closeManager(mgr)
		log.Printf("ingest done: %d ticks applied", eng.Ticks())
	}()

	if *oneshot {
		<-ingestDone
		res := eng.Snapshot(gatherings.EngineQuery{GatheringsOnly: true})
		if err := geojson.Export(os.Stdout, res.Crowds, res.Gatherings, nil); err != nil {
			fatal(err)
		}
		eng.Close()
		return
	}

	// A dedicated mux, not http.DefaultServeMux: importing net/http/pprof
	// registers its handlers on the default mux unconditionally, and they
	// must be served only when -pprof asks for them.
	mux := http.NewServeMux()
	mux.HandleFunc("/gatherings", func(w http.ResponseWriter, r *http.Request) {
		serveQuery(w, r, eng, clNode, true)
	})
	mux.HandleFunc("/crowds", func(w http.ResponseWriter, r *http.Request) {
		serveQuery(w, r, eng, clNode, false)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ticks applied:       %d\n", eng.Ticks())
		eng.Counters().Snapshot().Fprint(w)
		resil.Snapshot().Fprint(w)
		if clNode != nil {
			clCounters.Snapshot().Fprint(w)
			fmt.Fprintf(w, "peer breakers:       %s\n", strings.Join(clNode.BreakerStates(), " "))
		}
		if q := eng.Quarantined(); len(q) > 0 {
			fmt.Fprintf(w, "quarantined shards:  %v\n", q)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if clNode != nil && clNode.Degraded() {
			// Alive but with an open peer breaker: still 200 — the node
			// serves partial answers — but visibly degraded.
			fmt.Fprintln(w, "degraded")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if clNode != nil {
		mux.HandleFunc(rpc.ForwardPath, clNode.HandleForward)
		mux.HandleFunc(rpc.LocalPath, clNode.HandleLocal)
	}
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "recovering: checkpoint restore / WAL replay in progress", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("pprof enabled on %s/debug/pprof/", *addr)
	}

	// A configured http.Server rather than bare ListenAndServe: header and
	// read timeouts bound what a slow or malicious client can pin per
	// connection, and keeping the handle is what makes graceful shutdown
	// possible at all. Write timeouts are deliberately absent — a large
	// GeoJSON export over a slow link is legitimate.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	log.Printf("serving on %s (%d shards, %g m grid cells, %g m halo)", *addr, cfg.Shards, cellSize, haloSize)
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
	// checkpoint and closes the WAL before signalling done — only then is
	// it safe to close the engine under it.
	log.Printf("shutting down: stopping ingest")
	<-ingestDone
	if clNode != nil {
		// Drain the forward queues: every enqueued sub-batch still gets
		// its full retry budget before the process exits.
		log.Printf("shutting down: draining forwards")
		clNode.Close()
	}
	log.Printf("shutting down: flushing engine")
	eng.Flush()
	eng.Close()
	log.Printf("shutdown complete: %d ticks applied", eng.Ticks())
}

// applyEmits logs and applies the admission stage's released batches, in
// order: WAL append first (write-ahead), then the engine, then the
// checkpoint bookkeeping. Append blocks while the engine is backlogged and
// fails only once the engine is closed.
func applyEmits(eng *gatherings.Engine, mgr *recovery.Manager, emits []admit.Emit) error {
	for _, em := range emits {
		if em.Filler {
			log.Printf("ingest: batch %d lost beyond the watermark; advancing with an empty filler", em.Seq)
		}
		if err := mgr.Log(em.Seq, em.Batch); err != nil {
			return err
		}
		if err := eng.Append(em.Batch); err != nil {
			return err
		}
		if err := mgr.Applied(); err != nil {
			return err
		}
	}
	return nil
}

// logIngestEnd reports why the ingest loop stopped, quietly for the
// expected shutdown paths.
func logIngestEnd(err error) {
	if errors.Is(err, gatherings.ErrEngineClosed) {
		return
	}
	log.Printf("ingest: %v", err)
}

// closeManager writes the final checkpoint and closes the WAL.
func closeManager(mgr *recovery.Manager) {
	if err := mgr.Close(); err != nil {
		log.Printf("recovery: %v", err)
	}
}

// serveQuery parses the filter parameters, runs one snapshot query —
// local, or scatter-gather across the cluster when clNode is set — and
// writes the answer as GeoJSON. A cluster answer always succeeds: when
// peers are unreachable it degrades to the reachable members' state,
// marked with X-Gather-Partial and X-Gather-Unreachable headers, and
// X-Gather-Ticks carries the minimum ingested tick frontier of the
// answer (its staleness bound).
func serveQuery(w http.ResponseWriter, r *http.Request, eng *gatherings.Engine, clNode *cluster.Node, gatheringsOnly bool) {
	q := gatherings.EngineQuery{GatheringsOnly: gatheringsOnly}

	if from, to, ok, err := parseWindow(r); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if ok {
		q.Window = &gatherings.TickWindow{From: from, To: to}
	}
	if bbox := r.FormValue("bbox"); bbox != "" {
		rect, err := parseBBox(bbox)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q.Bounds = &rect
	}
	if lim := r.FormValue("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		q.Limit = n
	}

	var res *gatherings.EngineResult
	if clNode != nil {
		var meta cluster.PartialMeta
		res, meta = clNode.Query(r.Context(), q)
		w.Header().Set("X-Gather-Ticks", strconv.Itoa(meta.Ticks))
		if len(meta.Unreachable) > 0 {
			ids := make([]string, len(meta.Unreachable))
			for i, id := range meta.Unreachable {
				ids[i] = string(id)
			}
			w.Header().Set("X-Gather-Partial", "true")
			w.Header().Set("X-Gather-Unreachable", strings.Join(ids, ","))
		}
	} else {
		res = eng.Snapshot(q)
	}
	w.Header().Set("Content-Type", "application/geo+json")
	if err := geojson.Export(w, res.Crowds, res.Gatherings, nil); err != nil {
		log.Printf("query: %v", err)
	}
}

// parseWindow reads from/to tick bounds; either may be omitted, and a
// missing side defaults to the open end of the ingested range.
func parseWindow(r *http.Request) (from, to gatherings.Tick, ok bool, err error) {
	fs, ts := r.FormValue("from"), r.FormValue("to")
	if fs == "" && ts == "" {
		return 0, 0, false, nil
	}
	to = gatherings.Tick(math.MaxInt32)
	if fs != "" {
		n, err := strconv.Atoi(fs)
		if err != nil {
			return 0, 0, false, fmt.Errorf("bad from tick %q", fs)
		}
		from = gatherings.Tick(n)
	}
	if ts != "" {
		n, err := strconv.Atoi(ts)
		if err != nil {
			return 0, 0, false, fmt.Errorf("bad to tick %q", ts)
		}
		to = gatherings.Tick(n)
	}
	return from, to, true, nil
}

// parseBBox parses "minx,miny,maxx,maxy".
func parseBBox(s string) (geo.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geo.Rect{}, fmt.Errorf("bbox wants minx,miny,maxx,maxy, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geo.Rect{}, fmt.Errorf("bad bbox coordinate %q", p)
		}
		v[i] = f
	}
	return geo.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gatherserve:", err)
	os.Exit(1)
}
