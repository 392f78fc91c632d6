// Package server is gatherserve as a library. One Config, validated in
// one place, builds the streaming engine, the watermark admission stage
// (internal/engine/admit), the WAL and checkpoints (internal/recovery)
// and, in cluster mode, the node runtime (internal/cluster). Run recovers
// the durable state and drives one ingest loop; Handler serves the
// crowds and gatherings as GeoJSON. Each admitted batch is logged to the
// WAL before it is applied, so a killed server restores the checkpoint,
// replays the log and resumes with an identical gathering set, dropping
// the batches a restarted feed re-delivers as duplicates. In a cluster
// the server given a feed is the ingest front, forwarding each batch's
// remote sub-batches to their owners; reads are scatter-gather and
// degrade to a partial answer (HTTP 200, X-Gather-Partial) when a peer
// is unreachable.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof" // registers the profiling handlers on http.DefaultServeMux
	"strconv"
	"strings"
	"sync/atomic"
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
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// Config is one gatherserve run, field for field the command's flags (the
// flag names are in the comments); DefaultConfig holds their defaults.
type Config struct {
	In       string        // -in: trajectory CSV, read by Feed; empty on a cluster member
	Ticks    int           // -ticks: ticks in the analysis domain
	Step     float64       // -step: tick width in input time units
	Batch    int           // -batch: ticks per ingest batch
	Interval time.Duration // -interval: delay between batches; 0 replays at full speed

	Eps      float64 // -eps: DBSCAN epsilon in metres
	MinPts   int     // -minpts: DBSCAN density threshold
	MC, KC   int     // -mc, -kc: crowd support and lifetime thresholds
	Delta    float64 // -delta: crowd variation threshold in metres
	KP, MP   int     // -kp, -mp: participator lifetime and gathering support thresholds
	Searcher string  // -searcher: brute, sr, ir or grid

	Watermark       int    // -watermark: admission reorder window in batches
	Checkpoint      string // -checkpoint: checkpoint file; empty = no checkpoints
	WAL             string // -wal: write-ahead log file; empty = no WAL
	CheckpointEvery int    // -checkpoint-every: admitted batches between checkpoints; 0 = only on shutdown
	WALSync         string // -wal-sync: always, checkpoint or off (wal.ParseSyncMode)

	Cluster          string        // -cluster: membership map JSON; empty = standalone
	Node             string        // -node: this node's id in the map
	ForwardDeadline  time.Duration // -forward-deadline: retry wall-time for one forwarded sub-batch
	AttemptTimeout   time.Duration // -attempt-timeout: one cluster HTTP attempt
	BreakerThreshold int           // -breaker-threshold: consecutive failures that open a peer's breaker
	BreakerCooldown  time.Duration // -breaker-cooldown: open time before a half-open probe
	RetrySeed        int64         // -retry-seed: forward retry jitter seed

	Addr    string // -addr: HTTP listen address (the command owns the listener)
	Oneshot bool   // -oneshot: ingest everything, print the gatherings, exit
	Pprof   bool   // -pprof: serve net/http/pprof under /debug/pprof/
}

// DefaultConfig returns the command's flag defaults; the thresholds are
// the paper's (gatherings.DefaultConfig).
func DefaultConfig() Config {
	p := gatherings.DefaultConfig()
	return Config{
		Ticks: 288, Step: 1, Batch: 24,
		Eps: p.Eps, MinPts: p.MinPts, MC: p.MC, KC: p.KC, Delta: p.Delta,
		KP: p.KP, MP: p.MP, Searcher: p.Searcher,
		Watermark: admit.DefaultWatermark, CheckpointEvery: 16, WALSync: "always",
		ForwardDeadline: 30 * time.Second, AttemptTimeout: 2 * time.Second,
		BreakerThreshold: 5, BreakerCooldown: 3 * time.Second,
		Addr: ":8080",
	}
}

// Validate checks the settings no component below checks for itself.
func (c Config) Validate() error {
	switch {
	case c.Cluster != "" && c.Oneshot:
		return errors.New("-oneshot and -cluster are incompatible")
	case c.Batch <= 0:
		return fmt.Errorf("-batch must be > 0, got %d", c.Batch)
	}
	_, err := wal.ParseSyncMode(c.WALSync)
	return err
}

// Feed reads the In CSV into the feed Run replays (trajectory.LoadCSV):
// the domain starts at the earliest sample and has Ticks ticks of width
// Step. It returns nil when In is empty, as on a cluster member.
func (c Config) Feed() (*gatherings.DB, error) {
	if c.In == "" {
		return nil, nil
	}
	return trajectory.LoadCSV(c.In, c.Ticks, c.Step)
}

// Server is one gatherserve node: engine, admission, durability, the
// cluster runtime when configured, and the HTTP surface over them.
type Server struct {
	cfg      Config
	eng      *gatherings.Engine
	node     *cluster.Node // nil in standalone mode
	resil    *stats.ResilienceCounters
	clCounts *stats.ClusterCounters
	mux      *http.ServeMux
	// ready flips once Run has restored the checkpoint and replayed the
	// WAL; until then /readyz answers 503 and forwards are refused.
	ready atomic.Bool
}

// New validates cfg and builds the server; nothing is ingested or served
// until Run and Handler are used. Close releases it.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ec := gatherings.DefaultEngineConfig()
	p := &ec.Pipeline
	p.Eps, p.MinPts, p.MC, p.KC, p.Delta = cfg.Eps, cfg.MinPts, cfg.MC, cfg.KC, cfg.Delta
	p.KP, p.MP, p.Searcher = cfg.KP, cfg.MP, cfg.Searcher
	eng, err := gatherings.NewEngine(ec)
	if err != nil {
		return nil, err
	}

	s := &Server{cfg: cfg, eng: eng, resil: &stats.ResilienceCounters{}, clCounts: &stats.ClusterCounters{}}
	if cfg.Cluster != "" {
		m, err := cluster.LoadMap(cfg.Cluster)
		if err == nil {
			s.node, err = cluster.NewNode(cluster.NodeConfig{
				Map:              m,
				Self:             cluster.NodeID(cfg.Node),
				Engine:           eng,
				GatherParams:     gathering.Params{KC: cfg.KC, KP: cfg.KP, MP: cfg.MP},
				Counters:         s.clCounts,
				Ready:            s.Ready,
				AttemptTimeout:   cfg.AttemptTimeout,
				ForwardDeadline:  cfg.ForwardDeadline,
				BreakerThreshold: cfg.BreakerThreshold,
				BreakerCooldown:  cfg.BreakerCooldown,
				Seed:             cfg.RetrySeed,
				Logf:             log.Printf,
			})
		}
		if err != nil {
			eng.Close()
			return nil, err
		}
		log.Printf("cluster: node %q of %d members, map version %d", cfg.Node, len(m.Nodes), m.Version)
	}
	s.mux = s.routes()
	return s, nil
}

// Ready reports whether Run has finished recovery.
func (s *Server) Ready() bool { return s.ready.Load() }

// Engine is the server's engine, for in-process reads such as -oneshot.
func (s *Server) Engine() *gatherings.Engine { return s.eng }

// Handler serves the query surface and, in a cluster, the data plane.
func (s *Server) Handler() http.Handler { return s.mux }

// Run restores the checkpoint, replays the WAL, marks the server ready and
// runs the ingest loop until feed is exhausted or ctx is done, checked
// between batches. It admits feed's batches in order (a cluster front
// first forwards their remote sub-batches), or with a nil feed the
// forwards a cluster member receives. After recovery every return takes
// one exit path: drain admission (unless applying failed), flush the
// engine, write the final checkpoint and close the WAL. Call Run once.
func (s *Server) Run(ctx context.Context, feed *gatherings.DB) error {
	mode, _ := wal.ParseSyncMode(s.cfg.WALSync) // checked by Validate
	mgr, err := recovery.Open(s.eng, recovery.Options{
		CheckpointPath: s.cfg.Checkpoint,
		WALPath:        s.cfg.WAL,
		Every:          s.cfg.CheckpointEvery,
		Sync:           mode,
		Counters:       s.resil,
	})
	if err != nil {
		return err
	}
	if n := s.resil.WALReplayed.Load(); n > 0 || mgr.NextSeq() > 0 {
		log.Printf("recovered: %d batches from checkpoint, %d replayed from WAL, frontier at batch %d",
			mgr.NextSeq()-n, n, mgr.NextSeq())
	}
	s.ready.Store(true)

	// The admission stage starts at the recovered frontier: batches the
	// restarted feed re-delivers below it are duplicates, dropped.
	adm := admit.New(admit.Config{
		Watermark:     s.cfg.Watermark,
		Start:         mgr.NextSeq(),
		TicksPerBatch: s.cfg.Batch,
		Counters:      s.resil,
	})
	var batches []*gatherings.DB
	if feed != nil {
		batches = feed.Batches(s.cfg.Batch)
	}
	var emits []admit.Emit
	for i := 0; ; i++ {
		seq, b, ok := s.next(ctx, batches, i)
		if !ok {
			emits = adm.Drain(emits[:0])
			err = s.apply(mgr, emits)
			break
		}
		emits = adm.Offer(seq, b, emits[:0])
		if err = s.apply(mgr, emits); err != nil {
			break
		}
	}
	s.eng.Flush()
	if cerr := mgr.Close(); err == nil {
		err = cerr
	}
	log.Printf("ingest done: %d ticks applied", s.eng.Ticks())
	return err
}

// next returns the i-th (seq, batch) to admit, or false once the feed is
// exhausted or ctx is done. A cluster member without a feed takes
// forwards from the inbox; on shutdown it still admits those already
// acknowledged.
func (s *Server) next(ctx context.Context, batches []*gatherings.DB, i int) (uint64, *gatherings.DB, bool) {
	if batches == nil && s.node != nil {
		select {
		case fwd := <-s.node.Inbox():
			return fwd.Seq, fwd.Batch, true
		case <-ctx.Done():
		}
		select {
		case fwd := <-s.node.Inbox():
			return fwd.Seq, fwd.Batch, true
		default:
			return 0, nil, false
		}
	}
	if i == len(batches) || ctx.Err() != nil {
		return 0, nil, false
	}
	if i > 0 && s.cfg.Interval > 0 {
		select {
		case <-ctx.Done():
			return 0, nil, false
		case <-time.After(s.cfg.Interval):
		}
	}
	b := batches[i]
	if s.node != nil {
		b = s.node.Route(uint64(i), b)
	}
	return uint64(i), b, true
}

// apply logs and applies the admission stage's released batches in order:
// WAL append first (write-ahead), then the engine, then the checkpoint
// bookkeeping. Append blocks while the engine is backlogged.
func (s *Server) apply(mgr *recovery.Manager, emits []admit.Emit) error {
	for _, em := range emits {
		if em.Filler {
			log.Printf("ingest: batch %d lost beyond the watermark; advancing with an empty filler", em.Seq)
		}
		if err := mgr.Log(em.Seq, em.Batch); err != nil {
			return err
		}
		if err := s.eng.Append(em.Batch); err != nil {
			return err
		}
		if err := mgr.Applied(); err != nil {
			return err
		}
	}
	return nil
}

// Close drains the cluster forward queues (every enqueued sub-batch still
// gets its full retry budget), then flushes and closes the engine. Call
// it once, after Run has returned; queries stay valid afterwards.
func (s *Server) Close() {
	if s.node != nil {
		s.node.Close()
	}
	s.eng.Flush()
	s.eng.Close()
}

// routes builds the HTTP surface on a dedicated mux, not
// http.DefaultServeMux: importing net/http/pprof registers its handlers on
// the default mux, and only Pprof routes /debug/pprof/ there.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/gatherings", func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, true) })
	mux.HandleFunc("/crowds", func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, false) })
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ticks applied:       %d\n", s.eng.Ticks())
		s.eng.Counters().Snapshot().Fprint(w)
		s.resil.Snapshot().Fprint(w)
		if s.node != nil {
			s.clCounts.Snapshot().Fprint(w)
			fmt.Fprintf(w, "peer breakers:       %s\n", strings.Join(s.node.BreakerStates(), " "))
		}
		fmt.Fprintf(w, "quarantined:         %t\n", s.eng.Quarantined())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.node != nil && s.node.Degraded() {
			// Alive but with an open peer breaker: still 200, since the
			// node serves partial answers, but visibly degraded.
			fmt.Fprintln(w, "degraded")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "recovering: checkpoint restore / WAL replay in progress", http.StatusServiceUnavailable)
			return
		}
		if s.eng.Quarantined() {
			http.Error(w, gatherings.ErrEngineQuarantined.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.node != nil {
		mux.HandleFunc(rpc.ForwardPath, s.node.HandleForward)
		mux.HandleFunc(rpc.LocalPath, s.node.HandleLocal)
	}
	if s.cfg.Pprof {
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		log.Printf("pprof enabled on %s/debug/pprof/", s.cfg.Addr)
	}
	return mux
}

// serveQuery answers one snapshot query, local or scatter-gather, as
// GeoJSON. X-Gather-Ticks is the answer's tick frontier (in a cluster the
// minimum over the members that answered: its staleness bound); peers that
// did not answer are named in X-Gather-Unreachable, with X-Gather-Partial.
// A quarantined engine answers 503: its store no longer holds the stream's
// state, so an empty answer would be wrong, not merely stale.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, gatheringsOnly bool) {
	q, err := parseQuery(r, gatheringsOnly)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var res *gatherings.EngineResult
	if s.node != nil {
		var meta cluster.PartialMeta
		res, meta = s.node.Query(r.Context(), q)
		if len(meta.Unreachable) > 0 {
			ids := make([]string, len(meta.Unreachable))
			for i, id := range meta.Unreachable {
				ids[i] = string(id)
			}
			w.Header().Set("X-Gather-Partial", "true")
			w.Header().Set("X-Gather-Unreachable", strings.Join(ids, ","))
		}
	} else {
		res = s.eng.Snapshot(q)
	}
	if s.eng.Quarantined() {
		http.Error(w, gatherings.ErrEngineQuarantined.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("X-Gather-Ticks", strconv.Itoa(res.Ticks))
	w.Header().Set("Content-Type", "application/geo+json")
	if err := geojson.Export(w, res.Crowds, res.Gatherings, nil); err != nil {
		log.Printf("query: %v", err)
	}
}

// parseQuery reads the optional from/to tick window, bbox and limit.
func parseQuery(r *http.Request, gatheringsOnly bool) (gatherings.EngineQuery, error) {
	q := gatherings.EngineQuery{GatheringsOnly: gatheringsOnly}
	var err error
	if q.Window, err = parseWindow(r); err != nil {
		return q, err
	}
	if bbox := r.FormValue("bbox"); bbox != "" {
		rect, err := parseBBox(bbox)
		if err != nil {
			return q, err
		}
		q.Bounds = &rect
	}
	if lim := r.FormValue("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit %q", lim)
		}
		q.Limit = n
	}
	return q, nil
}

// parseWindow reads the from/to tick bounds; either may be omitted, and a
// missing side defaults to the open end of the ingested range. It returns
// nil when both are omitted.
func parseWindow(r *http.Request) (*gatherings.TickWindow, error) {
	fs, ts := r.FormValue("from"), r.FormValue("to")
	if fs == "" && ts == "" {
		return nil, nil
	}
	w := &gatherings.TickWindow{To: math.MaxInt32}
	if fs != "" {
		n, err := strconv.Atoi(fs)
		if err != nil {
			return nil, fmt.Errorf("bad from tick %q", fs)
		}
		w.From = gatherings.Tick(n)
	}
	if ts != "" {
		n, err := strconv.Atoi(ts)
		if err != nil {
			return nil, fmt.Errorf("bad to tick %q", ts)
		}
		w.To = gatherings.Tick(n)
	}
	if w.From > w.To {
		return nil, fmt.Errorf("empty tick window: from %d > to %d", w.From, w.To)
	}
	return w, nil
}

// parseBBox parses "minx,miny,maxx,maxy" into a finite, non-inverted
// rectangle.
func parseBBox(s string) (geo.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geo.Rect{}, fmt.Errorf("bbox wants minx,miny,maxx,maxy, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return geo.Rect{}, fmt.Errorf("bad bbox coordinate %q", p)
		}
		v[i] = f
	}
	if v[0] > v[2] || v[1] > v[3] {
		return geo.Rect{}, fmt.Errorf("bbox %q has min > max", s)
	}
	return geo.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, nil
}
