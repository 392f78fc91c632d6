// Package engine is the concurrent streaming layer over the paper's
// §III-C incremental algorithm: a thread-safe discovery service that
// ingests trajectory batches while answering snapshot queries.
//
// An Engine is one incremental.Store, the single state Theorem 2 is
// defined over, behind a two-stage pipeline. Append hands a batch to the
// router goroutine over an unbuffered channel; the router DBSCAN-clusters
// it once (§III phase 1, per-tick parallelism of Config.Workers) and sends
// the cluster database to the applier goroutine over a channel buffered to
// applyQueue, so the router clusters batch k+1 while the applier applies
// batch k. Channel FIFO order is the apply order Theorem 2 needs. A full
// apply channel stalls the router, which stalls Append (backpressure);
// TryAppend refuses instead.
//
// The store extends persistent state rather than rebuilding it: crowds
// are prefix-sharing persistent structures (O(1) extension per cluster),
// each live tail crowd's gathering detector grows by exactly the batch's
// ticks, and the discovery sweep, DBSCAN and grid-index scratch are
// pooled — so steady-state per-batch cost is proportional to the batch,
// not the stream age (§III-C, Theorem 2; BenchmarkIncrementalAppend pins
// this flat).
//
// One RWMutex guards the store: the applier takes it to apply, readers
// take its read lock to copy the closed crowds out. The first read after
// an apply sorts them (crowd.Compare) and memoises the sorted list, so
// later reads only filter it. Snapshot results are the store's own
// immutable crowds, shared with it and safe to hold while ingestion
// continues.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/incremental"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// Config configures an Engine.
type Config struct {
	// Pipeline carries the discovery thresholds (DBSCAN, crowd and
	// gathering parameters, searcher scheme).
	Pipeline core.Config

	// Workers is the per-tick parallelism of the cluster-once DBSCAN
	// build. Zero means one. It sizes no goroutine pool: the engine runs
	// exactly one router and one applier goroutine.
	Workers int

	// Deprecated: Partitioner is ignored; the engine is one store and
	// routes nothing. ROADMAP item 16 deletes it.
	Partitioner GridCell

	// ApplyFault, when non-nil, is called before every apply, under the
	// engine's write lock, with the apply sequence (0 for the first
	// batch) — a fault-injection hook for the chaos harness
	// (internal/chaos). A panic it raises is recovered by the applier and
	// quarantines the engine instead of crashing the process. Production
	// configurations leave it nil.
	ApplyFault func(seq uint64)
}

// GridCell is the partitioner of the deleted sharded engine.
//
// Deprecated: GridCell is ignored; ROADMAP item 16 deletes it.
type GridCell struct {
	CellSize float64
	Halo     float64
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	return c
}

// Validate reports the first configuration error, after defaulting.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Pipeline.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("engine: Workers must be ≥ 1, got %d", c.Workers)
	}
	return nil
}

// applyQueue is how many clustered batches the router may run ahead of
// the applier before it stalls: enough for the router to cluster a few
// batches while the store applies, few enough that the clustered batches
// waiting in memory stay bounded.
const applyQueue = 4

// Errors returned by the ingest side.
var (
	// ErrQueueFull is returned by TryAppend when the routing goroutine is
	// not waiting for a batch.
	ErrQueueFull = errors.New("engine: ingest queue full")
	// ErrClosed is returned by Append and TryAppend after Close.
	ErrClosed = errors.New("engine: closed")
	// ErrQuarantined names the state Quarantined reports, for callers
	// that refuse to serve it.
	ErrQuarantined = errors.New("engine: quarantined after an apply panic; restore a checkpoint to recover")
)

// task is one unit on the engine's channels. On the router's input it
// carries a whole batch; on the apply channel, the batch's cluster
// database. A task with a barrier is a Flush: the router forwards it, and
// the applier closes it once every earlier task is applied.
type task struct {
	batch   *trajectory.DB
	cdb     *snapshot.CDB
	barrier chan struct{}
}

// entry is one closed crowd of the store with its gatherings.
type entry struct {
	crowd   *crowd.Crowd
	gathers []*gathering.Gathering
}

// sorted is the memoised read: the store's closed crowds in crowd.Compare
// order, as of state version ver.
type sorted struct {
	ver     uint64
	entries []entry
	ticks   int
}

// Engine is the concurrent streaming-discovery service. Create
// one with New; all methods are safe for concurrent use.
type Engine struct {
	cfg Config

	// in hands batches and Flush barriers to the router. It is
	// unbuffered, so a send completes only when the router takes it: once
	// the router has stopped, no Append can succeed.
	in chan task
	// applies carries clustered batches from the router to the applier.
	applies   chan task
	done      chan struct{} // closed by Close; stops the router
	closeOnce sync.Once
	wg        sync.WaitGroup // the router and the applier

	// unapplied counts batches handed to the engine but not yet applied.
	// Flush on an idle engine sees zero and returns without waking any
	// goroutine.
	unapplied atomic.Int64

	// mu guards store, quarantined and version; readers take RLock, the
	// applier and LoadState take Lock.
	mu    sync.RWMutex
	store *incremental.Store
	// quarantined marks a store whose apply panicked: it is no longer
	// trusted, later batches are discarded (the tick frontier still
	// advances), and snapshots answer nothing. A checkpoint restore
	// replaces the store and clears the flag.
	quarantined bool
	// version changes whenever the store does: on every apply and on
	// every LoadState. It keys the memoised read.
	version uint64

	// ticks is the applied tick frontier, written under mu and read
	// lock-free. It keeps counting discarded batches after quarantine.
	ticks atomic.Int64
	// read is the memoised sorted read, replaced whole by the first
	// Snapshot after each version change.
	read atomic.Pointer[sorted]

	counters stats.EngineCounters
}

// New creates an engine and starts its router and applier goroutines.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := incremental.New(cfg.crowdParams(), cfg.gatherParams(), cfg.Pipeline.SearcherFactory())
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		in:      make(chan task),
		applies: make(chan task, applyQueue),
		done:    make(chan struct{}),
		store:   st,
	}
	e.wg.Add(2)
	go e.routeLoop()
	go e.applyLoop()
	return e, nil
}

// crowdParams and gatherParams are the store's thresholds, taken from the
// pipeline; a checkpoint must carry the same ones.
func (c Config) crowdParams() crowd.Params {
	return crowd.Params{MC: c.Pipeline.MC, KC: c.Pipeline.KC, Delta: c.Pipeline.Delta}
}

func (c Config) gatherParams() gathering.Params {
	return gathering.Params{KC: c.Pipeline.KC, KP: c.Pipeline.KP, MP: c.Pipeline.MP}
}

// Append hands the batch to the router, blocking while the router is
// busy or stalled on a full apply channel (backpressure). The batch
// covers the next batch.Domain.N ticks of the engine's domain; concurrent
// Append calls are taken one at a time, in the order the router receives
// them. The engine keeps reading the batch after Append returns (it is
// clustered and applied asynchronously), so callers must not mutate it.
func (e *Engine) Append(batch *trajectory.DB) error { return e.submit(batch, true) }

// TryAppend is Append without the blocking: it returns ErrQueueFull
// whenever the router is not waiting for a batch at the moment of the
// call — it is still clustering an earlier batch, or stalled on a full
// apply channel.
func (e *Engine) TryAppend(batch *trajectory.DB) error { return e.submit(batch, false) }

// submit hands the batch to the router. With wait set it blocks until the
// router takes the batch or the engine closes; without it, it never
// blocks.
func (e *Engine) submit(batch *trajectory.DB, wait bool) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	e.unapplied.Add(1)
	var err error
	if wait {
		select {
		case e.in <- task{batch: batch}:
		case <-e.done:
			err = ErrClosed
		}
	} else {
		select {
		case e.in <- task{batch: batch}:
		case <-e.done:
			err = ErrClosed
		default:
			e.counters.BatchesRejected.Add(1)
			err = ErrQueueFull
		}
	}
	if err != nil {
		e.unapplied.Add(-1)
		return err
	}
	e.counters.BatchesEnqueued.Add(1)
	e.counters.TicksIngested.Add(uint64(batch.Domain.N))
	return nil
}

// routeLoop is the router: it takes one task at a time from in until
// Close, clusters each batch once and passes it on, then closes the apply
// channel so the applier drains what it holds and exits.
func (e *Engine) routeLoop() {
	defer e.wg.Done()
	defer close(e.applies)
	for {
		select {
		case t := <-e.in:
			if t.barrier == nil {
				t = task{cdb: snapshot.Build(t.batch, e.cfg.Pipeline.SnapshotOptions(e.cfg.Workers))}
				e.counters.ClustersBuilt.Add(uint64(t.cdb.NumClusters()))
			}
			e.applies <- t
		case <-e.done:
			return
		}
	}
}

// applyLoop is the applier: it applies clustered batches in channel order
// until the router closes the channel. seq is the apply sequence handed to
// Config.ApplyFault.
func (e *Engine) applyLoop() {
	defer e.wg.Done()
	var seq uint64
	for t := range e.applies {
		if t.barrier != nil {
			close(t.barrier)
			continue
		}
		e.mu.Lock()
		if !e.quarantined {
			e.applyStore(seq, t.cdb)
		}
		// The frontier advances whether or not the store took the batch,
		// so a quarantined engine still drains and Flush still returns.
		e.ticks.Add(int64(t.cdb.Domain.N))
		e.version++
		e.mu.Unlock()
		seq++
		e.counters.TasksApplied.Add(1)
		e.unapplied.Add(-1)
	}
}

// applyStore feeds one cluster database to the store, converting a panic
// — an injected fault or real corruption — into quarantine: the store may
// be half-mutated, so it is retired rather than trusted. Called with the
// write lock held.
func (e *Engine) applyStore(seq uint64, cdb *snapshot.CDB) {
	defer func() {
		if r := recover(); r != nil {
			e.quarantined = true
			e.counters.ApplyPanics.Add(1)
		}
	}()
	if f := e.cfg.ApplyFault; f != nil {
		f(seq)
	}
	e.store.Append(cdb)
}

// Quarantined reports whether a recovered apply panic has retired the
// store. A quarantined engine answers no crowds and refuses to
// checkpoint; a checkpoint restore (LoadState) brings it back.
func (e *Engine) Quarantined() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.quarantined
}

// Ticks returns the number of ticks applied — the engine's
// fully-ingested frontier. Batches still queued are not counted.
func (e *Engine) Ticks() int { return int(e.ticks.Load()) }

// Flush blocks until every batch accepted before the call has been
// applied. On an idle engine it returns at once without waking the
// engine's goroutines; otherwise it sends a barrier behind every earlier
// batch. After Close it waits for Close's drain.
func (e *Engine) Flush() {
	if e.unapplied.Load() == 0 {
		return
	}
	barrier := make(chan struct{})
	select {
	case e.in <- task{barrier: barrier}:
		<-barrier
	case <-e.done:
		e.wg.Wait()
	}
}

// Close stops accepting batches, applies every batch already accepted and
// stops the engine's goroutines. It is idempotent; queries remain valid
// after Close. An Append racing with Close is either accepted, and applied
// before Close returns, or returns ErrClosed. Close blocks until the
// router and the applier have exited.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.done) })
	e.wg.Wait()
}

// Counters exposes the engine's live ingest/query counters.
func (e *Engine) Counters() *stats.EngineCounters { return &e.counters }

// TickWindow is an inclusive tick interval.
type TickWindow struct {
	From, To trajectory.Tick
}

// Query selects closed crowds (and their gatherings) from the engine's
// current state. The zero Query matches everything.
type Query struct {
	// Window keeps only crowds whose tick span overlaps it. Nil matches
	// all ticks.
	Window *TickWindow
	// Bounds keeps only crowds that pass through it: at least one of
	// their clusters' MBRs intersects the rectangle. Nil matches
	// everywhere.
	Bounds *geo.Rect
	// GatheringsOnly drops crowds with no closed gathering.
	GatheringsOnly bool
	// Limit caps the number of crowds returned; zero means no cap.
	Limit int
}

// Matches reports whether cr passes the window and bounds filters. The
// cluster read path calls it after its cross-node merge.
func (q Query) Matches(cr *crowd.Crowd) bool {
	if q.Window != nil && (cr.Start > q.Window.To || cr.End() < q.Window.From) {
		return false
	}
	if q.Bounds != nil {
		// Cluster MBRs are cached, so this is a rect-intersection scan
		// that stops at the first hit — for matching crowds usually the
		// first cluster.
		for _, c := range cr.Clusters() {
			if c.MBR().Intersects(*q.Bounds) {
				return true
			}
		}
		return false
	}
	return true
}

// Result is one snapshot answer: the matching closed crowds with their
// gatherings, parallel slices as in core.Discovery.
type Result struct {
	// Ticks is the store's tick frontier when the answer was read.
	Ticks int
	// Crowds are immutable and shared with the store: safe to hold while
	// ingestion continues. They are sorted by crowd.Compare (start tick,
	// lifetime, then per-tick membership), so Query.Limit always
	// truncates the same way.
	Crowds     []*crowd.Crowd
	Gatherings [][]*gathering.Gathering
}

// AllGatherings flattens the per-crowd gathering lists.
func (r *Result) AllGatherings() []*gathering.Gathering {
	var out []*gathering.Gathering
	for _, gs := range r.Gatherings {
		out = append(out, gs...)
	}
	return out
}

// Snapshot answers a query against the current state, read under the
// store's read lock. The filters apply to the memoised, sorted crowd
// list, which is then truncated to Query.Limit. A quarantined engine
// answers no crowds at tick 0; check Quarantined to tell it from an empty
// store. The returned crowds, clusters and gatherings are immutable and
// shared.
func (e *Engine) Snapshot(q Query) *Result {
	read := e.sortedRead()
	res := &Result{Ticks: read.ticks}
	ngs := 0
	for _, en := range read.entries {
		if q.Limit > 0 && len(res.Crowds) == q.Limit {
			break
		}
		if q.GatheringsOnly && len(en.gathers) == 0 || !q.Matches(en.crowd) {
			continue
		}
		res.Crowds = append(res.Crowds, en.crowd)
		res.Gatherings = append(res.Gatherings, en.gathers)
		ngs += len(en.gathers)
	}
	e.counters.Queries.Add(1)
	e.counters.CrowdsReturned.Add(uint64(len(res.Crowds)))
	e.counters.GatheringsReturned.Add(uint64(ngs))
	return res
}

// sortedRead returns the store's closed crowds in crowd.Compare order and
// its tick frontier, memoised until the store next changes. The crowds
// are copied out under the read lock and sorted outside it; concurrent
// first readers may each sort, and the last to finish keeps its list.
func (e *Engine) sortedRead() *sorted {
	e.mu.RLock()
	if r := e.read.Load(); r != nil && r.ver == e.version {
		e.mu.RUnlock()
		return r
	}
	r := &sorted{ver: e.version}
	if !e.quarantined {
		r.ticks = e.store.Ticks()
		gathers := e.store.Gatherings()
		for i, cr := range e.store.Crowds() {
			r.entries = append(r.entries, entry{crowd: cr, gathers: gathers[i]})
		}
	}
	e.mu.RUnlock()
	sort.Slice(r.entries, func(i, j int) bool {
		return crowd.Compare(r.entries[i].crowd, r.entries[j].crowd) < 0
	})
	e.read.Store(r)
	return r
}
