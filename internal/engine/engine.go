// Package engine is the concurrent streaming layer over the paper's
// §III-C incremental algorithm: a thread-safe, sharded discovery service
// that ingests trajectory batches while answering snapshot queries.
//
// An Engine owns N incremental.Store shards, each driven by one goroutine
// that drains its own buffered task channel. Append hands a batch to a
// single routing goroutine over an unbuffered channel; the router turns
// it into one task per shard and sends each to its shard's channel, so
// channel FIFO order is the apply order Theorem 2 needs. A full shard
// channel stalls the router, which stalls Append (backpressure);
// TryAppend refuses instead.
//
// Every batch is clustered exactly once (§III phase 1): the router
// DBSCAN-clusters it globally, with per-tick parallelism of
// Config.Workers — the same clusters a single store would build. With
// one shard that cluster database goes to shard 0 whole. With more, each
// snapshot cluster is routed by the GridCell partitioner to the shard
// owning its centroid's cell, and every shard owning a cell within Halo
// of the cluster receives a view of the same *snapshot.Cluster. Shard
// goroutines only apply the per-shard cluster databases under their
// write locks, so clustering cost does not scale with the replication
// factor (ClustersBuilt counts each cluster once; ClustersReplicated
// tracks the views). Crowds discovered redundantly along cell borders
// have pointer-identical clusters by construction, and the snapshot-time
// merge (merge.go) collapses duplicates, absorbs tick-cropped views and
// stitches fragments of moving crowds back together, so multi-shard
// recall matches a single incremental store.
//
// Each shard's incremental store extends persistent state rather than
// rebuilding it: crowds are prefix-sharing persistent structures (O(1)
// extension per cluster), each live tail crowd's gathering detector grows
// by exactly the batch's ticks, and the discovery sweep, DBSCAN and
// grid-index scratch are pooled — so steady-state per-batch cost is
// proportional to the batch, not the stream age (§III-C, Theorem 2;
// BenchmarkIncrementalAppend pins this flat).
//
// Queries read the current closed crowds and gatherings under per-shard
// read locks: each shard's answer is internally consistent; across shards
// a query may observe different ingest frontiers (use Flush for a global
// barrier). Snapshot results are detached crowd handles sharing immutable
// cluster data with the stores.
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
	// Pipeline carries the discovery thresholds applied inside every
	// shard (DBSCAN, crowd and gathering parameters, searcher scheme).
	Pipeline core.Config

	// Shards is the number of independent incremental stores. Zero means
	// one (the plain incremental algorithm behind a lock).
	Shards int

	// Workers is the per-tick parallelism of the cluster-once global
	// DBSCAN build. Zero means one per shard. It sizes no goroutine pool:
	// every shard has exactly one goroutine.
	Workers int

	// QueueDepth bounds the ingest queue in shard tasks: each shard's
	// channel buffers QueueDepth/Shards of them. Zero means 4×Shards;
	// values below Shards are rejected, since every shard needs room for
	// one task.
	QueueDepth int

	// Partitioner routes each batch's snapshot clusters to shards by
	// spatial cell. A zero CellSize means 10 × Pipeline.Delta.
	Partitioner GridCell

	// ApplyFault, when non-nil, is called before every shard apply, under
	// the shard's write lock, with the shard index and the shard's apply
	// sequence (0 for its first batch) — a fault-injection hook for the
	// chaos harness (internal/chaos). A panic it raises is recovered by
	// the shard goroutine and quarantines the shard instead of crashing
	// the process. Production configurations leave it nil.
	ApplyFault func(shard int, seq uint64)
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Workers == 0 {
		c.Workers = c.Shards
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Shards
	}
	if c.Partitioner.CellSize == 0 {
		c.Partitioner.CellSize = 10 * c.Pipeline.Delta
	}
	return c
}

// Validate reports the first configuration error, after defaulting.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Pipeline.Validate(); err != nil {
		return err
	}
	if c.Shards < 1 {
		return fmt.Errorf("engine: Shards must be ≥ 1, got %d", c.Shards)
	}
	if c.Workers < 1 {
		return fmt.Errorf("engine: Workers must be ≥ 1, got %d", c.Workers)
	}
	if c.QueueDepth < c.Shards {
		return fmt.Errorf("engine: QueueDepth %d cannot hold one batch of %d shard tasks",
			c.QueueDepth, c.Shards)
	}
	return c.Partitioner.Validate()
}

// Errors returned by the ingest side.
var (
	// ErrQueueFull is returned by TryAppend when the routing goroutine is
	// not waiting for a batch.
	ErrQueueFull = errors.New("engine: ingest queue full")
	// ErrClosed is returned by Append and TryAppend after Close.
	ErrClosed = errors.New("engine: closed")
)

// task is one unit on the engine's channels. On the router's input it
// carries a whole batch; on a shard's channel it carries that shard's
// per-shard CDB, which the shard goroutine only applies. A task with a
// barrier is a Flush: the router forwards it to every shard, and each
// shard goroutine marks it done once every earlier task of its own is
// applied.
type task struct {
	batch   *trajectory.DB
	cdb     *snapshot.CDB
	barrier *sync.WaitGroup
}

// shard pairs an incremental store with its lock and its task channel.
// mu guards the store; readers take RLock, the shard goroutine takes Lock
// to apply. tasks is drained by the shard goroutine alone, so batches hit
// the store in the order the router sent them.
type shard struct {
	//gather:lock shard
	mu sync.RWMutex
	//gather:guardedby shard
	store *incremental.Store
	// quarantined marks a shard whose apply panicked: its store is no
	// longer trusted, later shard tasks are discarded (its tick frontier
	// still advances), and snapshots skip it. A checkpoint restore
	// replaces the store and clears the flag.
	//gather:guardedby shard
	quarantined bool
	// appliedTicks mirrors store.Ticks() on the healthy path and keeps
	// counting discarded shard tasks after quarantine, so the engine's
	// tick frontier never stalls on a poisoned shard.
	//gather:guardedby shard
	appliedTicks int
	ticks        atomic.Int64 // appliedTicks after the last apply, lock-free for the frontier
	tasks        chan task
}

// Engine is the concurrent sharded streaming-discovery service. Create
// one with New; all methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	shards []*shard

	// in hands batches and Flush barriers to the routing goroutine. It is
	// unbuffered, so a send completes only when the router takes it: once
	// the router has stopped, no Append can succeed.
	in        chan task
	done      chan struct{} // closed by Close; stops the router
	closeOnce sync.Once
	wg        sync.WaitGroup // the router and the shard goroutines

	// unapplied counts shard tasks handed to the engine but not yet
	// applied. Append adds Shards before its hand-off (and takes them back
	// when the hand-off fails); each shard goroutine subtracts one per
	// applied task. Flush on an idle engine sees zero and returns without
	// waking any goroutine.
	unapplied atomic.Int64

	// gatherParams re-detects gatherings on crowds stitched from
	// cross-shard fragments at Snapshot time.
	gatherParams gathering.Params

	// loads counts completed LoadState calls: a restore replaces the
	// shard stores without applying a task, so it bumps the state
	// version on its own.
	loads atomic.Uint64

	// mergeMu guards the memoized snapshot state: the merged, sorted crowd
	// list is recomputed only when the shard stores have changed since it
	// was built (mergeVer tracks stateVersion), so steady-state queries
	// pay a filter over the cached list, not the O(k²) merge.
	//gather:lock merge
	mergeMu sync.Mutex
	//gather:guardedby merge
	mergeVer uint64
	//gather:guardedby merge
	mergeValid bool
	//gather:guardedby merge
	mergeCache []shardCrowd
	//gather:guardedby merge
	mergeTicks int

	counters stats.EngineCounters
	ticksLow atomic.Int64 // cached fully-applied tick frontier (min over shards)
}

// New creates an engine and starts its routing and shard goroutines.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		in:     make(chan task),
		done:   make(chan struct{}),
	}
	cp := crowd.Params{MC: cfg.Pipeline.MC, KC: cfg.Pipeline.KC, Delta: cfg.Pipeline.Delta}
	gp := gathering.Params{KC: cfg.Pipeline.KC, KP: cfg.Pipeline.KP, MP: cfg.Pipeline.MP}
	e.gatherParams = gp
	factory := cfg.Pipeline.SearcherFactory()
	for i := range e.shards {
		st, err := incremental.New(cp, gp, factory)
		if err != nil {
			return nil, err
		}
		// The configured queue, split evenly: each shard may run this
		// many tasks ahead of its apply before the router stalls.
		e.shards[i] = &shard{store: st, tasks: make(chan task, cfg.QueueDepth/cfg.Shards)}
	}
	e.wg.Add(1 + len(e.shards))
	go e.routeLoop()
	for i, sh := range e.shards {
		go e.shardLoop(i, sh)
	}
	return e, nil
}

// Append hands the batch to the routing goroutine, blocking while the
// router is busy or stalled on a full shard channel (backpressure). The
// batch covers the next batch.Domain.N ticks of every shard's domain;
// concurrent Append calls are taken one at a time, in the order the
// router receives them. The engine keeps reading the batch after Append
// returns (it is clustered and applied asynchronously), so callers must
// not mutate it.
//
//gather:blocking
func (e *Engine) Append(batch *trajectory.DB) error { return e.submit(batch, true) }

// TryAppend is Append without the blocking: it returns ErrQueueFull
// whenever the routing goroutine is not waiting for a batch at the moment
// of the call — it is still routing an earlier batch, or stalled on a
// full shard channel.
func (e *Engine) TryAppend(batch *trajectory.DB) error { return e.submit(batch, false) }

//gather:blocking
func (e *Engine) submit(batch *trajectory.DB, wait bool) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	n := int64(len(e.shards))
	e.unapplied.Add(n)
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
		e.unapplied.Add(-n)
		return err
	}
	e.counters.BatchesEnqueued.Add(1)
	e.counters.TicksIngested.Add(uint64(batch.Domain.N))
	return nil
}

// routeLoop is the routing goroutine: it takes one task at a time from
// in until Close, and then closes every shard channel so the shard
// goroutines drain what they hold and exit.
func (e *Engine) routeLoop() {
	defer e.wg.Done()
	defer func() {
		for _, sh := range e.shards {
			close(sh.tasks)
		}
	}()
	for {
		select {
		case t := <-e.in:
			e.route(t)
		case <-e.done:
			return
		}
	}
}

// route turns one task into its shard tasks and sends them in shard
// order: a barrier goes to every shard unchanged, a batch as the
// per-shard CDBs of routeClusters. The sends block while a shard's
// channel is full.
//
//gather:blocking
func (e *Engine) route(t task) {
	var cdbs []*snapshot.CDB
	if t.barrier == nil {
		cdbs = e.routeClusters(t.batch)
	}
	for i, sh := range e.shards {
		if cdbs != nil {
			t = task{cdb: cdbs[i]}
		}
		sh.tasks <- t
	}
}

// shardLoop is shard i's goroutine: it applies the shard's tasks in
// channel order until the router closes the channel. seq is the shard's
// apply sequence, handed to Config.ApplyFault.
func (e *Engine) shardLoop(i int, sh *shard) {
	defer e.wg.Done()
	var seq uint64
	for t := range sh.tasks {
		if t.barrier != nil {
			t.barrier.Done()
			continue
		}
		e.apply(i, sh, seq, t.cdb)
		seq++
	}
}

// routeClusters is the cluster-once ingest stage: one global DBSCAN pass
// over the batch (per-tick parallelism of Config.Workers, exactly the
// clusters a single store would build), handed whole to a single shard
// or, with more, fanned out at cluster granularity — each cluster goes to
// the shard owning its centroid, and halo-adjacent shards receive a view
// of the same *snapshot.Cluster. Duplicate crowd discoveries therefore
// have identical per-tick membership by construction and the snapshot
// merge collapses them with pointer-equality fast paths. ClustersBuilt
// counts the global pass once per batch; ClustersReplicated counts the
// extra view deliveries.
func (e *Engine) routeClusters(batch *trajectory.DB) []*snapshot.CDB {
	cdb := snapshot.Build(batch, e.cfg.Pipeline.SnapshotOptions(e.cfg.Workers))
	e.counters.ClustersBuilt.Add(uint64(cdb.NumClusters()))

	n := len(e.shards)
	if n == 1 {
		return []*snapshot.CDB{cdb}
	}
	out := make([]*snapshot.CDB, n)
	for s := range out {
		out[s] = &snapshot.CDB{
			Domain:   cdb.Domain,
			Clusters: make([][]*snapshot.Cluster, cdb.Domain.N),
		}
	}
	targets := make([]int, 0, n)
	replicated := 0
	for t, cls := range cdb.Clusters {
		for _, cl := range cls {
			targets = e.cfg.Partitioner.ClusterShards(centroid(cl), cl.MBR(), n, targets)
			for _, s := range targets {
				out[s].Clusters[t] = append(out[s].Clusters[t], cl)
			}
			replicated += len(targets) - 1
		}
	}
	e.counters.ClustersReplicated.Add(uint64(replicated))
	return out
}

// apply brings one shard task's CDB to the shard's store.
func (e *Engine) apply(i int, sh *shard, seq uint64, cdb *snapshot.CDB) {
	sh.mu.Lock()
	if !sh.quarantined {
		e.applyStore(sh, i, seq, cdb)
	}
	// appliedTicks advances whether or not the store took the batch: a
	// quarantined shard must not stall the engine-wide tick frontier.
	sh.appliedTicks += cdb.Domain.N
	sh.ticks.Store(int64(sh.appliedTicks))
	sh.mu.Unlock()

	e.counters.TasksApplied.Add(1)
	e.advanceFrontier()
	e.unapplied.Add(-1)
}

// applyStore feeds one shard task's CDB to the shard's store, converting
// a panic — an injected fault or real corruption — into quarantine: the
// store may be half-mutated, so it is retired rather than trusted. Called
// with the shard's write lock held.
func (e *Engine) applyStore(sh *shard, shardIdx int, seq uint64, cdb *snapshot.CDB) {
	defer func() {
		if r := recover(); r != nil {
			sh.quarantined = true //lint:allow racecheck applyStore runs under apply's sh.mu write lock, which the deferred closure inherits
			e.counters.ApplyPanics.Add(1)
			e.counters.ShardsQuarantined.Add(1)
		}
	}()
	if f := e.cfg.ApplyFault; f != nil {
		f(shardIdx, seq)
	}
	sh.store.Append(cdb)
}

// Quarantined returns the indices of shards retired by a recovered apply
// panic. Their data is excluded from snapshots; a checkpoint restore
// (LoadState) brings them back.
func (e *Engine) Quarantined() []int {
	var out []int
	for i, sh := range e.shards {
		sh.mu.RLock()
		q := sh.quarantined
		sh.mu.RUnlock()
		if q {
			out = append(out, i)
		}
	}
	return out
}

// advanceFrontier recomputes the fully-applied tick frontier from the
// per-shard tick atomics — no shard locks on the ingest hot path.
func (e *Engine) advanceFrontier() {
	low := int64(-1)
	for _, sh := range e.shards {
		t := sh.ticks.Load()
		if low < 0 || t < low {
			low = t
		}
	}
	// Monotonic max: a shard goroutine with a stale read must not move
	// the frontier backwards.
	for {
		cur := e.ticksLow.Load()
		if low <= cur || e.ticksLow.CompareAndSwap(cur, low) {
			return
		}
	}
}

// Ticks returns the number of ticks applied to every shard — the engine's
// fully-ingested frontier. Batches still queued are not counted.
func (e *Engine) Ticks() int { return int(e.ticksLow.Load()) }

// Flush blocks until every batch accepted before the call has been
// applied to its shards, establishing a cross-shard consistent frontier.
// On an idle engine it returns at once without waking the engine's
// goroutines; otherwise it sends a barrier behind every earlier task on
// every shard channel. After Close it waits for Close's drain.
//
//gather:blocking
func (e *Engine) Flush() {
	if e.unapplied.Load() == 0 {
		return
	}
	var barrier sync.WaitGroup
	barrier.Add(len(e.shards))
	select {
	case e.in <- task{barrier: &barrier}:
		barrier.Wait()
	case <-e.done:
		e.wg.Wait()
	}
}

// Close stops accepting batches, applies every batch already accepted and
// stops the engine's goroutines. It is idempotent; queries remain valid
// after Close. An Append racing with Close is either accepted, and applied
// before Close returns, or returns ErrClosed.
//
//gather:blocking
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

// matches reports whether cr passes the window and bounds filters.
func (q Query) matches(cr *crowd.Crowd) bool {
	if q.Window != nil && (cr.Start > q.Window.To || cr.End() < q.Window.From) {
		return false
	}
	if q.Bounds != nil {
		// Cluster MBRs are cached, so this is a rect-intersection scan
		// that stops at the first hit — for matching crowds usually the
		// first cluster.
		hit := false
		for _, c := range cr.Clusters() {
			if c.MBR().Intersects(*q.Bounds) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Result is one snapshot answer: the matching closed crowds with their
// gatherings, parallel slices as in core.Discovery.
type Result struct {
	// Ticks is the fully-applied tick frontier of the answer: the minimum
	// of the per-shard tick counts observed under the shards' read locks,
	// so every shard had applied at least this many ticks when it was
	// read. Crowds from shards ahead of the minimum may extend past it.
	Ticks int
	// Crowds are detached copies: safe to hold while ingestion continues.
	// They are sorted deterministically (start tick, lifetime, then
	// per-tick membership), so Query.Limit always truncates the same way
	// regardless of shard count or iteration order.
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

// Snapshot answers a query against the current state. Each shard is read
// under its read lock, so the answer is consistent per shard; shards are
// visited in order and may sit at different ingest frontiers while
// batches are in flight (Flush first for a global barrier). With more
// than one shard the per-shard answers are merged first: duplicate
// discoveries of one boundary crowd collapse onto its canonical owner and
// cross-shard fragments are stitched whole (see merge.go). The merge must
// see every crowd — a filtered-out canonical copy must still absorb its
// surviving duplicates — so the filters apply to the memoized, sorted
// crowd list, and only then is it truncated to Query.Limit. The returned
// crowds are shallow copies detached from the ingest path; clusters and
// gatherings are immutable and shared.
func (e *Engine) Snapshot(q Query) *Result {
	entries, ticks := e.mergedState()
	res := &Result{Ticks: ticks}
	for _, en := range entries {
		if q.Limit > 0 && len(res.Crowds) == q.Limit {
			break
		}
		if q.GatheringsOnly && len(en.gathers) == 0 || !q.matches(en.crowd) {
			continue
		}
		res.Crowds = append(res.Crowds, en.crowd)
		res.Gatherings = append(res.Gatherings, en.gathers)
	}
	e.counters.Queries.Add(1)
	return e.finishSnapshot(res)
}

// mergedState returns the deduplicated, stitched, sorted cross-shard crowd
// list and its tick frontier, memoized until the next shard task apply.
// Quarantined shards are skipped whole: a poisoned store's answers are not
// trusted, and its frontier keeps advancing via appliedTicks. The merge
// runs only with more than one shard, and CrowdsDeduped/CrowdsStitched
// advance once per state change, tracking replication activity rather
// than query rate. Returned entries are immutable and shared between
// queries.
func (e *Engine) mergedState() ([]shardCrowd, int) {
	// Read the state version before collecting: if an apply or a restore
	// lands during the computation the version check below fails and the
	// result is served uncached (it is still a valid snapshot).
	ver := e.stateVersion()
	e.mergeMu.Lock()
	if e.mergeValid && e.mergeVer == ver {
		ents, ticks := e.mergeCache, e.mergeTicks
		e.mergeMu.Unlock()
		return ents, ticks
	}
	e.mergeMu.Unlock()

	var entries []shardCrowd
	minTicks := -1
	for si, sh := range e.shards {
		sh.mu.RLock()
		if sh.quarantined {
			sh.mu.RUnlock()
			continue
		}
		if t := sh.store.Ticks(); minTicks < 0 || t < minTicks {
			minTicks = t
		}
		crowds := sh.store.Crowds()
		gathers := sh.store.Gatherings()
		for i, cr := range crowds {
			entries = append(entries, shardCrowd{shard: si, crowd: cr, gathers: gathers[i]})
		}
		sh.mu.RUnlock()
	}
	if minTicks < 0 {
		minTicks = 0
	}

	if n := len(e.shards); n > 1 {
		var st mergeStats
		entries, st = mergeShards(entries, func(p geo.Point) int {
			return e.cfg.Partitioner.OwnerShard(p, n)
		}, e.gatherParams)
		e.counters.CrowdsDeduped.Add(uint64(st.deduped))
		e.counters.CrowdsStitched.Add(uint64(st.stitched))
	}
	sort.Slice(entries, func(i, j int) bool {
		return compareCrowds(entries[i].crowd, entries[j].crowd) < 0
	})

	if e.stateVersion() == ver {
		e.mergeMu.Lock()
		e.mergeCache, e.mergeTicks = entries, minTicks
		e.mergeVer, e.mergeValid = ver, true
		e.mergeMu.Unlock()
	}
	return entries, minTicks
}

// stateVersion changes whenever a shard store does: on every applied
// shard task and on every LoadState.
func (e *Engine) stateVersion() uint64 {
	return e.counters.TasksApplied.Load() + e.loads.Load()
}

// finishSnapshot updates the query-side counters and returns res.
func (e *Engine) finishSnapshot(res *Result) *Result {
	e.counters.CrowdsReturned.Add(uint64(len(res.Crowds)))
	ngs := 0
	for _, gs := range res.Gatherings {
		ngs += len(gs)
	}
	e.counters.GatheringsReturned.Add(uint64(ngs))
	return res
}
