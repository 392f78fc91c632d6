package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/engine"
	"repro/internal/engine/admit"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/geojson"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// ingestNode is one engine behind gatherserve's ingest loop:
// admit.Offer → Manager.Log → Engine.Append → Manager.Applied.
type ingestNode struct {
	eng   *engine.Engine
	mgr   *recovery.Manager
	adm   *admit.Admitter
	resil *stats.ResilienceCounters
	opts  recovery.Options
	emits []admit.Emit
}

// world is one round's system under test: a single node, or an
// in-process cluster whose node 0 is the ingest front.
type world struct {
	r     *runner
	in    *inputs
	round int
	dir   string  // the round's WAL and checkpoint files
	tr    *tracer // nil in untraced rounds

	nodes      []*ingestNode
	cl         []*cluster.Node // nil on single-node workloads
	clCounters []*stats.ClusterCounters
	servers    []*httptest.Server

	stop    chan struct{}
	members sync.WaitGroup

	// Receive-side tallies taken by the handler wrappers.
	fwdBytes   atomic.Int64
	handlerSeq atomic.Uint64
	mu         sync.Mutex
	localBytes []float64

	out *roundOut
}

// newWorld builds the round's engines, recovery managers and admitters —
// and, on the cluster workload, the nodes and their loopback servers —
// up to the point where the first batch can be offered.
func (r *runner) newWorld(round int, out *roundOut, tr *tracer) (*world, error) {
	w := &world{r: r, round: round, tr: tr, stop: make(chan struct{}), out: out}
	n := max(r.sp.Nodes, 1)
	dir := filepath.Join(r.dir, fmt.Sprintf("round%d", round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w.dir = dir

	var m *cluster.Map
	var muxes []*http.ServeMux
	if n > 1 {
		// Servers first: the map needs their addresses. The map has the
		// README's shape: 3 km cells, 2.4 km halo, 12 slots dealt round
		// robin.
		m = &cluster.Map{Version: 1, CellSize: 3000, Halo: 2400, Slots: 12}
		for i := 0; i < n; i++ {
			mux := http.NewServeMux()
			srv := httptest.NewServer(mux)
			muxes = append(muxes, mux)
			w.servers = append(w.servers, srv)
			var slots []int
			for s := i; s < m.Slots; s += n {
				slots = append(slots, s)
			}
			m.Nodes = append(m.Nodes, cluster.Member{
				ID:    cluster.NodeID(string(rune('a' + i))),
				Addr:  strings.TrimPrefix(srv.URL, "http://"),
				Slots: slots,
			})
		}
		if err := m.Validate(); err != nil {
			w.close()
			return nil, err
		}
	}

	for i := 0; i < n; i++ {
		eng, err := engine.New(r.th.engineConfig())
		if err != nil {
			w.close()
			return nil, err
		}
		node := &ingestNode{eng: eng, resil: &stats.ResilienceCounters{}}
		if r.sp.WALSync != "" {
			mode, err := wal.ParseSyncMode(r.sp.WALSync)
			if err != nil {
				eng.Close()
				w.close()
				return nil, err
			}
			node.opts = recovery.Options{
				CheckpointPath: filepath.Join(dir, fmt.Sprintf("node%d.ckpt", i)),
				WALPath:        filepath.Join(dir, fmt.Sprintf("node%d.wal", i)),
				Every:          r.sp.CkptEvery,
				Sync:           mode,
			}
		}
		node.opts.Counters = node.resil
		node.mgr, err = recovery.Open(eng, node.opts)
		if err != nil {
			eng.Close()
			w.close()
			return nil, err
		}
		node.adm = admit.New(admit.Config{
			Watermark:     admit.DefaultWatermark,
			Start:         node.mgr.NextSeq(),
			TicksPerBatch: r.sp.BatchTicks,
			Counters:      node.resil,
		})
		w.nodes = append(w.nodes, node)

		if m == nil {
			continue
		}
		counters := &stats.ClusterCounters{}
		// gatherserve's defaults for the data-plane knobs.
		cn, err := cluster.NewNode(cluster.NodeConfig{
			Map:              m,
			Self:             m.Nodes[i].ID,
			Engine:           eng,
			GatherParams:     gathering.Params{KC: r.th.KC, KP: r.th.KP, MP: r.th.MP},
			Counters:         counters,
			AttemptTimeout:   2 * time.Second,
			ForwardDeadline:  30 * time.Second,
			BreakerThreshold: 5,
			BreakerCooldown:  3 * time.Second,
			Logf:             log.Printf,
		})
		if err != nil {
			w.close()
			return nil, err
		}
		w.cl = append(w.cl, cn)
		w.clCounters = append(w.clCounters, counters)
		w.handle(muxes[i], cn)
	}

	// Members drain their inbox through their own pipeline, as
	// gatherserve's member loop does.
	for i := 1; i < len(w.cl); i++ {
		w.members.Add(1)
		go w.memberLoop(i)
	}
	return w, nil
}

// handle registers node's data-plane handlers behind the benchmark's
// wrappers, which time each call and count the bytes on the wire.
func (w *world) handle(mux *http.ServeMux, cn *cluster.Node) {
	mux.HandleFunc(rpc.ForwardPath, func(rw http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		n := req.ContentLength
		cn.HandleForward(rw, req)
		w.fwdBytes.Add(n)
		w.tr.add("rpc.forward_recv", traceID(w.round, kindHandler, w.handlerSeq.Add(1)), t0, time.Now())
	})
	mux.HandleFunc(rpc.LocalPath, func(rw http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		cw := &countingRW{ResponseWriter: rw}
		cn.HandleLocal(cw, req)
		w.tr.add("rpc.local", traceID(w.round, kindHandler, w.handlerSeq.Add(1)), t0, time.Now())
		w.mu.Lock()
		w.localBytes = append(w.localBytes, float64(cw.n))
		w.mu.Unlock()
	})
}

type countingRW struct {
	http.ResponseWriter
	n int64
}

func (c *countingRW) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (w *world) memberLoop(i int) {
	defer w.members.Done()
	node := w.nodes[i]
	for {
		select {
		case <-w.stop:
			return
		case fwd := <-w.cl[i].Inbox():
			t0 := time.Now()
			node.emits = node.adm.Offer(fwd.Seq, fwd.Batch, node.emits[:0])
			w.tr.add("admit.offer", traceID(w.round, kindBatch, fwd.Seq), t0, time.Now())
			for _, em := range node.emits {
				w.apply(node, em, time.Time{}, nil)
			}
		}
	}
}

// frontier is the tick count every node has applied: a batch is visible
// once the frontier covers its last tick.
func (w *world) frontier() int {
	low := -1
	for _, n := range w.nodes {
		if t := n.eng.Ticks(); low < 0 || t < low {
			low = t
		}
	}
	return low
}

// apply runs one released batch through the node's durable ingest path.
// On the front, obs receives the batch's visibility target; start is
// when the batch was due (open loop) or first offered (closed loop).
func (w *world) apply(node *ingestNode, em admit.Emit, start time.Time, obs chan<- target) {
	id := traceID(w.round, kindBatch, em.Seq)
	traced := w.tr != nil
	var walBefore int64
	if traced && node.opts.WALPath != "" {
		walBefore = fileSize(node.opts.WALPath)
	}

	t0 := time.Now()
	err := node.mgr.Log(em.Seq, em.Batch)
	t1 := time.Now()
	w.tr.add("recovery.log", id, t0, t1)
	if err == nil {
		err = node.eng.Append(em.Batch)
	}
	t2 := time.Now()
	w.tr.add("engine.append", id, t1, t2)
	ckpts := node.resil.CheckpointsWritten.Load()
	if err == nil {
		err = node.mgr.Applied()
	}
	t3 := time.Now()
	w.tr.add("recovery.applied", id, t2, t3)
	if err != nil {
		log.Printf("batch %d: %v", em.Seq, err)
		w.mu.Lock()
		w.out.acct.IngestErrors++
		w.mu.Unlock()
	}

	if traced {
		w.mu.Lock()
		if node.opts.WALPath != "" {
			if after := fileSize(node.opts.WALPath); after > walBefore {
				w.out.walBytes = append(w.out.walBytes, float64(after-walBefore))
			}
		}
		w.out.windowBytes = append(w.out.windowBytes, float64(windowBytes(em.Batch)))
		if node.resil.CheckpointsWritten.Load() != ckpts {
			w.out.ckptMs = append(w.out.ckptMs, ms(t3.Sub(t2)))
		}
		w.mu.Unlock()
	}
	if obs != nil {
		obs <- target{seq: em.Seq, end: int(em.Seq)*w.r.sp.BatchTicks + em.Batch.Domain.N, start: start, appended: t2}
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// target is one batch awaiting visibility.
type target struct {
	seq             uint64
	end             int // frontier that makes the batch visible
	start, appended time.Time
}

// pollEvery is the observer's sleep between frontier reads while a batch
// is outstanding. The engine has no visibility notification, and a spin
// would take one of the host's two CPUs from the system under test; the
// sleep bounds the observer's cost and adds at most this much (plus
// timer slack) to each visibility latency.
const pollEvery = 100 * time.Microsecond

// stallAfter fails a round whose frontier stops moving.
const stallAfter = 30 * time.Second

// observe records each target's batch-to-visible latency until targets
// is closed. It returns the time the last batch became visible, or an
// error when the frontier stalls.
func (w *world) observe(targets <-chan target) (time.Time, error) {
	var last time.Time
	for t := range targets {
		since := time.Now()
		for w.frontier() < t.end {
			if time.Since(since) > stallAfter {
				return last, fmt.Errorf("frontier stalled at tick %d waiting for batch %d (tick %d)", w.frontier(), t.seq, t.end)
			}
			time.Sleep(pollEvery)
		}
		now := time.Now()
		id := traceID(w.round, kindBatch, t.seq)
		w.tr.add("batch", id, t.start, now)
		w.tr.add("engine.apply_wait", id, t.appended, now)
		w.out.visible = append(w.out.visible, ms(now.Sub(t.start)))
		last = now
	}
	return last, nil
}

// warmUp ingests the workload's warm-up events closed loop and untraced,
// and returns once they are all visible.
func (w *world) warmUp() {
	front, tr := w.nodes[0], w.tr
	w.tr = nil
	for _, ev := range w.in.events[:w.in.warm] {
		front.emits = front.adm.Offer(ev.Seq, ev.Batch, front.emits[:0])
		for _, em := range front.emits {
			w.apply(front, em, time.Time{}, nil)
		}
	}
	front.eng.Flush()
	w.tr = tr
}

// feed delivers the workload's events through the front's pipeline —
// on schedule in an open loop, back to back in a closed one — then
// drains the admitter, and returns when every batch is visible.
func (w *world) feed(t0 time.Time) (time.Time, error) {
	sp, in := w.r.sp, w.in
	front := w.nodes[0]
	targets := make(chan target, len(in.batches)+1)
	type obsResult struct {
		last time.Time
		err  error
	}
	done := make(chan obsResult, 1)
	go func() {
		last, err := w.observe(targets)
		done <- obsResult{last, err}
	}()

	first := make([]time.Time, len(in.batches))
	for i, ev := range in.events[in.warm:] {
		var start time.Time
		if sp.Loop == "open" {
			due := t0.Add(time.Duration(float64(i) / sp.Rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			now := time.Now()
			w.out.late = append(w.out.late, ms(now.Sub(due)))
			owed := int(now.Sub(t0).Seconds()*sp.Rate) - i
			w.out.backlogMax = max(w.out.backlogMax, owed)
			start = due
		} else {
			start = time.Now()
		}
		if first[ev.Seq].IsZero() {
			first[ev.Seq] = start
		}
		w.out.acct.Offers++

		b := ev.Batch
		id := traceID(w.round, kindBatch, ev.Seq)
		if w.cl != nil {
			r0 := time.Now()
			b = w.cl[0].Route(ev.Seq, b)
			w.tr.add("cluster.route", id, r0, time.Now())
		}
		o0 := time.Now()
		front.emits = front.adm.Offer(ev.Seq, b, front.emits[:0])
		w.tr.add("admit.offer", id, o0, time.Now())
		for _, em := range front.emits {
			w.apply(front, em, first[em.Seq], targets)
		}
	}
	front.emits = front.adm.Drain(front.emits[:0])
	for _, em := range front.emits {
		w.apply(front, em, first[em.Seq], targets)
	}
	close(targets)
	res := <-done
	return res.last, res.err
}

// queryGen draws the reader's seeded mix of /gatherings and /crowds
// queries with window, bbox and limit filters.
type queryGen struct {
	rng  *rand.Rand
	area float64 // side of the generated city, metres
}

// next draws one query. The proportions are assumptions, not measured
// client traffic (no trace of real readers exists): 60% /gatherings and
// 40% /crowds, and each filter drawn independently with probability 0.3
// (a 10-50-tick window, a 4-8 km box, a limit of 1-50), so about a third
// of the reads are unfiltered reads of the whole state.
func (g *queryGen) next(frontier int) engine.Query {
	q := engine.Query{GatheringsOnly: g.rng.Intn(10) < 6}
	if g.rng.Intn(10) < 3 && frontier > 0 {
		from := trajectory.Tick(g.rng.Intn(frontier))
		q.Window = &engine.TickWindow{From: from, To: from + trajectory.Tick(10+g.rng.Intn(40))}
	}
	if g.rng.Intn(10) < 3 {
		side := 4000 + g.rng.Float64()*4000
		x, y := g.rng.Float64()*(g.area-side), g.rng.Float64()*(g.area-side)
		q.Bounds = &geo.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side}
	}
	if g.rng.Intn(10) < 3 {
		q.Limit = 1 + g.rng.Intn(50)
	}
	return q
}

// query runs one /gatherings- or /crowds-equivalent read: a snapshot on
// the single node, a scatter-gather on the cluster (round robin over the
// nodes), then the GeoJSON export to a discarding writer. It returns the
// read's latency in milliseconds, and whether the read found the
// engine's merge invalidated by an apply since the previous read.
func (w *world) query(qid uint64, q engine.Query, lastApplied *uint64) (float64, bool) {
	id := traceID(w.round, kindQuery, qid)
	t0 := time.Now()
	var res *engine.Result
	cold := false
	if w.cl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var meta cluster.PartialMeta
		res, meta = w.cl[int(qid)%len(w.cl)].Query(ctx, q)
		cancel()
		cold = true // every scatter-gather merges the nodes' answers anew
		w.tr.add("cluster.query", id, t0, time.Now())
		if len(meta.Unreachable) > 0 {
			w.out.acct.QueryPartial++
		}
	} else {
		eng := w.nodes[0].eng
		applied := eng.Counters().TasksApplied.Load()
		res = eng.Snapshot(q)
		// The engine memoizes its cross-shard merge until the next apply:
		// a read after an apply recomputes it (cold), a read with no apply
		// since the previous one filters the cached merge (warm).
		name := "engine.snapshot_warm"
		if cold = applied != *lastApplied; cold {
			name = "engine.snapshot_cold"
		}
		*lastApplied = applied
		w.tr.add(name, id, t0, time.Now())
	}
	t1 := time.Now()
	cw := &countingWriter{}
	if err := geojson.Export(cw, res.Crowds, res.Gatherings, nil); err != nil {
		w.out.acct.QueryErrors++
	}
	t2 := time.Now()
	w.tr.add("geojson.export", id, t1, t2)
	w.tr.add("query", id, t0, t2)
	if w.tr != nil {
		w.mu.Lock()
		w.out.exportBytes = append(w.out.exportBytes, float64(cw.n))
		w.mu.Unlock()
	}
	w.out.acct.Queries++
	return ms(t2.Sub(t0)), cold
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// readLoop is the closed-loop reader: each query is sent think after the
// previous one completed, until stop is closed. The think time keeps the
// reader a client polling the service rather than a second CPU-bound
// workload, so its load follows its latency, not the host's spare CPU.
//
// The reader holds its own OS thread, so the thread's CPU clock times its
// reads alone: the CPU of each read goes to queryCPU, and the loop's
// whole CPU to readerCPU, which the round takes out of the ingest CPU.
func (w *world) readLoop(stop <-chan struct{}, g *queryGen, think time.Duration, qid *uint64, done chan<- struct{}) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	defer func() {
		w.out.readerCPU = threadCPU() - start
		close(done)
	}()
	var lastApplied uint64
	pause := time.NewTimer(0)
	for {
		select {
		case <-stop:
			return
		case <-pause.C:
		}
		c0 := threadCPU()
		lat, cold := w.query(*qid, g.next(w.frontier()), &lastApplied)
		cpu := 1000 * (threadCPU() - c0)
		w.out.queryCPU = append(w.out.queryCPU, cpu)
		if cold {
			w.out.coldCPU = append(w.out.coldCPU, cpu)
		}
		*qid++
		w.out.queries = append(w.out.queries, lat)
		pause.Reset(think)
	}
}

// verify compares the final gathering set with the reference (read from
// the front, a scatter-gather on the cluster).
func (w *world) verify() ([]string, error) {
	for _, n := range w.nodes {
		n.eng.Flush()
	}
	if w.cl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, meta := w.cl[0].Query(ctx, engine.Query{})
		if len(meta.Unreachable) > 0 {
			return nil, fmt.Errorf("verification read missing nodes %v", meta.Unreachable)
		}
		return signatures(res.Crowds, res.Gatherings), nil
	}
	res := w.nodes[0].eng.Snapshot(engine.Query{})
	return signatures(res.Crowds, res.Gatherings), nil
}

// restartsFromCheckpoint is how many times a workload without a WAL
// restarts each round from its shutdown checkpoint. Restoring a checkpoint
// alone reads it and writes nothing, so the restarts are alike and their
// median is steadier than one. A WAL restart rewrites the checkpoint and
// resets the log, so it happens once.
const restartsFromCheckpoint = 5

// crashRecover simulates a crash of every node and times its restart.
// Durable workloads abandon the manager without Close, leaving the last
// checkpoint and the WAL tail, and restart over them. Workloads without
// a WAL write a shutdown checkpoint of the final state first and restart
// from it alone. Each restarted engine must answer exactly as before the
// crash. For each restart of the system it returns the slowest node's
// recovery.Open time and the process CPU seconds all the nodes' Opens
// took, and it returns the WAL batches replayed.
func (w *world) crashRecover() ([]time.Duration, []float64, int, error) {
	wants := make([][]string, len(w.nodes))
	opts := make([]recovery.Options, len(w.nodes))
	reps := 1
	for i, n := range w.nodes {
		before := n.eng.Snapshot(engine.Query{})
		wants[i] = signatures(before.Crowds, before.Gatherings)
		opts[i] = n.opts
		if opts[i].WALPath == "" {
			reps = restartsFromCheckpoint
			opts[i] = recovery.Options{CheckpointPath: filepath.Join(w.dir, fmt.Sprintf("node%d.shutdown.ckpt", i))}
			m, err := recovery.Open(n.eng, opts[i])
			if err == nil {
				err = m.Close()
			}
			if err != nil {
				return nil, nil, 0, err
			}
		}
	}
	// The crashed process is gone: the nodes' managers are never closed.
	var walls []time.Duration
	var cpus []float64
	replayed := 0
	for k := 0; k < reps; k++ {
		var slowest time.Duration
		var cpu float64
		for i := range w.nodes {
			resil := &stats.ResilienceCounters{}
			o := opts[i]
			o.Counters = resil
			fresh, err := engine.New(w.r.th.engineConfig())
			if err != nil {
				return nil, nil, 0, err
			}
			// As for set-up: the runtime's background work is finished
			// first, so it does not land in some restarts' CPU and not
			// others'.
			debug.FreeOSMemory()
			t0, c0 := time.Now(), processCPU()
			m, err := recovery.Open(fresh, o)
			d := time.Since(t0)
			cpu += processCPU() - c0
			if err != nil {
				fresh.Close()
				return nil, nil, 0, err
			}
			_ = m // abandoned like its predecessor; the round's directory goes away
			after := fresh.Snapshot(engine.Query{})
			got := signatures(after.Crowds, after.Gatherings)
			fresh.Close()
			if !sameSigs(got, wants[i]) {
				return nil, nil, 0, fmt.Errorf("node %d restarted with %d gatherings, had %d before the crash", i, len(got), len(wants[i]))
			}
			slowest = max(slowest, d)
			if k == 0 {
				replayed += int(resil.WALReplayed.Load())
			}
		}
		walls = append(walls, slowest)
		cpus = append(cpus, cpu)
	}
	return walls, cpus, replayed, nil
}

// close tears the round down: members stop, forward queues drain,
// servers and engines close.
func (w *world) close() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	w.members.Wait()
	for _, cn := range w.cl {
		cn.Close()
	}
	for _, srv := range w.servers {
		srv.Close()
	}
	for _, n := range w.nodes {
		n.eng.Close()
	}
	os.RemoveAll(w.dir)
}
