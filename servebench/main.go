// Command servebench is the serving-path benchmark: it runs gatherserve's
// ingest loop (admit.Offer → recovery.Manager.Log → Engine.Append →
// Manager.Applied) and its /gatherings read (Engine.Snapshot or
// cluster.Node.Query, then geojson.Export) in process, on one named
// workload generated from a seed, checks the final gathering set against a
// single-store replay, and prints its metrics.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload replay-dense --seed 1 --seconds 30 --trace 0
//
// Each workload's input shape is fixed in ticks (servebench/workloads.json).
// A run repeats rounds until --seconds have passed; every round generates
// a fresh input from the seed and the round number and runs it on fresh
// engines, and the run reports medians over the rounds. --trace 0 prints
// the end-to-end metrics; --trace 1 alternates traced and untraced rounds
// and prints the per-layer metrics, the layers' self times and the
// tracing overhead, and writes the spans to the scratch directory. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics, the metrics being those BENCHMARK.json
// lists. The exit code is 1 when a gathering set differs from the
// reference or the run could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/stats"
)

// minRounds keeps a traced run with at least one traced and one untraced
// round, and every run with more than one sample of the per-round figures.
const minRounds = 2

// setupSamples is the number of set-ups, timed after the measurement,
// whose median process CPU time is setup_s.
const setupSamples = 100

// quiescentReads is the number of /gatherings reads timed on each round's
// final state, after one untimed read has warmed the merge cache.
const quiescentReads = 50

type runner struct {
	name    string
	sp      spec
	th      thresholds
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string
	tr      *tracer
	keep    []string // metrics of the result line
}

// roundOut is what one round measured.
type roundOut struct {
	in        *inputs
	ref       reference
	traced    bool
	setup     float64 // s, wall clock
	ingestS   float64 // first offer → last batch visible
	ingestCPU float64 // process CPU seconds over the feed, less readerCPU
	visible   []float64
	queries   []float64 // ms, concurrent reader
	queryCPU  []float64 // ms, the reader thread's CPU per concurrent read
	coldCPU   []float64 // ms, the same for the reads that recomputed the merge
	readerCPU float64   // s, the reader thread's CPU over its whole loop
	readS     float64   // reader wall time
	quiet     []float64 // ms, quiescent reads after ingest
	quietS    float64
	quietCPU  float64
	late      []float64
	stateMB   float64

	backlogMax int
	recoverS   []float64 // s, per restart
	recoverCPU []float64 // s, per restart
	replayed   int
	ckptBytes  float64
	allocTick  float64
	gcFrac     float64

	eng   stats.EngineCounterSnapshot
	resil stats.ResilienceCounterSnapshot
	cl    stats.ClusterCounterSnapshot

	walBytes, windowBytes, ckptMs []float64
	exportBytes, localBytes       []float64
	fwdBytes                      float64

	acct accounting
}

func main() {
	workload := flag.String("workload", "", "workload name (see servebench/workloads.json)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measurement time: rounds, each on a fresh input, repeat until it has passed")
	traceOn := flag.Int("trace", 0, "1 = traced run: per-layer metrics, self times and tracing overhead")
	specPath := flag.String("spec", "servebench/workloads.json", "workload definitions")
	benchPath := flag.String("benchmark", "BENCHMARK.json", "metric lists: the result line carries the end_to_end metrics, or the per_layer ones when tracing")
	scratch := flag.String("scratch", ".bench_build", "directory for WAL, checkpoint and trace files")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("servebench: ")

	th, sp, err := loadSpec(*specPath, *workload)
	if err != nil {
		log.Fatal(err)
	}
	keep, err := loadMetricNames(*benchPath, *traceOn == 1)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		log.Fatal(err)
	}
	r := &runner{
		name: *workload, sp: sp, th: th, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceOn == 1,
		dir:     dir,
		keep:    keep,
	}
	go guard(dir, 170*time.Second, 2<<30)
	code := r.run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// guard ends a run that would outlive the benchmark's time limit or
// exhaust the host's memory: a program defect such as a livelock or a
// runaway allocation must fail the run, not the machine it shares.
func guard(dir string, limit time.Duration, heapLimit uint64) {
	deadline := time.Now().Add(limit)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for range time.Tick(100 * time.Millisecond) {
		metrics.Read(s)
		heap := s[0].Value.Uint64()
		if heap <= heapLimit && time.Now().Before(deadline) {
			continue
		}
		log.Printf("aborting: heap %d MB (limit %d MB), %v elapsed (limit %v)",
			heap>>20, heapLimit>>20, limit-time.Until(deadline), limit)
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func (r *runner) run() int {
	fmt.Printf("workload %s seed %d: GOMAXPROCS %d, NumCPU %d, %s\n",
		r.name, r.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	epoch := time.Now()
	r.tr = newTracer(epoch, "batch", "query")
	var rounds []*roundOut
	var acct accounting
	correct := true
	for i := 0; ; i++ {
		out, last, err := r.round(i, epoch)
		if err != nil {
			log.Printf("round %d: %v", i, err)
			correct = false
		}
		if out != nil {
			rounds = append(rounds, out)
			acct.add(out.acct)
		}
		if last || err != nil {
			break
		}
	}
	setups := make([]float64, 0, setupSamples)
	for i := len(rounds); correct && len(setups) < setupSamples; i++ {
		s, err := r.setupOnly(i)
		if err != nil {
			log.Printf("set-up %d: %v", i, err)
			correct = false
			break
		}
		setups = append(setups, s)
	}

	var res result
	if r.trace {
		res = r.layerMetrics(rounds)
		path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("trace-%s-seed%d.json", r.name, r.seed))
		if err := r.tr.write(path); err != nil {
			log.Printf("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
		}
	} else {
		res = r.endToEnd(rounds, setups)
	}
	res.set("error_rate", acct.errorRate(), "ratio", fmt.Sprintf("%d failed of %d attempted", acct.failed(), acct.attempted()))
	if err := res.only(r.keep); err != nil {
		log.Print(err)
		correct = false
	}
	res.Correct = correct
	res.Attempted = acct.attempted()
	res.Failed = acct.failed()
	if len(rounds) > 0 {
		in := rounds[0].in
		fmt.Printf("input per round: %d taxis, %d ticks (%d measured), %d batches of %d ticks, %d deliveries (%d duplicates injected, %d warm-up)\n",
			r.sp.Taxis, in.db.Domain.N, in.ticks, len(in.batches), r.sp.BatchTicks, len(in.events), in.dups, in.warm)
	}
	fmt.Printf("rounds %d\n", len(rounds))
	line, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// roundSeed derives round i's input seed from the run's seed. Every round
// feeds a different input, so a run's medians average over many inputs
// rather than repeating one.
func roundSeed(seed int64, i int) int64 { return seed*100003 + int64(i) }

// round generates its input and the reference answer, sets up a fresh
// system, feeds the whole input, checks the answer, measures the retained
// state and a crash recovery, and tears down. last reports that the run's
// time is up after this round.
func (r *runner) round(i int, epoch time.Time) (out *roundOut, last bool, err error) {
	in := makeInputs(r.sp, roundSeed(r.seed, i))
	ref, err := replayReference(r.th.pipeline(), r.th.engineConfig().Workers, in.batches)
	if err != nil {
		return nil, true, err
	}
	if ref.gatherings == 0 {
		return nil, true, fmt.Errorf("the reference finds no gathering in input %d: the workload is vacuous", roundSeed(r.seed, i))
	}
	out = &roundOut{traced: r.trace && i%2 == 0, in: &in, ref: ref}
	var tr *tracer
	if out.traced {
		tr = r.tr
	}

	s0 := time.Now()
	w, err := r.newWorld(i, out, tr)
	if err != nil {
		return nil, true, err
	}
	out.setup = time.Since(s0).Seconds()
	defer w.close()
	w.in = &in

	heap0 := liveHeap()
	w.warmUp()
	// The runtime's CPU-class metrics advance at the end of each GC cycle,
	// so the window is bracketed by forced collections.
	runtime.GC()
	gcCPU0, allCPU0 := cpuTimes()
	alloc0 := totalAlloc()

	// The ingest CPU window spans the reader's whole life, and the
	// reader's own thread CPU is taken out of it: a faster or slower read
	// path changes how much the closed-loop reader runs, which must not
	// read as an ingest change.
	var stopReader, readerDone chan struct{}
	var qid uint64
	cpu0 := processCPU()
	t0 := time.Now()
	if r.sp.Reader {
		stopReader, readerDone = make(chan struct{}), make(chan struct{})
		g := &queryGen{rng: rand.New(rand.NewSource(r.seed + 1)), area: in.area}
		think := time.Duration(r.sp.ThinkMs * float64(time.Millisecond))
		go w.readLoop(stopReader, g, think, &qid, readerDone)
	}
	lastVisible, err := w.feed(t0)
	if stopReader != nil {
		close(stopReader)
		<-readerDone
		out.readS = time.Since(t0).Seconds()
	}
	out.ingestCPU = processCPU() - cpu0 - out.readerCPU
	if err != nil {
		return out, true, err
	}
	out.ingestS = lastVisible.Sub(t0).Seconds()
	runtime.GC()
	gcCPU1, allCPU1 := cpuTimes()
	out.allocTick = float64(totalAlloc()-alloc0) / float64(in.ticks)
	if allCPU1 > allCPU0 {
		out.gcFrac = (gcCPU1 - gcCPU0) / (allCPU1 - allCPU0)
	}
	out.stateMB = float64(int64(liveHeap())-int64(heap0)) / 1e6

	// A wrong answer fails the run, after the round's measurements are
	// taken, so a failing workload still reports where its time went.
	got, wrong := w.verify()
	if wrong == nil && !sameSigs(got, ref.sigs) {
		wrong = fmt.Errorf("gathering set of input %d differs from the single-store reference: %d gatherings, want %d", roundSeed(r.seed, i), len(got), len(ref.sigs))
	}

	// Full /gatherings reads on the final state. The first recomputes the
	// merge the last apply invalidated; the timed reads that follow are
	// served from the warm cache, with nothing else running. Their CPU is
	// the reading thread's, which the runtime's background work does not
	// touch.
	var lastApplied uint64
	w.query(qid, gatheringsQuery, &lastApplied)
	qid++
	runtime.LockOSThread()
	q0, c0 := time.Now(), threadCPU()
	for k := 0; k < quiescentReads; k++ {
		lat, _ := w.query(qid, gatheringsQuery, &lastApplied)
		out.quiet = append(out.quiet, lat)
		qid++
	}
	out.quietS, out.quietCPU = time.Since(q0).Seconds(), threadCPU()-c0
	runtime.UnlockOSThread()

	out.eng = w.nodes[0].eng.Counters().Snapshot()
	out.resil = w.nodes[0].resil.Snapshot()
	for _, n := range w.nodes[1:] {
		addEngine(&out.eng, n.eng.Counters().Snapshot())
	}
	for _, c := range w.clCounters {
		addCluster(&out.cl, c.Snapshot())
	}
	out.fwdBytes = float64(w.fwdBytes.Load())
	out.localBytes = w.localBytes
	for _, n := range w.nodes {
		rs := n.resil.Snapshot()
		out.acct.AdmitDups += int(rs.BatchesDuplicate)
		out.acct.AdmitLate += int(rs.BatchesLate)
		out.acct.AdmitDropped += int(rs.BatchesDropped)
	}
	out.acct.InjectedDups = in.dups
	out.acct.ForwardsLost = int(out.cl.ForwardsDropped)

	walls, cpus, replayed, err := w.crashRecover()
	if err != nil {
		out.acct.RecoveryFails++
		return out, true, fmt.Errorf("crash recovery: %w", err)
	}
	for _, d := range walls {
		out.recoverS = append(out.recoverS, d.Seconds())
	}
	out.recoverCPU, out.replayed = cpus, replayed
	out.ckptBytes = float64(checkpointSize(w))
	last = time.Since(epoch) >= r.seconds && i+1 >= minRounds
	return out, last || wrong != nil, wrong
}

// setupOnly times one more set-up in process CPU seconds and tears it
// down. CPU, not wall time: set-up takes under a millisecond, of which
// hypervisor steal and the WAL header's fsync can take as much again.
// Collecting and returning freed memory to the OS first leaves the
// runtime's background sweeper and scavenger nothing to do while the
// set-up is timed; after a bare collection their work landed in some
// samples and not others, and the samples split between two modes.
func (r *runner) setupOnly(i int) (float64, error) {
	debug.FreeOSMemory()
	c0 := processCPU()
	w, err := r.newWorld(i, &roundOut{}, nil)
	if err != nil {
		return 0, err
	}
	d := processCPU() - c0
	w.close()
	return d, nil
}

// checkpointSize is the size of the checkpoint the round's crash
// recovery restored on the front (the in-stream checkpoint on durable
// workloads, the shutdown checkpoint otherwise).
func checkpointSize(w *world) int64 {
	if p := w.nodes[0].opts.CheckpointPath; p != "" {
		return fileSize(p)
	}
	return fileSize(filepath.Join(w.dir, "node0.shutdown.ckpt"))
}

func liveHeap() uint64 {
	// Twice: the first cycle moves pooled objects to the victim cache,
	// the second frees them.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// processCPU returns the CPU time the process has used, in seconds. Time
// the host's hypervisor steals from the VM is not in it.
func processCPU() float64 { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU returns the CPU time the calling OS thread has used, in
// seconds; the caller must be locked to its thread.
func threadCPU() float64 { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuClock reads one of Linux's CPU-time clocks. Unlike getrusage, whose
// figures have microsecond resolution and leave out the running thread's
// current time slice, these count to the nanosecond up to the call, so
// sub-millisecond work is timed exactly.
func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}

func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTimes returns the process's GC CPU time and total available CPU time
// so far, in seconds (runtime/metrics estimates).
func cpuTimes() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func addEngine(a *stats.EngineCounterSnapshot, b stats.EngineCounterSnapshot) {
	a.ClustersBuilt += b.ClustersBuilt
	a.ClustersReplicated += b.ClustersReplicated
	a.CrowdsDeduped += b.CrowdsDeduped
	a.CrowdsStitched += b.CrowdsStitched
	a.BatchesRejected += b.BatchesRejected
}

func addCluster(a *stats.ClusterCounterSnapshot, b stats.ClusterCounterSnapshot) {
	a.ForwardsSent += b.ForwardsSent
	a.ForwardsRetried += b.ForwardsRetried
	a.ForwardsDropped += b.ForwardsDropped
	a.PeersUnreachable += b.PeersUnreachable
}
