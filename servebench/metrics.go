package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/engine"
)

// gatheringsQuery is the quiescent read: a full /gatherings.
var gatheringsQuery = engine.Query{GatheringsOnly: true}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loadMetricNames reads the metric names the result line must carry from
// BENCHMARK.json: its end_to_end list, or its per_layer list for a traced
// run. Everything else the run measures is printed only.
func loadMetricNames(path string, traced bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// only narrows the result line to names, all of which must be measured.
func (r *result) only(names []string) error {
	kept := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %q is listed in BENCHMARK.json but was not measured", n)
		}
		kept[n] = m
	}
	r.Metrics = kept
	return nil
}

// set records one metric and prints it with its unit and, for a
// distribution, its sample count and the percentile used.
func (r *result) set(name string, v float64, unit, note string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Printf("%-36s %14.6g %s%s\n", name, v, unit, note)
}

// setDist records the median and tail of one latency distribution.
func (r *result) setDist(prefix string, xs []float64) {
	s := summarize(xs)
	r.set(prefix+"_p50_ms", s.P50, "ms", fmt.Sprintf("median of %d samples", s.N))
	r.set(prefix+"_tail_ms", s.Tail, "ms", fmt.Sprintf("p%d of %d samples, %d beyond", s.TailPct, s.N, s.Beyond))
}

// endToEnd reduces untraced rounds to the end-to-end metrics: per-round
// figures by their median, latency samples pooled over the rounds.
// setups are the process CPU seconds of the run's set-up samples.
func (r *runner) endToEnd(rounds []*roundOut, setups []float64) result {
	var res result
	med := median(setups) // sorts setups
	res.set("setup_s", med, "s", fmt.Sprintf("process CPU, median of %d set-ups, quartiles %.6g-%.6g", len(setups), setups[len(setups)/4], setups[3*len(setups)/4]))
	wall := make([]float64, 0, len(rounds))
	for _, o := range rounds {
		wall = append(wall, o.setup)
	}
	res.set("setup_wall_s", median(wall), "s", fmt.Sprintf("wall clock, median of %d rounds' set-ups", len(wall)))
	r.ingestMetrics(&res, rounds)
	return res
}

// ingestMetrics sets every end-to-end metric but the set-up times from
// rounds.
func (r *runner) ingestMetrics(res *result, rounds []*roundOut) {
	var tps, tpc, state, recov, recovCPU []float64
	var visible, queries, queryCPU, coldCPU, quiet []float64
	var readS, quietS, quietCPU float64
	for _, o := range rounds {
		if o.ingestS > 0 {
			tps = append(tps, float64(o.in.ticks)/o.ingestS)
		}
		if o.ingestCPU > 0 {
			tpc = append(tpc, float64(o.in.ticks)/o.ingestCPU)
		}
		visible = append(visible, o.visible...)
		queries = append(queries, o.queries...)
		queryCPU = append(queryCPU, o.queryCPU...)
		coldCPU = append(coldCPU, o.coldCPU...)
		quiet = append(quiet, o.quiet...)
		readS += o.readS
		quietS += o.quietS
		quietCPU += o.quietCPU
		state = append(state, o.stateMB)
		recov = append(recov, o.recoverS...)
		for _, c := range o.recoverCPU {
			recovCPU = append(recovCPU, c*1000)
		}
	}
	note := "median of %d rounds, process CPU"
	if r.sp.Reader {
		note += " less the reader's thread CPU"
	}
	res.set("ingest_ticks_per_s", median(tps), "ticks/s", fmt.Sprintf("median of %d rounds", len(tps)))
	res.set("ingest_ticks_per_cpu_s", median(tpc), "ticks/cpu-s", fmt.Sprintf(note, len(tpc)))
	res.setDist("visible", visible)
	// Workloads without a concurrent reader time their reads on the final
	// state after ingest. CPU figures are means, not medians: the spread
	// between reads comes from what they ask for, and the mean keeps it.
	if len(queries) > 0 {
		// With a concurrent reader, query_cpu_ms is the CPU of the reads
		// that found the merge invalidated by an apply and recomputed it:
		// the merge, the filters and the export. The mean over every read
		// is printed too, but it follows how many reads land between two
		// applies, which is timing, not cost.
		fmt.Println("queries: concurrent with ingest")
		res.setDist("query", queries)
		res.set("queries_per_s", float64(len(queries))/readS, "1/s", fmt.Sprintf("%d reads", len(queries)))
		res.set("query_cpu_ms", mean(coldCPU), "ms", fmt.Sprintf("reader thread CPU per concurrent read that recomputed the merge, mean of %d, %.3f of the reads", len(coldCPU), float64(len(coldCPU))/float64(len(queries))))
		res.set("query_all_cpu_ms", mean(queryCPU), "ms", fmt.Sprintf("reader thread CPU per concurrent read, mean of all %d", len(queryCPU)))
	} else if len(quiet) > 0 {
		fmt.Println("queries: quiescent, on each round's final state after ingest")
		res.setDist("query", quiet)
		res.set("queries_per_s", float64(len(quiet))/quietS, "1/s", fmt.Sprintf("%d reads", len(quiet)))
		res.set("query_cpu_ms", 1000*quietCPU/float64(len(quiet)), "ms", fmt.Sprintf("thread CPU per warm /gatherings read on the final state, mean of %d", len(quiet)))
	}
	res.set("recover_s", median(recov), "s", fmt.Sprintf("median of %d restarts", len(recov)))
	res.set("recover_cpu_ms", median(recovCPU), "ms", fmt.Sprintf("process CPU per restart, median of %d", len(recovCPU)))
	res.set("state_mb", median(state), "MB", fmt.Sprintf("median of %d rounds", len(state)))
}

// layerMetrics reduces a traced run: per-layer figures from the traced
// rounds' spans and counters, and the tracing overhead from the
// difference between the traced and untraced rounds. A figure is set
// only when the workload ran the layer: a layer with no spans, samples or
// counters on this workload is left out, not reported as zero.
func (r *runner) layerMetrics(rounds []*roundOut) result {
	var traced, plain []*roundOut
	for _, o := range rounds {
		if o.traced {
			traced = append(traced, o)
		} else {
			plain = append(plain, o)
		}
	}
	var res result
	r.tr.link()
	dur := durations(r.tr.spans)
	self := selfTimes(r.tr.spans)

	perRound := func(f func(o *roundOut) float64) float64 {
		xs := make([]float64, 0, len(traced))
		for _, o := range traced {
			xs = append(xs, f(o))
		}
		return median(xs)
	}
	pooled := func(f func(o *roundOut) []float64) []float64 {
		var xs []float64
		for _, o := range traced {
			xs = append(xs, f(o)...)
		}
		return xs
	}
	// setMedian sets the median of xs, if the run measured any.
	setMedian := func(name string, xs []float64, unit, note string) {
		if len(xs) > 0 {
			res.set(name, median(xs), unit, note)
		}
	}

	// admit
	setMedian("admit.offer_ms", dur["admit.offer"], "ms", "")
	res.set("admit.reordered", perRound(func(o *roundOut) float64 { return float64(o.resil.BatchesReordered) }), "count", "per round")
	res.set("admit.duplicate", perRound(func(o *roundOut) float64 { return float64(o.acct.AdmitDups) }), "count",
		fmt.Sprintf("per round; %g injected", perRound(func(o *roundOut) float64 { return float64(o.in.dups) })))
	res.set("admit.dropped_slots", perRound(func(o *roundOut) float64 { return float64(o.acct.AdmitDropped + o.acct.AdmitLate) }), "count", "per round")

	// recovery
	setMedian("recovery.log_ms", dur["recovery.log"], "ms", "")
	setMedian("recovery.wal_bytes_per_batch", pooled(func(o *roundOut) []float64 { return o.walBytes }), "B", "median WAL record")
	setMedian("recovery.window_bytes_per_batch", pooled(func(o *roundOut) []float64 { return o.windowBytes }), "B", "the batch window's own samples")
	setMedian("recovery.checkpoint_ms", pooled(func(o *roundOut) []float64 { return o.ckptMs }), "ms", "in-stream checkpoints")
	res.set("recovery.checkpoint_bytes", perRound(func(o *roundOut) float64 { return o.ckptBytes }), "B", "checkpoint restored by the crash recovery")
	setMedian("recovery.open_ms", pooled(func(o *roundOut) []float64 {
		xs := make([]float64, len(o.recoverS))
		for i, s := range o.recoverS {
			xs[i] = 1000 * s
		}
		return xs
	}), "ms", "crash recovery")
	res.set("recovery.replayed_batches", perRound(func(o *roundOut) float64 { return float64(o.replayed) }), "count", "per crash recovery")

	// engine
	cold, warm := dur["engine.snapshot_cold"], dur["engine.snapshot_warm"]
	setMedian("engine.append_ms", dur["engine.append"], "ms", "")
	setMedian("engine.apply_wait_ms", dur["engine.apply_wait"], "ms", "Append return to visible")
	setMedian("engine.snapshot_cold_ms", cold, "ms", fmt.Sprintf("%d reads", len(cold)))
	setMedian("engine.snapshot_warm_ms", warm, "ms", fmt.Sprintf("%d reads", len(warm)))
	if n := len(cold) + len(warm); n > 0 {
		res.set("engine.cold_share", float64(len(cold))/float64(n), "ratio", "")
	}
	res.set("engine.clusters_built", perRound(func(o *roundOut) float64 { return float64(o.eng.ClustersBuilt) }), "count", "per round")
	res.set("engine.clusters_replicated", perRound(func(o *roundOut) float64 { return float64(o.eng.ClustersReplicated) }), "count", "per round")
	res.set("engine.crowds_deduped", perRound(func(o *roundOut) float64 { return float64(o.eng.CrowdsDeduped) }), "count", "per round")
	res.set("engine.crowds_stitched", perRound(func(o *roundOut) float64 { return float64(o.eng.CrowdsStitched) }), "count", "per round")
	res.set("engine.batches_rejected", perRound(func(o *roundOut) float64 { return float64(o.eng.BatchesRejected) }), "count", "per round")

	// snapshot and incremental, from the reference replay
	setMedian("snapshot.build_ms", pooled(func(o *roundOut) []float64 { return o.ref.buildMs }), "ms", "per batch, reference replay")
	setMedian("incremental.append_ms", pooled(func(o *roundOut) []float64 { return o.ref.appendMs }), "ms", "per batch, reference replay")
	res.set("incremental.gatherings", perRound(func(o *roundOut) float64 { return float64(o.ref.gatherings) }), "count", "reference, per round")
	res.set("baseline.ticks_per_s", perRound(func(o *roundOut) float64 { return o.ref.ticksPerS }), "ticks/s", "single-store replay")

	// geojson
	setMedian("geojson.export_ms", dur["geojson.export"], "ms", "")
	setMedian("geojson.bytes", pooled(func(o *roundOut) []float64 { return o.exportBytes }), "B", "per read")

	// cluster and rpc: only the cluster workload has nodes to route to
	if r.sp.Nodes > 1 {
		setMedian("cluster.route_ms", dur["cluster.route"], "ms", "")
		res.set("cluster.forward_bytes_per_batch", perRound(func(o *roundOut) float64 { return o.fwdBytes / float64(len(o.in.batches)) }), "B", "all peers")
		setMedian("cluster.query_ms", dur["cluster.query"], "ms", "")
		setMedian("rpc.local_ms", dur["rpc.local"], "ms", "")
		setMedian("rpc.local_bytes", pooled(func(o *roundOut) []float64 { return o.localBytes }), "B", "per call")
		res.set("rpc.forwards_sent", perRound(func(o *roundOut) float64 { return float64(o.cl.ForwardsSent) }), "count", "per round")
		res.set("rpc.forwards_retried", perRound(func(o *roundOut) float64 { return float64(o.cl.ForwardsRetried) }), "count", "per round")
		res.set("rpc.forwards_dropped", perRound(func(o *roundOut) float64 { return float64(o.cl.ForwardsDropped) }), "count", "per round")
		res.set("rpc.peers_unreachable", perRound(func(o *roundOut) float64 { return float64(o.cl.PeersUnreachable) }), "count", "per round")
	}

	// runtime
	res.set("runtime.alloc_bytes_per_tick", perRound(func(o *roundOut) float64 { return o.allocTick }), "B", "")
	res.set("runtime.gc_cpu_fraction", perRound(func(o *roundOut) float64 { return o.gcFrac }), "ratio", "")

	// loadgen: only an open loop has a schedule to fall behind
	if r.sp.Loop == "open" {
		late := summarize(pooled(func(o *roundOut) []float64 { return o.late }))
		res.set("loadgen.late_tail_ms", late.Tail, "ms", fmt.Sprintf("p%d of %d offers, %d beyond", late.TailPct, late.N, late.Beyond))
		res.set("loadgen.backlog_max", perRound(func(o *roundOut) float64 { return float64(o.backlogMax) }), "count", "batches owed")
	}

	// self time per span, mean per occurrence: the means add up to the
	// root span's mean duration
	for _, name := range spanNames {
		if xs := self[name]; len(xs) > 0 {
			res.set("self."+name+"_ms", mean(xs), "ms", fmt.Sprintf("%d spans", len(xs)))
		}
	}

	// tracing overhead: traced against untraced rounds of this run
	tps := func(rs []*roundOut) float64 {
		xs := make([]float64, 0, len(rs))
		for _, o := range rs {
			if o.ingestS > 0 {
				xs = append(xs, float64(o.in.ticks)/o.ingestS)
			}
		}
		return median(xs)
	}
	vis := func(rs []*roundOut) float64 {
		var xs []float64
		for _, o := range rs {
			xs = append(xs, o.visible...)
		}
		return median(xs)
	}
	over := 0.0
	if base := tps(plain); base > 0 {
		over = 1 - tps(traced)/base
	}
	res.set("trace.ingest_overhead_ratio", over, "ratio", fmt.Sprintf("%d traced vs %d untraced rounds", len(traced), len(plain)))
	res.set("trace.visible_p50_overhead_ms", vis(traced)-vis(plain), "ms", "")
	res.set("trace.spans_per_round", float64(len(r.tr.spans))/float64(max(len(traced), 1)), "count", "")
	return res
}

// spanNames are the spans the benchmark records, roots first.
var spanNames = []string{
	"batch", "query",
	"admit.offer", "recovery.log", "engine.append", "recovery.applied", "engine.apply_wait",
	"engine.snapshot_cold", "engine.snapshot_warm", "geojson.export",
	"cluster.route", "cluster.query", "rpc.forward_recv", "rpc.local",
}
