package stats

import (
	"fmt"
	"io"
	"sync/atomic"
)

// EngineCounters are the live activity counters of the streaming engine:
// how much work entered the ingest queue, how much has been applied to the
// shards, and what the query side is reading back. All fields are atomic,
// so the engine's goroutines and query handlers update them without locks;
// read a consistent-enough view with Snapshot.
type EngineCounters struct {
	// Ingest side.
	BatchesEnqueued atomic.Uint64 // Append/TryAppend calls accepted
	BatchesRejected atomic.Uint64 // TryAppend calls refused by a busy router
	TasksApplied    atomic.Uint64 // per-shard cluster databases applied to a store
	TicksIngested   atomic.Uint64 // ticks appended (counted once per batch)
	ClustersBuilt   atomic.Uint64 // snapshot clusters built by the global per-batch DBSCAN pass, each once
	// ClustersReplicated counts cluster views delivered to shards beyond the
	// owner (always zero with one shard). Unlike ClustersBuilt it scales
	// with the replication factor; their ratio is the halo overhead.
	ClustersReplicated atomic.Uint64

	// Query side.
	Queries            atomic.Uint64 // snapshot queries served
	CrowdsReturned     atomic.Uint64 // crowds returned across all queries
	GatheringsReturned atomic.Uint64 // gatherings returned across all queries
	// CrowdsDeduped and CrowdsStitched advance when the cross-shard merge
	// recomputes — at most once per applied shard task, not per query (the
	// merged state is memoized between applies), and never with one shard
	// — so they track replication activity, not query rate.
	CrowdsDeduped  atomic.Uint64 // duplicate/partial boundary-crowd copies dropped by the snapshot merge
	CrowdsStitched atomic.Uint64 // crowd fragments fused into cross-shard crowds by the snapshot merge

	// Fault side. A panic while applying a sub-batch to a shard's store is
	// recovered by the shard goroutine instead of taking the process down:
	// the shard is quarantined — its store is no longer trusted, later
	// sub-batches are discarded, snapshots skip it — until a checkpoint
	// restore replaces it. Both counters advancing means data loss is bounded to
	// the quarantined shards, never silent.
	ApplyPanics       atomic.Uint64 // panics recovered in the shard-apply path
	ShardsQuarantined atomic.Uint64 // shards retired by a recovered apply panic
}

// EngineCounterSnapshot is a point-in-time copy of EngineCounters.
type EngineCounterSnapshot struct {
	BatchesEnqueued    uint64
	BatchesRejected    uint64
	TasksApplied       uint64
	TicksIngested      uint64
	ClustersBuilt      uint64
	ClustersReplicated uint64
	Queries            uint64
	CrowdsReturned     uint64
	GatheringsReturned uint64
	CrowdsDeduped      uint64
	CrowdsStitched     uint64
	ApplyPanics        uint64
	ShardsQuarantined  uint64
}

// Snapshot reads every counter once. Counters advance independently, so
// the snapshot is per-field atomic, not a global fence — fine for
// monitoring, which is what it is for.
func (c *EngineCounters) Snapshot() EngineCounterSnapshot {
	return EngineCounterSnapshot{
		BatchesEnqueued:    c.BatchesEnqueued.Load(),
		BatchesRejected:    c.BatchesRejected.Load(),
		TasksApplied:       c.TasksApplied.Load(),
		TicksIngested:      c.TicksIngested.Load(),
		ClustersBuilt:      c.ClustersBuilt.Load(),
		ClustersReplicated: c.ClustersReplicated.Load(),
		Queries:            c.Queries.Load(),
		CrowdsReturned:     c.CrowdsReturned.Load(),
		GatheringsReturned: c.GatheringsReturned.Load(),
		CrowdsDeduped:      c.CrowdsDeduped.Load(),
		CrowdsStitched:     c.CrowdsStitched.Load(),
		ApplyPanics:        c.ApplyPanics.Load(),
		ShardsQuarantined:  c.ShardsQuarantined.Load(),
	}
}

// Fprint renders the snapshot as an aligned block, matching Report.Fprint.
func (s EngineCounterSnapshot) Fprint(w io.Writer) {
	fmt.Fprintf(w, "batches enqueued:    %d\n", s.BatchesEnqueued)
	fmt.Fprintf(w, "batches rejected:    %d\n", s.BatchesRejected)
	fmt.Fprintf(w, "shard tasks applied: %d\n", s.TasksApplied)
	fmt.Fprintf(w, "ticks ingested:      %d\n", s.TicksIngested)
	fmt.Fprintf(w, "clusters built:      %d\n", s.ClustersBuilt)
	fmt.Fprintf(w, "clusters replicated: %d\n", s.ClustersReplicated)
	fmt.Fprintf(w, "queries served:      %d\n", s.Queries)
	fmt.Fprintf(w, "crowds returned:     %d\n", s.CrowdsReturned)
	fmt.Fprintf(w, "gatherings returned: %d\n", s.GatheringsReturned)
	fmt.Fprintf(w, "crowds deduped:      %d\n", s.CrowdsDeduped)
	fmt.Fprintf(w, "crowds stitched:     %d\n", s.CrowdsStitched)
	fmt.Fprintf(w, "apply panics:        %d\n", s.ApplyPanics)
	fmt.Fprintf(w, "shards quarantined:  %d\n", s.ShardsQuarantined)
}

// ResilienceCounters are the live counters of the streaming-resilience
// layer in front of the engine: what the watermark admission stage did to
// a messy stream (reordered, late, duplicate and abandoned batches) and
// what the durability side wrote and replayed. Like EngineCounters, all
// fields are atomic and a consistent-enough view comes from Snapshot.
//
// The admission contract these counters audit: every batch offered to the
// admitter is exactly one of admitted, duplicate, late, or dropped — a
// batch the engine never sees always advances a counter, never vanishes
// silently.
type ResilienceCounters struct {
	// Admission side.
	BatchesAdmitted  atomic.Uint64 // batches released to the engine in order, exactly once
	BatchesReordered atomic.Uint64 // batches that arrived out of order but inside the watermark and were re-sequenced
	BatchesLate      atomic.Uint64 // batches that arrived for a slot already abandoned — dropped
	BatchesDuplicate atomic.Uint64 // batches whose sequence or content was already admitted or buffered — dropped
	BatchesDropped   atomic.Uint64 // slots abandoned by a watermark advance; an empty filler batch keeps the tick domain aligned
	TicksDropped     atomic.Uint64 // ticks carried by late/abandoned batches, lost to the stores

	// Durability side.
	CheckpointsWritten atomic.Uint64 // per-shard checkpoint files committed (written, synced, renamed)
	WALReplayed        atomic.Uint64 // batches re-applied from the write-ahead log at startup
}

// ResilienceCounterSnapshot is a point-in-time copy of ResilienceCounters.
type ResilienceCounterSnapshot struct {
	BatchesAdmitted    uint64
	BatchesReordered   uint64
	BatchesLate        uint64
	BatchesDuplicate   uint64
	BatchesDropped     uint64
	TicksDropped       uint64
	CheckpointsWritten uint64
	WALReplayed        uint64
}

// Snapshot reads every counter once (per-field atomic, as with
// EngineCounters).
func (c *ResilienceCounters) Snapshot() ResilienceCounterSnapshot {
	return ResilienceCounterSnapshot{
		BatchesAdmitted:    c.BatchesAdmitted.Load(),
		BatchesReordered:   c.BatchesReordered.Load(),
		BatchesLate:        c.BatchesLate.Load(),
		BatchesDuplicate:   c.BatchesDuplicate.Load(),
		BatchesDropped:     c.BatchesDropped.Load(),
		TicksDropped:       c.TicksDropped.Load(),
		CheckpointsWritten: c.CheckpointsWritten.Load(),
		WALReplayed:        c.WALReplayed.Load(),
	}
}

// Fprint renders the snapshot as an aligned block, matching
// EngineCounterSnapshot.Fprint.
func (s ResilienceCounterSnapshot) Fprint(w io.Writer) {
	fmt.Fprintf(w, "batches admitted:    %d\n", s.BatchesAdmitted)
	fmt.Fprintf(w, "batches reordered:   %d\n", s.BatchesReordered)
	fmt.Fprintf(w, "batches late:        %d\n", s.BatchesLate)
	fmt.Fprintf(w, "batches duplicate:   %d\n", s.BatchesDuplicate)
	fmt.Fprintf(w, "batches dropped:     %d\n", s.BatchesDropped)
	fmt.Fprintf(w, "ticks dropped:       %d\n", s.TicksDropped)
	fmt.Fprintf(w, "checkpoints written: %d\n", s.CheckpointsWritten)
	fmt.Fprintf(w, "wal batches replayed: %d\n", s.WALReplayed)
}

// ClusterCounters are the live counters of the multi-node layer: what the
// forwarding data plane sent, retried and gave up on, what the
// breaker did to failing peers, and how often reads had to degrade to
// partial answers. All fields are atomic, as with the other counter sets.
//
// The forwarding contract these counters audit mirrors the admission one:
// a sub-batch handed to a peer forwarder is eventually exactly one of
// delivered (ForwardsSent) or abandoned (ForwardsDropped) — never silently
// lost. Retries of the same (producer, seq) are idempotent at the receiver
// (its admission stage classifies them as duplicates), so ForwardsRetried
// can exceed ForwardsSent without double-applying anything.
type ClusterCounters struct {
	// Forward data plane, sender side.
	ForwardsSent    atomic.Uint64 // sub-batches delivered to a peer (2xx)
	ForwardsRetried atomic.Uint64 // delivery attempts that failed and were retried
	ForwardsDropped atomic.Uint64 // sub-batches abandoned after the retry deadline

	// Forward data plane, receiver side.
	ForwardsReceived atomic.Uint64 // forwarded sub-batches accepted into admission
	ForwardsRejected atomic.Uint64 // forwards refused (map-version mismatch, not ready, bad payload)

	// Per-peer circuit breakers.
	BreakerOpens  atomic.Uint64 // closed→open transitions (peer declared unhealthy)
	BreakerProbes atomic.Uint64 // half-open probe requests let through
	BreakerCloses atomic.Uint64 // open→closed transitions (probe succeeded)

	// Scatter-gather read side.
	QueriesPartial   atomic.Uint64 // scatter-gather answers missing at least one peer
	PeersUnreachable atomic.Uint64 // per-query count of peers that contributed nothing
}

// ClusterCounterSnapshot is a point-in-time copy of ClusterCounters.
type ClusterCounterSnapshot struct {
	ForwardsSent     uint64
	ForwardsRetried  uint64
	ForwardsDropped  uint64
	ForwardsReceived uint64
	ForwardsRejected uint64
	BreakerOpens     uint64
	BreakerProbes    uint64
	BreakerCloses    uint64
	QueriesPartial   uint64
	PeersUnreachable uint64
}

// Snapshot reads every counter once (per-field atomic, as with the other
// counter sets).
func (c *ClusterCounters) Snapshot() ClusterCounterSnapshot {
	return ClusterCounterSnapshot{
		ForwardsSent:     c.ForwardsSent.Load(),
		ForwardsRetried:  c.ForwardsRetried.Load(),
		ForwardsDropped:  c.ForwardsDropped.Load(),
		ForwardsReceived: c.ForwardsReceived.Load(),
		ForwardsRejected: c.ForwardsRejected.Load(),
		BreakerOpens:     c.BreakerOpens.Load(),
		BreakerProbes:    c.BreakerProbes.Load(),
		BreakerCloses:    c.BreakerCloses.Load(),
		QueriesPartial:   c.QueriesPartial.Load(),
		PeersUnreachable: c.PeersUnreachable.Load(),
	}
}

// Fprint renders the snapshot as an aligned block, matching the other
// counter sets.
func (s ClusterCounterSnapshot) Fprint(w io.Writer) {
	fmt.Fprintf(w, "forwards sent:       %d\n", s.ForwardsSent)
	fmt.Fprintf(w, "forwards retried:    %d\n", s.ForwardsRetried)
	fmt.Fprintf(w, "forwards dropped:    %d\n", s.ForwardsDropped)
	fmt.Fprintf(w, "forwards received:   %d\n", s.ForwardsReceived)
	fmt.Fprintf(w, "forwards rejected:   %d\n", s.ForwardsRejected)
	fmt.Fprintf(w, "breaker opens:       %d\n", s.BreakerOpens)
	fmt.Fprintf(w, "breaker probes:      %d\n", s.BreakerProbes)
	fmt.Fprintf(w, "breaker closes:      %d\n", s.BreakerCloses)
	fmt.Fprintf(w, "queries partial:     %d\n", s.QueriesPartial)
	fmt.Fprintf(w, "peers unreachable:   %d\n", s.PeersUnreachable)
}
