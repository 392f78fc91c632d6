package stats

import (
	"fmt"
	"io"
	"sync/atomic"
)

// EngineCounters are the live activity counters of the streaming engine:
// how much work entered the ingest queue, how much has been applied to the
// store, and what the query side is reading back. All fields are atomic,
// so the engine's goroutines and query handlers update them without locks;
// read a consistent-enough view with Snapshot.
type EngineCounters struct {
	// Ingest side.
	BatchesEnqueued atomic.Uint64 // Append/TryAppend calls accepted
	BatchesRejected atomic.Uint64 // TryAppend calls refused by a busy router
	TasksApplied    atomic.Uint64 // batches' cluster databases applied to the store
	TicksIngested   atomic.Uint64 // ticks appended (counted once per batch)
	ClustersBuilt   atomic.Uint64 // snapshot clusters built by the per-batch DBSCAN pass

	// Query side.
	Queries            atomic.Uint64 // snapshot queries served
	CrowdsReturned     atomic.Uint64 // crowds returned across all queries
	GatheringsReturned atomic.Uint64 // gatherings returned across all queries

	// Fault side. A panic while applying a batch to the store is recovered
	// by the applier instead of taking the process down: the engine is
	// quarantined — its store is no longer trusted, later batches are
	// discarded, snapshots answer nothing — until a checkpoint restore
	// replaces it.
	ApplyPanics atomic.Uint64 // panics recovered in the apply path
}

// EngineCounterSnapshot is a point-in-time copy of EngineCounters.
type EngineCounterSnapshot struct {
	BatchesEnqueued uint64
	BatchesRejected uint64
	TasksApplied    uint64
	TicksIngested   uint64
	ClustersBuilt   uint64
	// Deprecated: ClustersReplicated is always zero: the engine is one
	// store and replicates nothing. ROADMAP item 16 deletes it.
	ClustersReplicated uint64
	Queries            uint64
	CrowdsReturned     uint64
	GatheringsReturned uint64
	// Deprecated: CrowdsDeduped is always zero: no read-time merge runs
	// in the engine. ROADMAP item 16 deletes it.
	CrowdsDeduped uint64
	// Deprecated: CrowdsStitched is always zero: no read-time merge runs
	// in the engine. ROADMAP item 16 deletes it.
	CrowdsStitched uint64
	ApplyPanics    uint64
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
		Queries:            c.Queries.Load(),
		CrowdsReturned:     c.CrowdsReturned.Load(),
		GatheringsReturned: c.GatheringsReturned.Load(),
		ApplyPanics:        c.ApplyPanics.Load(),
	}
}

// Fprint renders the snapshot as an aligned block, matching Report.Fprint.
func (s EngineCounterSnapshot) Fprint(w io.Writer) {
	fmt.Fprintf(w, "batches enqueued:    %d\n", s.BatchesEnqueued)
	fmt.Fprintf(w, "batches rejected:    %d\n", s.BatchesRejected)
	fmt.Fprintf(w, "batches applied:     %d\n", s.TasksApplied)
	fmt.Fprintf(w, "ticks ingested:      %d\n", s.TicksIngested)
	fmt.Fprintf(w, "clusters built:      %d\n", s.ClustersBuilt)
	fmt.Fprintf(w, "queries served:      %d\n", s.Queries)
	fmt.Fprintf(w, "crowds returned:     %d\n", s.CrowdsReturned)
	fmt.Fprintf(w, "gatherings returned: %d\n", s.GatheringsReturned)
	fmt.Fprintf(w, "apply panics:        %d\n", s.ApplyPanics)
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
	CheckpointsWritten atomic.Uint64 // checkpoint files committed (written, synced, renamed)
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
// forwarding data plane sent, retried and gave up on, and what the
// breaker did to failing peers. All fields are atomic, as with the other
// counter sets.
//
// The forwarding contract these counters audit mirrors the admission one:
// a batch handed to a peer forwarder is eventually exactly one of
// delivered (ForwardsSent) or abandoned (ForwardsDropped) — never silently
// lost. Retries of the same (producer, seq) are idempotent at the receiver
// (its admission stage classifies them as duplicates), so ForwardsRetried
// can exceed ForwardsSent without double-applying anything.
type ClusterCounters struct {
	// Forward data plane, sender side.
	ForwardsSent    atomic.Uint64 // batches delivered to a peer (2xx)
	ForwardsRetried atomic.Uint64 // delivery attempts that failed and were retried
	ForwardsDropped atomic.Uint64 // batches abandoned after the retry deadline

	// Forward data plane, receiver side.
	ForwardsReceived atomic.Uint64 // forwarded batches accepted into admission
	ForwardsRejected atomic.Uint64 // forwards refused (map-version mismatch, not ready, bad payload)

	// Per-peer circuit breakers.
	BreakerOpens  atomic.Uint64 // closed→open transitions (peer declared unhealthy)
	BreakerProbes atomic.Uint64 // half-open probe requests let through
	BreakerCloses atomic.Uint64 // open→closed transitions (probe succeeded)
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
	// Deprecated: reads are local, so no peer is ever unreachable to a
	// read; always 0.
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
}
