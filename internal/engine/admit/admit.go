// Package admit is the streaming admission stage in front of the engine:
// it turns the messy batch stream real feeds deliver — late, reordered,
// duplicated, with whole batches missing — back into the ordered,
// exactly-once stream the §III-C incremental algorithm requires
// (Theorem 2 extends the saved candidate set by "the next batch"; it has
// no meaning for a batch applied twice or out of order).
//
// The contract is watermark admission over per-batch sequence numbers.
// Sequence s is the batch covering ticks [s·per, (s+1)·per) of the
// stream's tick domain; the producer assigns it (a position in the feed),
// the admitter enforces it. An Admitter holds a bounded reorder ring of
// Watermark slots ahead of the next expected sequence:
//
//   - a batch arriving in order is released immediately, together with
//     any buffered run it completes;
//   - a batch arriving early (within the watermark) is buffered and
//     released when its predecessors fill in — counted as reordered;
//   - a batch arriving for a slot more than Watermark ahead forces the
//     watermark forward: the slots it passes are released in order, and a
//     slot whose batch never arrived is released as an empty filler batch
//     (so downstream tick domains stay aligned) and counted as dropped;
//   - a batch arriving for a slot already released is a duplicate (if
//     that slot was admitted) or late-beyond-the-watermark (if it was
//     abandoned); both are dropped and counted, never silent;
//   - a batch whose content fingerprint matches a recently admitted batch
//     under a different sequence — a producer retry that bumped its
//     counter — is dropped as a duplicate too.
//
// Object churn needs no handling here: batches are self-describing sets
// of trajectories, and the stores already treat an object absent from a
// tick as simply not there. The admitter's job is only that each tick
// window reaches the engine once, in order.
//
// All methods are safe for concurrent use; the reorder state is guarded
// by one mutex (see docs/INVARIANTS.md for the lock table).
package admit

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/stats"
	"repro/internal/trajectory"
)

// DefaultWatermark is the reorder window, in batches, used when Config
// leaves Watermark zero.
const DefaultWatermark = 8

// maxLost bounds the abandoned-slot set kept to tell a late arrival from
// a duplicate. Past it, new losses are no longer remembered individually
// and their late arrivals count as duplicates — the batch is still
// dropped and still counted, only under the coarser label.
const maxLost = 1 << 16

// Config configures an Admitter.
type Config struct {
	// Watermark is the reorder window in batches: how far ahead of the
	// next expected sequence a batch may arrive and still be buffered.
	// Zero means DefaultWatermark. Larger watermarks tolerate wilder
	// reordering but hold more batches in memory and delay loss
	// detection.
	Watermark int

	// Start is the first sequence number the admitter expects — zero for
	// a fresh stream, the restored frontier after a checkpoint/WAL
	// recovery (earlier sequences re-delivered by the replaying producer
	// are then counted as duplicates and dropped, which is exactly the
	// resume semantics recovery wants).
	Start uint64

	// TicksPerBatch fixes the tick width of filler batches emitted for
	// abandoned slots. Zero infers it from the first batch offered.
	TicksPerBatch int

	// Counters receives the admission tallies. Nil counts into a private
	// sink.
	Counters *stats.ResilienceCounters
}

// Emit is one batch released by the admission stage, in sequence order.
type Emit struct {
	Seq   uint64
	Batch *trajectory.DB
	// Filler marks a batch synthesised for an abandoned slot: it carries
	// the slot's tick domain and no trajectories, keeping downstream
	// domains aligned while the slot's data is lost.
	Filler bool
}

// slot is one reorder-ring entry. fp is the parked batch's fingerprint,
// taken when it was offered and recorded when it is released.
type slot struct {
	occupied bool
	seq      uint64
	batch    *trajectory.DB
	fp       uint64
}

// Admitter re-sequences a batch stream. Create one with New. mu guards
// every field below counters.
type Admitter struct {
	mu sync.Mutex

	counters *stats.ResilienceCounters

	next     uint64              // next sequence to release
	ring     []slot              // seq s parks at ring[s % len(ring)]
	buffered int                 // occupied ring slots
	lost     map[uint64]struct{} // abandoned slots, for late-vs-duplicate
	fps      []uint64            // content fingerprints of recently released batches
	fpAt     int                 // next fps slot to overwrite

	// filler-domain inference, set by the first Offer.
	per      int     // ticks per batch
	step     float64 // tick width
	base     float64 // continuous time of tick 0 of sequence 0
	inferred bool
}

// New creates an admitter.
func New(cfg Config) *Admitter {
	w := cfg.Watermark
	if w <= 0 {
		w = DefaultWatermark
	}
	c := cfg.Counters
	if c == nil {
		c = &stats.ResilienceCounters{}
	}
	a := &Admitter{
		counters: c,
		next:     cfg.Start,
		ring:     make([]slot, w),
		lost:     make(map[uint64]struct{}),
		fps:      make([]uint64, 2*w),
		per:      cfg.TicksPerBatch,
	}
	if a.per > 0 {
		a.inferred = false // step/base still come from the first batch
	}
	return a
}

// Offer admits one batch under its stream sequence number. Batches ready
// to be released — in order, exactly once — are appended to out, which is
// returned (pass out[:0] of a reused slice to keep the steady-state path
// allocation-free). A batch that is not released and not buffered has
// been dropped, and exactly one of the duplicate/late/dropped counters
// has advanced for it. The admitter keeps a reference to buffered
// batches until they are released; callers must not mutate offered
// batches.
func (a *Admitter) Offer(seq uint64, batch *trajectory.DB, out []Emit) []Emit {
	a.mu.Lock()
	defer a.mu.Unlock()

	a.infer(seq, batch)

	if seq < a.next {
		// The slot was already released: admitted (duplicate) or
		// abandoned (late beyond the watermark).
		if _, ok := a.lost[seq]; ok {
			delete(a.lost, seq)
			a.counters.BatchesLate.Add(1)
			a.counters.TicksDropped.Add(uint64(batch.Domain.N))
		} else {
			a.counters.BatchesDuplicate.Add(1)
		}
		return out
	}

	fp := fingerprint(batch)
	if a.seenFP(fp) {
		// Same content as a recently released batch under a new
		// sequence: a producer retry whose counter advanced. Its slot, if
		// it stays unfilled, is abandoned by a later watermark advance.
		a.counters.BatchesDuplicate.Add(1)
		return out
	}

	w := uint64(len(a.ring))
	// Beyond the watermark: force it forward, releasing (or abandoning)
	// slots until seq fits in the ring. The advance can stop on a parked
	// batch at the new frontier; it must go out now, or a re-delivery of
	// its sequence would be released in its place and strand it.
	for seq >= a.next+w {
		out = a.releaseNext(out)
	}
	out = a.releaseRun(out)

	if seq == a.next {
		out = a.release(out, batch, fp)
		// The arrival may complete a buffered run.
		return a.releaseRun(out)
	}

	// Early within the watermark: park it.
	s := &a.ring[seq%w]
	if s.occupied && s.seq == seq {
		a.counters.BatchesDuplicate.Add(1)
		return out
	}
	s.occupied, s.seq, s.batch, s.fp = true, seq, batch, fp
	a.buffered++
	a.counters.BatchesReordered.Add(1)
	return out
}

// Drain releases everything still parked in the reorder ring, abandoning
// the gaps in front of it — the end-of-stream flush: once the producer is
// done, slots that never arrived will never arrive.
func (a *Admitter) Drain(out []Emit) []Emit {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.buffered > 0 {
		out = a.releaseNext(out)
	}
	return out
}

// releaseRun releases the run of parked batches starting at the frontier.
func (a *Admitter) releaseRun(out []Emit) []Emit {
	w := uint64(len(a.ring))
	for {
		s := &a.ring[a.next%w]
		if !s.occupied || s.seq != a.next {
			return out
		}
		b := s.batch
		s.occupied, s.batch = false, nil
		a.buffered--
		out = a.release(out, b, s.fp)
	}
}

// releaseNext releases the next slot: its buffered batch when it arrived,
// an empty filler otherwise (the slot is abandoned and counted).
func (a *Admitter) releaseNext(out []Emit) []Emit {
	s := &a.ring[a.next%uint64(len(a.ring))]
	if s.occupied && s.seq == a.next {
		b := s.batch
		s.occupied, s.batch = false, nil
		a.buffered--
		return a.release(out, b, s.fp)
	}
	// Abandoned: remember it so a late arrival is told apart from a
	// duplicate, emit a filler to keep tick domains aligned.
	if len(a.lost) < maxLost {
		a.lost[a.next] = struct{}{}
	}
	a.counters.BatchesDropped.Add(1)
	a.counters.TicksDropped.Add(uint64(a.per))
	seq := a.next
	a.next++
	return append(out, Emit{Seq: seq, Batch: a.filler(seq), Filler: true})
}

// release emits the admitted batch b at the frontier, records its
// fingerprint fp (taken by Offer) and advances the frontier.
func (a *Admitter) release(out []Emit, b *trajectory.DB, fp uint64) []Emit {
	a.fps[a.fpAt] = fp
	a.fpAt = (a.fpAt + 1) % len(a.fps)
	a.counters.BatchesAdmitted.Add(1)
	a.next++
	return append(out, Emit{Seq: a.next - 1, Batch: b})
}

// seenFP reports whether fp matches a recently released batch.
func (a *Admitter) seenFP(fp uint64) bool {
	for _, f := range a.fps {
		if f == fp && f != 0 {
			return true
		}
	}
	return false
}

// infer captures the stream's batch geometry from the first offered
// batch, for filler synthesis. Fillers assume uniform batch width; a
// shorter final batch never needs a filler after it, so the assumption
// only bites for streams with genuinely irregular batching, which should
// set Config.TicksPerBatch.
func (a *Admitter) infer(seq uint64, batch *trajectory.DB) {
	if a.inferred {
		return
	}
	if a.per == 0 {
		a.per = batch.Domain.N
	}
	a.step = batch.Domain.Step
	a.base = batch.Domain.Start - float64(seq)*float64(a.per)*a.step
	a.inferred = true
}

// filler synthesises the empty batch standing in for an abandoned slot.
func (a *Admitter) filler(seq uint64) *trajectory.DB {
	d := trajectory.TimeDomain{
		Start: a.base + float64(seq)*float64(a.per)*a.step,
		Step:  a.step,
		N:     a.per,
	}
	if !a.inferred {
		// Nothing was ever offered; a zero-tick filler at least keeps the
		// exactly-once bookkeeping coherent.
		d = trajectory.TimeDomain{Step: 1}
	}
	return &trajectory.DB{Domain: d}
}

// fingerprint hashes a batch's identity — its tick window and the shape
// of its trajectories — without walking every sample: the domain, the
// trajectory count, and each trajectory's ID, length and endpoint
// samples, one 64-bit word at a time. Offer takes it once per batch; a
// parked batch carries it in its ring slot until release records it. Two
// legitimate batches always differ in Domain.Start, so a collision
// requires identical windows, which is what a duplicate is.
//
// Each word goes through one xxHash64 round (add the word times a prime,
// rotate, multiply by a prime) and the result through murmur3's
// finaliser. Every step is a bijection of the running hash for a fixed
// word and of the word for a fixed hash, so batches that differ in
// exactly one hashed word — a one-ulp move of one endpoint — always get
// different fingerprints.
func fingerprint(db *trajectory.DB) uint64 {
	h := uint64(hashSeed)
	h = mix(h, math.Float64bits(db.Domain.Start))
	h = mix(h, math.Float64bits(db.Domain.Step))
	h = mix(h, uint64(db.Domain.N))
	h = mix(h, uint64(len(db.Trajs)))
	for i := range db.Trajs {
		tr := &db.Trajs[i]
		h = mix(h, uint64(tr.ID))
		h = mix(h, uint64(len(tr.Samples)))
		if n := len(tr.Samples); n > 0 {
			h = mixSample(h, tr.Samples[0])
			h = mixSample(h, tr.Samples[n-1])
		}
	}
	h = avalanche(h)
	if h == 0 {
		h = hashSeed // 0 is the empty-slot sentinel in the fps ring
	}
	return h
}

const (
	hashSeed   = 0x27d4eb2f165667c5 // xxHash64's prime 5
	hashPrime1 = 0x9e3779b185ebca87
	hashPrime2 = 0xc2b2ae3d27d4eb4f
)

func mix(h, v uint64) uint64 {
	return bits.RotateLeft64(h+v*hashPrime2, 31) * hashPrime1
}

func mixSample(h uint64, s trajectory.Sample) uint64 {
	h = mix(h, math.Float64bits(s.Time))
	h = mix(h, math.Float64bits(s.P.X))
	return mix(h, math.Float64bits(s.P.Y))
}

// avalanche is murmur3's 64-bit finaliser.
func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
