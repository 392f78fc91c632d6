// Package trajectory models moving-object trajectories and the discrete
// time domain of the paper (§II). Raw trajectories are sequences of
// timestamped locations with arbitrary, unsynchronised sampling; the
// database discretises them onto a uniform tick domain TDB with linear
// interpolation supplying the "virtual points" for ticks that fall between
// samples.
package trajectory

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// ObjectID identifies a moving object. IDs are dense small integers so that
// downstream structures (bit vector signatures, per-object occurrence
// counters) can be plain slices.
type ObjectID int

// Tick is an index into the discrete time domain TDB.
type Tick int

// Sample is one timestamped location of a raw trajectory. Time is in
// arbitrary continuous units (the generator uses seconds).
type Sample struct {
	Time float64
	P    geo.Point
}

// Trajectory is the polyline of one moving object: a finite sequence of
// timestamped locations over a closed interval, sorted by time.
type Trajectory struct {
	ID      ObjectID
	Samples []Sample
}

// Lifespan returns the closed time interval covered by the trajectory.
// ok is false for an empty trajectory.
func (tr *Trajectory) Lifespan() (start, end float64, ok bool) {
	if len(tr.Samples) == 0 {
		return 0, 0, false
	}
	return tr.Samples[0].Time, tr.Samples[len(tr.Samples)-1].Time, true
}

// Sorted reports whether samples are in non-decreasing time order.
func (tr *Trajectory) Sorted() bool {
	return sort.SliceIsSorted(tr.Samples, func(i, j int) bool {
		return tr.Samples[i].Time < tr.Samples[j].Time
	})
}

// SortSamples sorts the samples by time (stable for equal timestamps).
func (tr *Trajectory) SortSamples() {
	sort.SliceStable(tr.Samples, func(i, j int) bool {
		return tr.Samples[i].Time < tr.Samples[j].Time
	})
}

// LocationAt returns the (possibly interpolated) location of the object at
// time t. ok is false when t is outside the trajectory's lifespan — the
// paper does not extrapolate beyond a trajectory's endpoints.
func (tr *Trajectory) LocationAt(t float64) (geo.Point, bool) {
	if !tr.alive(t) {
		return geo.Point{}, false
	}
	return interpolate(tr.Samples, searchTime(tr.Samples, t), t), true
}

// alive reports whether t lies within the trajectory's lifespan.
func (tr *Trajectory) alive(t float64) bool {
	n := len(tr.Samples)
	return n > 0 && t >= tr.Samples[0].Time && t <= tr.Samples[n-1].Time
}

// interpolate returns the location at time t, within the lifespan of ss,
// given i = searchTime(ss, t).
func interpolate(ss []Sample, i int, t float64) geo.Point {
	if i < len(ss) && ss[i].Time == t {
		return ss[i].P
	}
	// t lies strictly between samples i-1 and i: interpolate linearly.
	a, b := ss[i-1], ss[i]
	span := b.Time - a.Time
	if span == 0 {
		return a.P
	}
	return a.P.Lerp(b.P, (t-a.Time)/span)
}

// Window returns the samples that fix LocationAt(t) for every t in
// [t0, t1]: the last sample at or before t0 (the first sample at t0 when
// one lies exactly there), through the first sample at or after t1, both
// clamped to the lifespan. It is a sub-slice of Samples, not a copy, and
// nil when the lifespan misses the window. LocationAt on the result agrees
// with LocationAt on the whole trajectory at every t in [t0, t1], ok flag
// included, and the Window of a Window is the same slice. Like LocationAt
// it presumes time-sorted samples.
func (tr *Trajectory) Window(t0, t1 float64) []Sample {
	ss := tr.Samples
	n := len(ss)
	if n == 0 || !(t0 <= t1) || ss[n-1].Time < t0 || ss[0].Time > t1 {
		return nil
	}
	lo := searchTime(ss, t0)
	if lo > 0 && lo < n && ss[lo].Time > t0 {
		lo-- // t0 falls between samples: keep the one before it
	}
	hi := searchTime(ss, t1)
	if hi == n {
		hi = n - 1
	}
	return ss[lo : hi+1]
}

// searchTime returns the index of the first sample with Time >= t, or
// len(ss). Open-coded binary search: it is the innermost call of
// snapshot interpolation, and the sort.Search closure would allocate on
// that hot path.
func searchTime(ss []Sample, t float64) int {
	lo, hi := 0, len(ss)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ss[mid].Time < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Simplify returns a copy of the trajectory keeping only the vertices
// retained by Douglas–Peucker with tolerance eps (in metres). This is the
// pre-filtering step borrowed from CuTS [9].
func (tr *Trajectory) Simplify(eps float64) Trajectory {
	pts := make([]geo.Point, len(tr.Samples))
	for i, s := range tr.Samples {
		pts[i] = s.P
	}
	idx := geo.DouglasPeucker(pts, eps)
	out := Trajectory{ID: tr.ID, Samples: make([]Sample, len(idx))}
	for k, i := range idx {
		out.Samples[k] = tr.Samples[i]
	}
	return out
}

// TimeDomain is the uniform discrete time domain TDB = {t_0, ..., t_{N-1}}
// with t_i = Start + i*Step.
type TimeDomain struct {
	Start float64 // time of tick 0
	Step  float64 // tick width, > 0
	N     int     // number of ticks
}

// TimeOf returns the continuous time of tick i.
func (d TimeDomain) TimeOf(i Tick) float64 { return d.Start + float64(i)*d.Step }

// End returns the continuous time of the last tick, or Start when N==0.
func (d TimeDomain) End() float64 {
	if d.N == 0 {
		return d.Start
	}
	return d.TimeOf(Tick(d.N - 1))
}

// Validate reports whether the domain is well-formed: a finite start and
// a positive, finite step (NaN fails both), and a non-negative tick count.
func (d TimeDomain) Validate() error {
	if !(d.Step > 0) || math.IsInf(d.Step, 1) {
		return fmt.Errorf("trajectory: step must be positive and finite, got %v", d.Step)
	}
	if math.IsNaN(d.Start) || math.IsInf(d.Start, 0) {
		return fmt.Errorf("trajectory: start must be finite, got %v", d.Start)
	}
	if d.N < 0 {
		return fmt.Errorf("trajectory: negative tick count %d", d.N)
	}
	return nil
}

// Extend returns a domain with n additional ticks appended, keeping Start
// and Step. It is how incremental batches grow TDB into T'DB.
func (d TimeDomain) Extend(n int) TimeDomain {
	d.N += n
	return d
}

// ObjPoint is an object's location at some tick: one row of a snapshot.
type ObjPoint struct {
	ID ObjectID
	P  geo.Point
}

// DB is a moving-object database: a set of trajectories plus the discrete
// time domain they are analysed on.
type DB struct {
	Trajs  []Trajectory
	Domain TimeDomain
}

// ErrUnsortedTrajectory is returned by Validate when a trajectory's samples
// are out of time order.
var ErrUnsortedTrajectory = errors.New("trajectory: samples out of time order")

// Validate checks the database invariants: valid domain, sorted samples,
// unique object IDs.
func (db *DB) Validate() error {
	if err := db.Domain.Validate(); err != nil {
		return err
	}
	seen := make(map[ObjectID]bool, len(db.Trajs))
	for i := range db.Trajs {
		tr := &db.Trajs[i]
		if seen[tr.ID] {
			return fmt.Errorf("trajectory: duplicate object ID %d", tr.ID)
		}
		seen[tr.ID] = true
		if !tr.Sorted() {
			return fmt.Errorf("object %d: %w", tr.ID, ErrUnsortedTrajectory)
		}
	}
	return nil
}

// NumObjects returns the number of trajectories in the database.
func (db *DB) NumObjects() int { return len(db.Trajs) }

// MaxID returns the largest object ID present, or -1 for an empty database.
// Downstream bit-vector code sizes per-object arrays as MaxID+1.
func (db *DB) MaxID() ObjectID {
	max := ObjectID(-1)
	for i := range db.Trajs {
		if db.Trajs[i].ID > max {
			max = db.Trajs[i].ID
		}
	}
	return max
}

// Snapshot returns the interpolated locations of every object alive at tick
// i, in trajectory order. The dst slice is reused when non-nil.
func (db *DB) Snapshot(i Tick, dst []ObjPoint) []ObjPoint {
	t := db.Domain.TimeOf(i)
	dst = dst[:0]
	for j := range db.Trajs {
		tr := &db.Trajs[j]
		if p, ok := tr.LocationAt(t); ok {
			dst = append(dst, ObjPoint{ID: tr.ID, P: p})
		}
	}
	return dst
}

// Cursor is a forward interpolation cursor: it remembers, per trajectory,
// where the last time it located fell among the samples, so snapshots
// taken at non-decreasing ticks step forward from there instead of
// binary-searching every trajectory at every tick. The zero value is
// ready to use. Positions never depend on the cursor's state, only the
// cost of finding them does: a snapshot at an earlier tick, or of another
// database, binary-searches again. A Cursor is not safe for concurrent use.
type Cursor struct {
	next []int32 // per trajectory: 1 + the last searchTime result, 0 when unknown
}

// maxStep bounds the samples a cursor steps over one at a time before it
// binary-searches the rest.
const maxStep = 4

// Snapshot is db.Snapshot(i, dst): the same locations, ok flags and order,
// exactly LocationAt's under its precondition of time-sorted samples.
func (c *Cursor) Snapshot(db *DB, i Tick, dst []ObjPoint) []ObjPoint {
	t := db.Domain.TimeOf(i)
	if len(c.next) < len(db.Trajs) {
		c.next = make([]int32, len(db.Trajs))
	}
	dst = dst[:0]
	for j := range db.Trajs {
		tr := &db.Trajs[j]
		if !tr.alive(t) {
			continue
		}
		ss := tr.Samples
		k := int(c.next[j]) - 1
		if k < 0 || k > len(ss) || k > 0 && ss[k-1].Time >= t {
			k = searchTime(ss, t)
		} else {
			// Every sample before k is earlier than t: step forward.
			for end := min(k+maxStep, len(ss)); k < end && ss[k].Time < t; k++ {
			}
			if k < len(ss) && ss[k].Time < t {
				k += searchTime(ss[k:], t)
			}
		}
		c.next[j] = int32(k + 1)
		dst = append(dst, ObjPoint{ID: tr.ID, P: interpolate(ss, k, t)})
	}
	return dst
}

// Subset returns a database containing only the first n trajectories (used
// by the |ODB| sweeps of Fig. 6c). The domain is shared.
func (db *DB) Subset(n int) *DB {
	if n > len(db.Trajs) {
		n = len(db.Trajs)
	}
	return &DB{Trajs: db.Trajs[:n], Domain: db.Domain}
}

// SliceTicks returns a database view restricted to the tick range
// [from, from+n): trajectories are shared, only the domain window moves.
func (db *DB) SliceTicks(from Tick, n int) *DB {
	d := db.Domain
	d.Start = d.TimeOf(from)
	d.N = n
	return &DB{Trajs: db.Trajs, Domain: d}
}

// Batches splits the database's tick domain into consecutive windows of
// per ticks (the last may be shorter), one view per window — the unit of
// streaming ingestion. Trajectories are shared, as in SliceTicks. A
// non-positive per returns nil.
func (db *DB) Batches(per int) []*DB {
	if per <= 0 {
		return nil
	}
	out := make([]*DB, 0, (db.Domain.N+per-1)/per)
	for at := 0; at < db.Domain.N; at += per {
		n := per
		if at+n > db.Domain.N {
			n = db.Domain.N - at
		}
		out = append(out, db.SliceTicks(Tick(at), n))
	}
	return out
}

// Append merges the trajectories of batch into db, concatenating samples of
// objects that already exist and adding new objects, then extends the
// domain by batch.Domain.N ticks. Batches model the periodic arrival of new
// trajectory data (§III-C). The batch's Step must match.
func (db *DB) Append(batch *DB) error {
	if batch.Domain.Step != db.Domain.Step {
		return fmt.Errorf("trajectory: batch step %v != db step %v",
			batch.Domain.Step, db.Domain.Step)
	}
	byID := make(map[ObjectID]int, len(db.Trajs))
	for i := range db.Trajs {
		byID[db.Trajs[i].ID] = i
	}
	for _, tr := range batch.Trajs {
		if i, ok := byID[tr.ID]; ok {
			db.Trajs[i].Samples = append(db.Trajs[i].Samples, tr.Samples...)
		} else {
			byID[tr.ID] = len(db.Trajs)
			db.Trajs = append(db.Trajs, tr)
		}
	}
	db.Domain = db.Domain.Extend(batch.Domain.N)
	return nil
}
