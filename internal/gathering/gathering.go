// Package gathering implements closed gathering detection (Definitions 3
// and 4, §III-B). Given a closed crowd, a gathering is a sub-crowd whose
// every cluster contains at least mp participators — objects appearing in
// at least kp clusters of that sub-crowd. Gatherings lack the downward
// closure property, so detection uses the paper's Test-and-Divide (TAD)
// algorithm: test the whole crowd, remove invalid clusters (those with too
// few participators), and recurse on the contiguous pieces (Algorithm 2,
// Theorem 1).
//
// Three detectors are provided, mirroring the paper's Fig. 7 comparison:
// BruteForce (test every contiguous subsequence by decreasing length), TAD
// (Algorithm 2 with per-recursion counting) and TADStar (TAD over bit
// vector signatures with mask-based division — the BVS is built once and
// reused by every recursion).
//
// A Detector is additionally extendable: when a crowd grows by a batch of
// new ticks (§III-C), Extend grows the existing signatures, membership
// lists and participation counts by exactly the new region instead of
// re-scanning the whole crowd, so the incremental layer's per-batch
// detection cost is proportional to the batch, not the crowd lifetime.
package gathering

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/crowd"
	"repro/internal/trajectory"
)

// Params are the gathering thresholds.
type Params struct {
	KC int // crowd lifetime threshold (a divided piece must still be a crowd)
	KP int // participator lifetime threshold (Definition 3)
	MP int // support threshold: minimum participators per cluster (Definition 4)
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.KC < 1 || p.KP < 1 || p.MP < 1 {
		return fmt.Errorf("gathering: thresholds must be ≥ 1, got %+v", p)
	}
	return nil
}

// Gathering is one closed gathering inside a source crowd: the clusters at
// positions [Lo, Hi) of the crowd, together with the participator set.
// Gatherings are shared between the incremental caches and every snapshot
// handed to queries, so none changes once built.
type Gathering struct {
	Crowd         *crowd.Crowd // the sub-crowd forming the gathering
	Lo, Hi        int          // positions within the source crowd, half-open
	Participators []trajectory.ObjectID
}

// Lifetime returns the gathering's duration in ticks.
func (g *Gathering) Lifetime() int { return g.Hi - g.Lo }

// countPool recycles the occurrence-count maps behind Participators so the
// TAD/BruteForce paths and ad-hoc callers stop re-allocating them.
var countPool = sync.Pool{New: func() any { return make(map[trajectory.ObjectID]int) }}

// Participators returns the objects appearing in at least kp clusters of
// cr, sorted by ID (Definition 3).
func Participators(cr *crowd.Crowd, kp int) []trajectory.ObjectID {
	counts := countPool.Get().(map[trajectory.ObjectID]int)
	for _, cl := range cr.Clusters() {
		for _, id := range cl.Objects {
			counts[id]++
		}
	}
	var out []trajectory.ObjectID
	for id, n := range counts {
		if n >= kp {
			out = append(out, id)
		}
	}
	clear(counts)
	countPool.Put(counts)
	slices.Sort(out)
	return out
}

// IsGathering reports whether cr as a whole satisfies Definition 4, and
// returns its participators when it does.
func IsGathering(cr *crowd.Crowd, p Params) ([]trajectory.ObjectID, bool) {
	par := Participators(cr, p.KP)
	isPar := make(map[trajectory.ObjectID]bool, len(par))
	for _, id := range par {
		isPar[id] = true
	}
	for _, cl := range cr.Clusters() {
		n := 0
		for _, id := range cl.Objects {
			if isPar[id] {
				n++
			}
		}
		if n < p.MP {
			return nil, false
		}
	}
	return par, true
}

// BruteForce tests every contiguous subsequence of cr in decreasing length
// order and reports the closed gatherings: gatherings not contained in a
// longer gathering already found. This is the Fig. 7 baseline; its cost is
// quadratic in the number of subsequences tested, each test being linear.
func BruteForce(cr *crowd.Crowd, p Params) []*Gathering {
	n := cr.Lifetime()
	var out []*Gathering
	for length := n; length >= p.KC; length-- {
		for lo := 0; lo+length <= n; lo++ {
			hi := lo + length
			contained := false
			for _, g := range out {
				if g.Lo <= lo && hi <= g.Hi {
					contained = true
					break
				}
			}
			if contained {
				continue
			}
			sub := cr.Sub(lo, hi)
			if par, ok := IsGathering(sub, p); ok {
				out = append(out, &Gathering{Crowd: sub, Lo: lo, Hi: hi, Participators: par})
			}
		}
	}
	sortGatherings(out)
	return out
}

// TAD is Algorithm 2 with straightforward occurrence counting repeated
// from scratch in every recursion.
func TAD(cr *crowd.Crowd, p Params) []*Gathering {
	cls := cr.Clusters()
	var out []*Gathering
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		sub := cr.Sub(lo, hi)
		par := Participators(sub, p.KP)
		isPar := make(map[trajectory.ObjectID]bool, len(par))
		for _, id := range par {
			isPar[id] = true
		}
		// find invalid clusters
		var invalid []int
		for i := lo; i < hi; i++ {
			n := 0
			for _, id := range cls[i].Objects {
				if isPar[id] {
					n++
				}
			}
			if n < p.MP {
				invalid = append(invalid, i)
			}
		}
		if len(invalid) == 0 {
			out = append(out, &Gathering{Crowd: sub, Lo: lo, Hi: hi, Participators: par})
			return
		}
		for _, seg := range segments(lo, hi, invalid) {
			if seg[1]-seg[0] >= p.KC {
				rec(seg[0], seg[1])
			}
		}
	}
	if cr.Lifetime() >= p.KC {
		rec(0, cr.Lifetime())
	}
	sortGatherings(out)
	return out
}

// segments splits [lo, hi) at the sorted invalid positions, returning the
// maximal runs of valid positions.
func segments(lo, hi int, invalid []int) [][2]int {
	var out [][2]int
	start := lo
	for _, iv := range invalid {
		if iv > start {
			out = append(out, [2]int{start, iv})
		}
		start = iv + 1
	}
	if hi > start {
		out = append(out, [2]int{start, hi})
	}
	return out
}

// Detector holds the bit vector signatures of a crowd's objects, built in
// one scan and shared by every TAD* recursion, by the incremental
// gathering update, and — through Extend — across batches: the incremental
// layer caches the detector of every live tail crowd and grows it by the
// new ticks on each arrival instead of rebuilding it.
type Detector struct {
	cr *crowd.Crowd
	p  Params
	n  int // ticks covered == cr.Lifetime()

	objs    []trajectory.ObjectID // dense index -> object ID, in first-appearance order
	idx     []int32               // object ID -> dense index, -1 when absent
	vecs    []bitvec.Vector       // BVS per dense object index
	members [][]int32             // per cluster position: dense object indices

	// Incremental whole-crowd state, maintained by extendTo: counts is
	// each object's total appearance count (== popcount of its vector);
	// parTick is, per cluster position, how many of its members are
	// whole-crowd participators (counts ≥ KP). Together they make the
	// top-level Test step O(objects + ticks) with no bit scanning at all:
	// counts replace the masked popcounts and parTick replaces the
	// member-list walk. Both are cheap to maintain because extension only
	// ever adds appearances — an object's participator status and a
	// cluster's valid status are monotone under extension.
	counts  []int32
	parTick []int32

	all   []int32 // cached identity alive-set for top-level tests
	isPar []bool  // scratch for test, cleared before each return

	// spare holds pre-carved signature vectors (one shared backing array
	// per batch of 64) handed to newly admitted objects; dropped whenever
	// the signature word width grows, since stale-width vectors would
	// re-allocate on first use anyway.
	spare []bitvec.Vector

	// Tests counts the Test steps this detector has run: one per
	// sub-crowd examined by Run or RunIncremental, the whole crowd
	// included. It is the deterministic work measure of the gathering
	// update against re-computation (Fig. 8b).
	Tests int
}

// NewDetector builds the signatures for cr: one scan of the crowd
// (§III-B2). Object IDs are expected to be dense small integers (they are
// throughout the pipeline), so the object index is a flat slice keyed by
// ID rather than a hash map.
func NewDetector(cr *crowd.Crowd, p Params) *Detector {
	d := &Detector{p: p, cr: cr}
	d.extendTo(cr)
	return d
}

// Extend grows the detector from its current crowd to cr, which must be an
// extension of it (same prefix, new clusters appended, as a resumed
// sweep's crowd extends its Prefix at the resume tick). Only the new
// region is scanned.
func (d *Detector) Extend(cr *crowd.Crowd) {
	if cr.Lifetime() < d.n {
		panic(fmt.Sprintf("gathering: Extend to shorter crowd (%d < %d ticks)", cr.Lifetime(), d.n))
	}
	d.extendTo(cr)
}

// extendTo ingests cluster positions [d.n, cr.Lifetime()) of cr.
func (d *Detector) extendTo(cr *crowd.Crowd) {
	oldN, n := d.n, cr.Lifetime()
	d.cr = cr
	d.n = n
	if n == oldN {
		return
	}
	if (n+63)/64 != (oldN+63)/64 {
		d.spare = nil
	}
	for i := range d.vecs {
		d.vecs[i] = d.vecs[i].Grow(n)
	}
	for len(d.members) < n {
		d.members = append(d.members, nil)
		d.parTick = append(d.parTick, 0)
	}
	cls := cr.Clusters()
	for t := oldN; t < n; t++ {
		cl := cls[t]
		ms := make([]int32, len(cl.Objects))
		for k, id := range cl.Objects {
			for int(id) >= len(d.idx) {
				d.idx = append(d.idx, -1)
			}
			oi := d.idx[id]
			if oi < 0 {
				oi = int32(len(d.objs))
				d.idx[id] = oi
				d.objs = append(d.objs, id)
				if len(d.spare) == 0 {
					d.spare = bitvec.NewBatch(64, n)
				}
				v := d.spare[len(d.spare)-1]
				d.spare = d.spare[:len(d.spare)-1]
				if v.Len() != n {
					v = v.Grow(n)
				}
				d.vecs = append(d.vecs, v)
				d.counts = append(d.counts, 0)
				d.all = append(d.all, oi)
				d.isPar = append(d.isPar, false)
			}
			ms[k] = oi
			d.vecs[oi].Set(t)
			d.counts[oi]++
			switch {
			case int(d.counts[oi]) == d.p.KP:
				// The object just became a whole-crowd participator:
				// credit every cluster it appears in, including this one.
				v := d.vecs[oi]
				for u := v.NextSetBit(0); u >= 0; u = v.NextSetBit(u + 1) {
					d.parTick[u]++
				}
			case int(d.counts[oi]) > d.p.KP:
				d.parTick[t]++
			}
		}
		d.members[t] = ms
	}
}

// Clone returns an independent copy of the detector, for the rare case of
// a crowd candidate branching into several extensions: each branch needs
// its own signatures to grow.
func (d *Detector) Clone() *Detector {
	c := &Detector{
		cr:      d.cr,
		p:       d.p,
		n:       d.n,
		objs:    append([]trajectory.ObjectID(nil), d.objs...),
		idx:     append([]int32(nil), d.idx...),
		vecs:    make([]bitvec.Vector, len(d.vecs)),
		members: append([][]int32(nil), d.members...), // per-tick lists are immutable
		counts:  append([]int32(nil), d.counts...),
		parTick: append([]int32(nil), d.parTick...),
		all:     append([]int32(nil), d.all...),
		isPar:   make([]bool, len(d.isPar)),
		// spare stays with the original: carved vectors share backing.
	}
	for i := range d.vecs {
		c.vecs[i] = d.vecs[i].Clone()
	}
	return c
}

// test computes, for the sub-crowd [lo, hi) restricted to the candidate
// objects alive, the participator set and the invalid cluster positions.
// The whole-crowd case reads the incrementally maintained counts — O(objs
// + ticks); proper sub-ranges count with a masked popcount per object —
// the Test step of TAD*.
func (d *Detector) test(lo, hi int, alive []int32) (par []int32, invalid []int) {
	d.Tests++
	// Nearly every alive object of a surviving crowd is a participator, so
	// presizing par to the candidate count trades a sliver of memory for
	// growth-free appends on the recursion's hottest call. invalid is left
	// unsized: it is empty for surviving crowds, and presizing it would
	// allocate on the common path.
	par = make([]int32, 0, len(alive))
	isPar := d.isPar
	if lo == 0 && hi == d.n {
		// alive is d.all here (the top-level call): parTick already counts
		// participators over all objects.
		for _, oi := range alive {
			if int(d.counts[oi]) >= d.p.KP {
				isPar[oi] = true
				par = append(par, oi)
			}
		}
		for t := lo; t < hi; t++ {
			if int(d.parTick[t]) < d.p.MP {
				invalid = append(invalid, t)
			}
		}
	} else {
		mask := bitvec.RangeMask(d.n, lo, hi)
		for _, oi := range alive {
			if d.vecs[oi].PopcountMasked(mask) >= d.p.KP {
				isPar[oi] = true
				par = append(par, oi)
			}
		}
		for t := lo; t < hi; t++ {
			n := 0
			for _, oi := range d.members[t] {
				if isPar[oi] {
					n++
				}
			}
			if n < d.p.MP {
				invalid = append(invalid, t)
			}
		}
	}
	for _, oi := range par {
		isPar[oi] = false
	}
	return par, invalid
}

// Run executes TAD* over the whole crowd.
func (d *Detector) Run() []*Gathering {
	if d.n < d.p.KC || len(d.objs) == 0 {
		return nil
	}
	var out []*Gathering
	d.rec(0, d.n, d.all, &out)
	sortGatherings(out)
	return out
}

// rec recurses on the sub-crowd [lo, hi). alive holds the dense indices of
// objects that were participators of the parent sub-crowd: a
// non-participator of a crowd remains a non-participator of every
// sub-crowd, so everything else is skipped (§III-B2, Divide step).
func (d *Detector) rec(lo, hi int, alive []int32, out *[]*Gathering) {
	par, invalid := d.test(lo, hi, alive)
	if len(invalid) == 0 {
		*out = append(*out, d.materialise(lo, hi, par))
		return
	}
	for _, seg := range segments(lo, hi, invalid) {
		if seg[1]-seg[0] >= d.p.KC {
			d.rec(seg[0], seg[1], par, out)
		}
	}
}

func (d *Detector) materialise(lo, hi int, par []int32) *Gathering {
	ids := make([]trajectory.ObjectID, len(par))
	for i, oi := range par {
		ids[i] = d.objs[oi]
	}
	slices.Sort(ids)
	return &Gathering{
		Crowd:         d.cr.Sub(lo, hi),
		Lo:            lo,
		Hi:            hi,
		Participators: ids,
	}
}

// RunIncremental executes the gathering update of §III-C2. The crowd is an
// extension of an old crowd occupying positions [0, oldLen); oldGatherings
// are the closed gatherings previously detected in it. Using Theorem 2: if
// some cluster at position j ≤ oldLen is invalid in the extended crowd,
// every old gathering entirely before j remains closed and only the
// sub-crowds right of j need re-examination. Combined with Extend and the
// incremental whole-crowd Test state, the per-batch cost is proportional
// to the new region (plus a linear integer scan of parTick), not to a
// re-scan of the crowd's history.
func (d *Detector) RunIncremental(oldLen int, oldGatherings []*Gathering) []*Gathering {
	n := d.n
	if n < d.p.KC || len(d.objs) == 0 {
		return nil
	}
	par, invalid := d.test(0, n, d.all)
	if len(invalid) == 0 {
		out := []*Gathering{d.materialise(0, n, par)}
		return out
	}

	// Rightmost invalid position j with j ≤ oldLen (position oldLen is the
	// paper's c_{n+1}, the first new cluster).
	j := -1
	for _, iv := range invalid {
		if iv <= oldLen && iv > j {
			j = iv
		}
	}
	var out []*Gathering
	if j >= 0 {
		// Theorem 2: gatherings within [0, j) are exactly the old ones.
		for _, g := range oldGatherings {
			if g.Hi <= j {
				out = append(out, g)
			}
		}
		// Re-examine only the region right of j.
		var rest []int
		for _, iv := range invalid {
			if iv > j {
				rest = append(rest, iv)
			}
		}
		for _, seg := range segments(j+1, n, rest) {
			if seg[1]-seg[0] >= d.p.KC {
				d.rec(seg[0], seg[1], par, &out)
			}
		}
	} else {
		// No invalid cluster inside the old region: the theorem gives no
		// shortcut, recurse normally.
		for _, seg := range segments(0, n, invalid) {
			if seg[1]-seg[0] >= d.p.KC {
				d.rec(seg[0], seg[1], par, &out)
			}
		}
	}
	sortGatherings(out)
	return out
}

// TADStar is TAD implemented with bit vector signatures (the TAD* of the
// paper): signatures are built once, Test is a masked popcount, and Divide
// passes masks rather than copies.
func TADStar(cr *crowd.Crowd, p Params) []*Gathering {
	return NewDetector(cr, p).Run()
}

func sortGatherings(gs []*Gathering) {
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Lo != gs[j].Lo {
			return gs[i].Lo < gs[j].Lo
		}
		return gs[i].Hi < gs[j].Hi
	})
}
