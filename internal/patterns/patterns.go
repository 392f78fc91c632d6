// Package patterns implements the group-pattern baselines the paper
// compares gatherings against in its effectiveness study (Fig. 5) and in
// §I: swarms (Li et al. [11], via the ObjectGrowth algorithm with apriori
// and backward pruning) and convoys (Jeung et al. [9], via the coherent
// moving-cluster sweep).
//
// All baselines consume the same snapshot-cluster database as crowd
// discovery, treating each snapshot cluster as the density-connected group
// of a tick.
package patterns

import (
	"sort"

	"repro/internal/bitvec"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// ---- shared helpers ------------------------------------------------------

// clusterIDs maps, for each tick, object ID -> index of the snapshot
// cluster containing it (or absent). It is the co-location oracle used by
// swarm discovery.
type clusterIDs []map[trajectory.ObjectID]int32

func buildClusterIDs(cdb *snapshot.CDB) clusterIDs {
	out := make(clusterIDs, len(cdb.Clusters))
	for t, cs := range cdb.Clusters {
		m := make(map[trajectory.ObjectID]int32)
		for ci, c := range cs {
			for _, id := range c.Objects {
				m[id] = int32(ci)
			}
		}
		out[t] = m
	}
	return out
}

func intersect(a, b []trajectory.ObjectID) []trajectory.ObjectID {
	var out []trajectory.ObjectID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func subset(a, b []trajectory.ObjectID) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// ---- swarm (ObjectGrowth) -----------------------------------------------

// Swarm is a closed swarm: a set of objects that appear in one snapshot
// cluster together at every tick of Ticks (|Ticks| ≥ mint, not necessarily
// consecutive).
type Swarm struct {
	Objects []trajectory.ObjectID
	Ticks   []trajectory.Tick
}

// SwarmParams are the swarm thresholds: at least MinO objects together for
// at least MinT (possibly non-consecutive) ticks.
type SwarmParams struct {
	MinO int
	MinT int
}

// Swarms runs ObjectGrowth over the cluster database and returns all
// closed swarms. The DFS adds objects in increasing ID order, prunes
// subtrees whose maximal tick set is already too small (apriori pruning)
// and subtrees whose tick set is preserved by a smaller-ID absent object
// (backward pruning); a node is emitted when no absent object preserves
// its tick set (forward closure checking).
//
// Tick sets are bit vectors: because co-clustering is an equivalence per
// tick, "O is together at t" reduces to "every o ∈ O shares the anchor's
// cluster at t", so per-anchor co-clustering bitsets turn every DFS-node
// test into an AND + popcount.
func Swarms(cdb *snapshot.CDB, p SwarmParams) []Swarm {
	ids := buildClusterIDs(cdb)
	nTicks := len(cdb.Clusters)

	// Universe of objects that ever appear in a cluster.
	objSet := map[trajectory.ObjectID]bool{}
	for _, m := range ids {
		for id := range m {
			objSet[id] = true
		}
	}
	objs := make([]trajectory.ObjectID, 0, len(objSet))
	for id := range objSet {
		objs = append(objs, id)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	if len(objs) == 0 || nTicks == 0 {
		return nil
	}
	objIdx := make(map[trajectory.ObjectID]int, len(objs))
	for i, o := range objs {
		objIdx[o] = i
	}

	var out []Swarm

	// candidate objects under the current anchor (those ever co-clustered
	// with it), with their co-clustering bitsets.
	type cand struct {
		idx int // index into objs
		bv  bitvec.Vector
	}

	for ai, anchor := range objs {
		// Build the anchor's co-clustering bitsets in one sweep.
		tAnchor := bitvec.New(nTicks)
		co := make([]bitvec.Vector, len(objs)) // zero Vector = never together
		for t := 0; t < nTicks; t++ {
			ca, ok := ids[t][anchor]
			if !ok {
				continue
			}
			tAnchor.Set(t)
			for o, ci := range ids[t] {
				if ci == ca {
					oi := objIdx[o]
					if co[oi].Len() == 0 {
						co[oi] = bitvec.New(nTicks)
					}
					co[oi].Set(t)
				}
			}
		}
		if tAnchor.Popcount() < p.MinT {
			continue
		}
		// Backward pruning at depth 1: a smaller-ID object always
		// co-clustered with the anchor owns this subtree.
		pruned := false
		for j := 0; j < ai; j++ {
			if co[j].Len() != 0 && co[j].PopcountMasked(tAnchor) == tAnchor.Popcount() {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}

		var cands []cand
		for oi := range objs {
			if oi != ai && co[oi].Len() != 0 {
				cands = append(cands, cand{idx: oi, bv: co[oi]})
			}
		}
		inSet := make([]bool, len(objs))
		inSet[ai] = true
		set := []trajectory.ObjectID{anchor}

		var dfs func(T bitvec.Vector, nextCand int)
		dfs = func(T bitvec.Vector, nextCand int) {
			tCount := T.Popcount()
			// Closedness: no absent object preserves T entirely.
			closed := true
			for _, c := range cands {
				if inSet[c.idx] {
					continue
				}
				if c.bv.PopcountMasked(T) == tCount {
					closed = false
					break
				}
			}
			if closed && len(set) >= p.MinO && tCount >= p.MinT {
				sw := Swarm{Objects: append([]trajectory.ObjectID(nil), set...)}
				for t := T.NextSetBit(0); t >= 0; t = T.NextSetBit(t + 1) {
					sw.Ticks = append(sw.Ticks, trajectory.Tick(t))
				}
				out = append(out, sw)
			}
			for ci := nextCand; ci < len(cands); ci++ {
				c := cands[ci]
				if objs[c.idx] < anchor {
					continue // grow in increasing ID order only
				}
				n2 := c.bv.PopcountMasked(T)
				if n2 < p.MinT { // apriori pruning
					continue
				}
				T2 := T.Clone().And(c.bv)
				// Backward pruning: an absent candidate ordered before c
				// that preserves T2 owns this subtree.
				pruned := false
				for cj := 0; cj < ci; cj++ {
					cc := cands[cj]
					if inSet[cc.idx] {
						continue
					}
					if cc.bv.PopcountMasked(T2) == n2 {
						pruned = true
						break
					}
				}
				if pruned {
					continue
				}
				set = append(set, objs[c.idx])
				inSet[c.idx] = true
				dfs(T2, ci+1)
				inSet[c.idx] = false
				set = set[:len(set)-1]
			}
		}
		dfs(tAnchor, 0)
	}
	return out
}

// ---- convoy (coherent moving cluster sweep) ------------------------------

// Convoy is a group of at least m objects density-connected (i.e. sharing
// one snapshot cluster) at every tick of the consecutive range
// [Start, Start+Lifetime).
type Convoy struct {
	Objects  []trajectory.ObjectID
	Start    trajectory.Tick
	Lifetime int
}

// ConvoyParams are the convoy thresholds: M objects for K consecutive
// ticks.
type ConvoyParams struct {
	M int
	K int
}

// Convoys runs the CMC-style sweep of [9] over the snapshot clusters: each
// live candidate is intersected with every cluster of the next tick;
// intersections of size ≥ m survive, candidates that survive nowhere are
// emitted if their lifetime reaches k. Dominated results (object subset,
// time range contained) are filtered at the end.
func Convoys(cdb *snapshot.CDB, p ConvoyParams) []Convoy {
	type cand struct {
		objs  []trajectory.ObjectID
		start trajectory.Tick
	}
	var live []cand
	var out []Convoy

	emit := func(c cand, end trajectory.Tick) {
		life := int(end - c.start)
		if life >= p.K {
			out = append(out, Convoy{Objects: c.objs, Start: c.start, Lifetime: life})
		}
	}

	for t := 0; t < len(cdb.Clusters); t++ {
		tick := trajectory.Tick(t)
		clusters := cdb.Clusters[t]
		var next []cand
		seen := map[string]bool{} // dedupe identical candidate sets per tick
		usedCluster := make([]bool, len(clusters))
		for _, v := range live {
			extended := false
			for ci, c := range clusters {
				inter := intersect(v.objs, c.Objects)
				if len(inter) >= p.M {
					extended = true
					if len(inter) == c.Len() {
						usedCluster[ci] = true
					}
					key := sigOf(inter, v.start)
					if !seen[key] {
						seen[key] = true
						next = append(next, cand{objs: inter, start: v.start})
					}
				}
			}
			if !extended {
				emit(v, tick)
			}
		}
		for ci, c := range clusters {
			if usedCluster[ci] || c.Len() < p.M {
				continue
			}
			key := sigOf(c.Objects, tick)
			if !seen[key] {
				seen[key] = true
				next = append(next, cand{objs: c.Objects, start: tick})
			}
		}
		live = next
	}
	for _, v := range live {
		emit(v, trajectory.Tick(len(cdb.Clusters)))
	}

	return dominantConvoys(out)
}

func sigOf(objs []trajectory.ObjectID, start trajectory.Tick) string {
	b := make([]byte, 0, len(objs)*3+4)
	b = append(b, byte(start), byte(start>>8))
	for _, o := range objs {
		b = append(b, byte(o), byte(o>>8), byte(o>>16))
	}
	return string(b)
}

// dominantConvoys removes convoys dominated by another (object subset and
// time range containment).
func dominantConvoys(cs []Convoy) []Convoy {
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i].Objects) != len(cs[j].Objects) {
			return len(cs[i].Objects) > len(cs[j].Objects)
		}
		return cs[i].Lifetime > cs[j].Lifetime
	})
	var out []Convoy
	for _, c := range cs {
		dominated := false
		for _, d := range out {
			if d.Start <= c.Start &&
				c.Start+trajectory.Tick(c.Lifetime) <= d.Start+trajectory.Tick(d.Lifetime) &&
				subset(c.Objects, d.Objects) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return len(out[i].Objects) > len(out[j].Objects)
	})
	return out
}
