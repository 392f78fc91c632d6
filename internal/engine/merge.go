// Cross-shard merge: the query-time counterpart of halo replication.
//
// Under cluster-once ingest, a cluster near a cell edge is shared as a view
// with every shard owning a nearby cell, so a group straddling the
// boundary is discovered independently — and redundantly — by each of
// them. mergeShards restores single-store semantics over the union of the
// per-shard answers:
//
//  1. Exact duplicates (same span, same per-tick membership) collapse to
//     one copy, kept by the canonical owner — the shard owning the cell of
//     the crowd's first cluster centroid (lowest shard index when the owner
//     holds no copy).
//  2. Partial views — a crowd whose every cluster is contained in another
//     shard's view of the same ticks — are absorbed: the halo gave some
//     shard a complete picture, the cropped one adds nothing.
//  3. Fragments that overlap but don't contain each other (a moving crowd
//     seen entering by one shard and leaving by another) are stitched
//     pairwise: their per-tick clusters are unioned into one crowd and
//     gathering detection reruns on the result.
//
// Within one shard, Algorithm 1 never emits a crowd contained in another
// (a contained candidate would still have been extendable), and distinct
// branched crowds share equal-or-disjoint clusters per tick, so absorption
// and stitching — which require proper overlap — only ever fuse cross-shard
// copies of the same underlying crowd, never two genuinely distinct ones.
//
// Within one engine the shards' crowds are built from views of the same
// global *snapshot.Cluster values, so cross-shard copies of one crowd hold
// pointer-identical clusters at every shared tick: duplicates are exact,
// absorption reduces to a tick-range crop, and the set comparisons below
// short-circuit on pointer equality instead of walking member lists. The
// element-wise paths serve only MergeRemote (remote.go): cluster nodes
// each cluster their own replicated trajectories, so cross-node copies
// are equal by value only.
package engine

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// shardCrowd is one closed crowd as observed by one shard.
type shardCrowd struct {
	shard   int
	crowd   *crowd.Crowd
	gathers []*gathering.Gathering
}

// mergeStats reports what a merge pass did, for the engine counters.
type mergeStats struct {
	deduped  int // duplicate or absorbed copies dropped
	stitched int // fragments fused into cross-shard crowds
}

// mergeShards deduplicates and stitches the per-shard crowd lists. owner
// maps a point to its owning shard (the canonical-owner rule); gp are the
// gathering thresholds used to re-detect gatherings on stitched crowds.
// Entries are modified in place and the surviving list is returned.
func mergeShards(entries []shardCrowd, owner func(geo.Point) int, gp gathering.Params) ([]shardCrowd, mergeStats) {
	var st mergeStats
	if len(entries) < 2 {
		return entries, st
	}

	// Stage 1: collapse exact duplicates onto the canonical owner.
	bySig := make(map[string][]int, len(entries))
	order := make([]string, 0, len(entries))
	for i := range entries {
		sig := crowdSig(entries[i].crowd)
		if _, ok := bySig[sig]; !ok {
			order = append(order, sig)
		}
		bySig[sig] = append(bySig[sig], i)
	}
	kept := entries[:0:0]
	for _, sig := range order {
		group := bySig[sig]
		win := group[0]
		if len(group) > 1 {
			want := owner(centroid(entries[win].crowd.At(0)))
			for _, i := range group[1:] {
				if entries[i].shard == want && entries[win].shard != want {
					win = i
				}
			}
			st.deduped += len(group) - 1
		}
		kept = append(kept, entries[win])
	}

	// Stage 2: absorb partial views into a containing cross-shard copy.
	drop := make([]bool, len(kept))
	for i := range kept {
		for j := range kept {
			if i == j || drop[j] || kept[i].shard == kept[j].shard {
				continue
			}
			if crowdContains(kept[j].crowd, kept[i].crowd) {
				drop[i] = true
				st.deduped++
				break
			}
		}
	}
	merged := kept[:0:0]
	for i := range kept {
		if !drop[i] {
			merged = append(merged, kept[i])
		}
	}

	// Stage 3: stitch overlapping cross-shard fragments by iterated
	// pairwise fusion. Stitchability is re-checked against the fused
	// result after every fuse rather than closed transitively: a middle
	// fragment may legitimately bridge a left and a right view of one
	// moving crowd (the fused crowd then shares members with the far side
	// at every shared tick), but two branched crowds with disjoint
	// clusters at some shared tick must never be unioned just because a
	// third fragment overlaps both.
	frags := make([]int, len(merged)) // fragments consumed per surviving entry
	for i := range frags {
		frags[i] = 1
	}
	fusedAny := false
	for {
		found := false
		for i := 0; i < len(merged) && !found; i++ {
			for j := i + 1; j < len(merged); j++ {
				// Same-shard entries are distinct discoveries by
				// construction; fused entries (shard -1) may match anyone.
				if merged[i].shard == merged[j].shard &&
					merged[i].shard >= 0 {
					continue
				}
				if !stitchable(merged[i].crowd, merged[j].crowd) {
					continue
				}
				fused := stitchCrowds([]*crowd.Crowd{merged[i].crowd, merged[j].crowd})
				merged[i] = shardCrowd{shard: -1, crowd: fused}
				frags[i] += frags[j]
				merged = append(merged[:j], merged[j+1:]...)
				frags = append(frags[:j], frags[j+1:]...)
				found, fusedAny = true, true
				break
			}
		}
		if !found {
			break
		}
	}
	if !fusedAny {
		return merged, st
	}
	for i := range merged {
		if merged[i].shard >= 0 {
			continue
		}
		merged[i].shard = owner(centroid(merged[i].crowd.At(0)))
		merged[i].gathers = gathering.TADStar(merged[i].crowd, gp)
		st.stitched += frags[i]
	}
	return merged, st
}

// centroid returns the mean of a cluster's points.
func centroid(cl *snapshot.Cluster) geo.Point {
	var c geo.Point
	for _, p := range cl.Points {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(cl.Points)))
}

// crowdSig fingerprints a crowd by its span and per-tick membership; two
// crowds with equal signatures are the same discovery.
func crowdSig(cr *crowd.Crowd) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(cr.Start)))
	for _, cl := range cr.Clusters() {
		b.WriteByte('|')
		for k, id := range cl.Objects {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(id)))
		}
	}
	return b.String()
}

// clusterSubset reports whether a's objects are all in b (both sorted).
func clusterSubset(a, b *snapshot.Cluster) bool {
	if a == b {
		return true // shared cluster view
	}
	if a.Len() > b.Len() {
		return false
	}
	j := 0
	for _, id := range a.Objects {
		for j < b.Len() && b.Objects[j] < id {
			j++
		}
		if j == b.Len() || b.Objects[j] != id {
			return false
		}
		j++
	}
	return true
}

// clustersIntersect reports whether two clusters share an object.
func clustersIntersect(a, b *snapshot.Cluster) bool {
	if a == b {
		return a.Len() > 0 // shared cluster view
	}
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		switch {
		case a.Objects[i] < b.Objects[j]:
			i++
		case a.Objects[i] > b.Objects[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// crowdContains reports whether outer covers inner: inner's span lies
// within outer's and every inner cluster is a subset of outer's cluster at
// the same tick.
func crowdContains(outer, inner *crowd.Crowd) bool {
	if inner.Start < outer.Start || inner.End() > outer.End() {
		return false
	}
	off := int(inner.Start - outer.Start)
	outerCls := outer.Clusters()
	for i, cl := range inner.Clusters() {
		if !clusterSubset(cl, outerCls[off+i]) {
			return false
		}
	}
	return true
}

// stitchable reports whether two crowds are fragments of one underlying
// crowd: their spans overlap and their clusters share members at every
// shared tick. Distinct branched crowds fail this — where they diverge,
// their clusters are disjoint (DBSCAN partitions each tick).
func stitchable(a, b *crowd.Crowd) bool {
	lo := a.Start
	if b.Start > lo {
		lo = b.Start
	}
	hi := a.End()
	if b.End() < hi {
		hi = b.End()
	}
	if lo > hi {
		return false
	}
	aCls, bCls := a.Clusters(), b.Clusters()
	for t := lo; t <= hi; t++ {
		if !clustersIntersect(aCls[t-a.Start], bCls[t-b.Start]) {
			return false
		}
	}
	return true
}

// stitchCrowds fuses overlapping fragments into one crowd whose cluster at
// each tick is the union of the fragments' clusters there. The fragments'
// spans overlap, so the fused span is contiguous.
func stitchCrowds(frags []*crowd.Crowd) *crowd.Crowd {
	start, end := frags[0].Start, frags[0].End()
	for _, f := range frags[1:] {
		if f.Start < start {
			start = f.Start
		}
		if f.End() > end {
			end = f.End()
		}
	}
	clusters := make([]*snapshot.Cluster, 0, int(end-start)+1)
	var at []*snapshot.Cluster
	for t := start; t <= end; t++ {
		at = at[:0]
		for _, f := range frags {
			if t >= f.Start && t <= f.End() {
				at = append(at, f.Clusters()[t-f.Start])
			}
		}
		clusters = append(clusters, unionClusters(at))
	}
	return crowd.New(start, clusters)
}

// unionClusters unions the member sets of clusters observed at one tick.
// Replicated objects carry identical interpolated positions in every
// shard, so duplicates are dropped by ID. Shared cluster views make the
// union trivial: fragments of one crowd hold the same pointer at a shared
// tick, so no member merge is needed.
func unionClusters(cls []*snapshot.Cluster) *snapshot.Cluster {
	if len(cls) == 1 {
		return cls[0]
	}
	same := true
	for _, cl := range cls[1:] {
		if cl != cls[0] {
			same = false
			break
		}
	}
	if same {
		return cls[0]
	}
	n := 0
	for _, cl := range cls {
		n += cl.Len()
	}
	objs := make([]trajectory.ObjectID, 0, n)
	pts := make([]geo.Point, 0, n)
	for _, cl := range cls {
		objs = append(objs, cl.Objects...)
		pts = append(pts, cl.Points...)
	}
	idx := make([]int, len(objs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return objs[idx[a]] < objs[idx[b]] })
	uo := objs[:0:0]
	up := pts[:0:0]
	for k, i := range idx {
		if k > 0 && objs[i] == uo[len(uo)-1] {
			continue
		}
		uo = append(uo, objs[i])
		up = append(up, pts[i])
	}
	return snapshot.NewCluster(cls[0].T, uo, up)
}

// compareCrowds orders crowds deterministically: by start tick, lifetime,
// then per-tick membership (size, then object IDs). It returns 0 only for
// crowds with identical spans and memberships, so sorting snapshot results
// with it makes Limit truncation independent of shard iteration order.
func compareCrowds(a, b *crowd.Crowd) int {
	if a.Start != b.Start {
		if a.Start < b.Start {
			return -1
		}
		return 1
	}
	if la, lb := a.Lifetime(), b.Lifetime(); la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	aCls, bCls := a.Clusters(), b.Clusters()
	for i := range aCls {
		ca, cb := aCls[i], bCls[i]
		if ca.Len() != cb.Len() {
			if ca.Len() < cb.Len() {
				return -1
			}
			return 1
		}
		for k := range ca.Objects {
			if ca.Objects[k] != cb.Objects[k] {
				if ca.Objects[k] < cb.Objects[k] {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}
