// Remote merge: the cluster layer's entry into the snapshot-time merge.
//
// A multi-node gatherserve cluster partitions the stream by grid cell at
// node granularity exactly the way the engine partitions it by cell at
// shard granularity, with the membership map's halo replicating boundary
// objects into every adjacent node (internal/cluster). Each node's local
// answer is therefore a shard-shaped view of the global state, and the
// scatter-gather read path reduces the per-node answers with the very same
// dedup/absorb/stitch pass queries use across shards (merge.go) — the
// cross-node copies are value-equal rather than pointer-identical (each
// node clusters its own replicas), which is what the merge's element-wise
// paths are kept for.
package engine

import (
	"sort"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
)

// RemoteEntry is one closed crowd as answered by one cluster node, the
// node-granularity analogue of a per-shard crowd.
type RemoteEntry struct {
	// Node is the answering node's index in the membership map.
	Node int
	// Crowd is a crowd decoded from the node's answer.
	Crowd *crowd.Crowd
	// Gatherings are the crowd's closed gatherings.
	Gatherings []*gathering.Gathering
}

// MergeRemote deduplicates and stitches per-node answers into the
// single-store crowd set: exact cross-node duplicates collapse onto the
// canonical owner (owner maps a point to its node index, the membership
// map's cell-ownership rule), cropped halo views are absorbed, and
// fragments of crowds that moved across a node boundary are fused with
// gatherings re-detected under gp. The survivors come back sorted with the
// same deterministic order Snapshot uses, so Limit truncation agrees with
// a single store's. Entries are modified in place, as mergeShards does.
func MergeRemote(entries []RemoteEntry, owner func(geo.Point) int, gp gathering.Params) []RemoteEntry {
	sc := make([]shardCrowd, len(entries))
	for i, en := range entries {
		sc[i] = shardCrowd{shard: en.Node, crowd: en.Crowd, gathers: en.Gatherings}
	}
	sc, _ = mergeShards(sc, owner, gp)
	sort.Slice(sc, func(i, j int) bool {
		return compareCrowds(sc[i].crowd, sc[j].crowd) < 0
	})
	out := entries[:0]
	for _, en := range sc {
		out = append(out, RemoteEntry{Node: en.shard, Crowd: en.crowd, Gatherings: en.gathers})
	}
	return out
}

// Matches reports whether cr passes the query's window and bounds filters
// — exported for the cluster read path, which must filter only after the
// cross-node merge (a filtered-out canonical copy still has to absorb its
// surviving duplicates, exactly as in Snapshot).
func (q Query) Matches(cr *crowd.Crowd) bool { return q.matches(cr) }
