package engine

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

// Partitioner routes each trajectory of an incoming batch to one of the
// engine's shards. Implementations must be pure functions of their inputs
// (the engine calls them concurrently and relies on the same trajectory
// always landing on the same shard for a given batch domain).
//
// Two built-in schemes cover the two sharding regimes:
//
//   - ObjectHash spreads objects uniformly by ID. Load balance is ideal
//     and an object stays on one shard forever, but spatial density splits
//     across shards, so crowds spanning objects from different shards are
//     not discovered. Use it for tenant-style isolation (each shard is an
//     independent fleet) or for pure throughput benchmarks.
//   - GridCell routes by the object's position at the start of the batch:
//     objects in the same spatial cell share a shard, so local density —
//     what crowds and gatherings are made of — is preserved. With a
//     positive Halo it is a ClusterRouter: the engine clusters each batch
//     once and shares clusters near cell edges as views with every shard
//     owning a nearby cell, which lets the snapshot-time merge restore
//     groups that straddle a cell boundary (see merge.go).
type Partitioner interface {
	// Shard returns the shard in [0, n) for tr within a batch covering
	// domain. Results outside [0, n) are reduced modulo n by the engine.
	Shard(tr *trajectory.Trajectory, domain trajectory.TimeDomain, n int) int
	// Name identifies the scheme in logs and diagnostics.
	Name() string
}

// normShard folds an arbitrary shard value into [0, n); the ingest fan-out
// and the merge's owner rule must agree on it or canonical-owner dedup
// breaks.
func normShard(s, n int) int {
	s %= n
	if s < 0 {
		s += n
	}
	return s
}

// ClusterRouter is the cluster-granularity routing mode behind the
// cluster-once ingest pipeline: the engine clusters each batch globally
// (one DBSCAN pass per tick, exactly as a single store would) and then
// routes every resulting snapshot cluster to the shards that must see it.
// The owner shard holds the cluster, halo-adjacent shards receive a
// read-only view of the same *snapshot.Cluster so their crowd fragments
// overlap the owner's and the snapshot merge can dedup and stitch them by
// construction.
type ClusterRouter interface {
	Partitioner
	// Replicates reports whether ClusterShards can ever return more than
	// the owner under the current configuration. When false the engine
	// routes trajectories with Shard instead and skips the snapshot-time
	// merge.
	Replicates() bool
	// OwnerShard maps a bare location to the shard owning it. The
	// snapshot merge uses it for the canonical-owner rule: a crowd
	// discovered by several shards is kept only by the shard owning its
	// first cluster's centroid.
	OwnerShard(p geo.Point, n int) int
	// ClusterShards returns the target shards for a cluster with the given
	// centroid and bounding box (owner first, no duplicates), overwriting
	// dst from its start and reusing its capacity — callers pass the
	// previous result to avoid allocation, so implementations must
	// truncate, not append. The owner must equal OwnerShard(centroid, n).
	// Results outside [0, n) are folded by the engine with normShard.
	ClusterShards(centroid geo.Point, mbr geo.Rect, n int, dst []int) []int
}

// splitmix is the splitmix64 finaliser, used to turn IDs and cell
// coordinates into well-mixed shard choices.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ObjectHash shards trajectories by hashed object ID.
type ObjectHash struct{}

// Shard implements Partitioner.
func (ObjectHash) Shard(tr *trajectory.Trajectory, _ trajectory.TimeDomain, n int) int {
	return int(splitmix(uint64(tr.ID)) % uint64(n))
}

// Name implements Partitioner.
func (ObjectHash) Name() string { return "objecthash" }

// GridCell shards trajectories by the spatial cell containing the object's
// location at the batch's first tick. Cells are CellSize × CellSize metres
// and are hashed onto shards, so one shard typically owns many scattered
// cells. Objects with no location at the batch start (their lifespan does
// not cover it) fall back to the first sample's position, and to the ID
// hash when they have no samples at all.
type GridCell struct {
	// CellSize is the cell side in metres. It should comfortably exceed
	// the expected diameter of a gathering site (a few × δ) so that most
	// groups fit inside one cell.
	CellSize float64

	// Halo is the replication margin in metres. When positive, the
	// engine runs cluster-once ingest: every snapshot cluster is also
	// routed, as a view, to the shard of each cell within Halo of its
	// bounding box, so a shard sees the complete neighbourhood of its own
	// cells: groups straddling a cell edge are discovered whole by every
	// adjacent shard and deduplicated at query time. It should cover the
	// expected group diameter — a few × δ. Zero disables replication
	// (single-shard routing, lossy at cell boundaries).
	Halo float64
}

// cellShard hashes a cell coordinate pair onto a shard.
func cellShard(cx, cy int64, n int) int {
	h := splitmix(splitmix(uint64(cx)) ^ uint64(cy))
	return int(h % uint64(n))
}

// cellOf returns the cell coordinates containing p.
func (g GridCell) cellOf(p geo.Point) (int64, int64) {
	return int64(math.Floor(p.X / g.CellSize)), int64(math.Floor(p.Y / g.CellSize))
}

// Shard implements Partitioner.
func (g GridCell) Shard(tr *trajectory.Trajectory, domain trajectory.TimeDomain, n int) int {
	p, ok := tr.LocationAt(domain.Start)
	if !ok {
		if len(tr.Samples) == 0 {
			return ObjectHash{}.Shard(tr, domain, n)
		}
		p = tr.Samples[0].P
	}
	cx, cy := g.cellOf(p)
	return cellShard(cx, cy, n)
}

// OwnerShard implements ClusterRouter: the shard of the cell containing
// p. For a position at a batch's first tick this agrees with Shard.
func (g GridCell) OwnerShard(p geo.Point, n int) int {
	cx, cy := g.cellOf(p)
	return cellShard(cx, cy, n)
}

// ClusterShards implements ClusterRouter: the owner shard of the cell
// containing the centroid, plus the shard of every cell whose region lies
// within Halo of the cluster's bounding box, stopping early once all n
// shards are targeted. A crowd moves at most δ per tick (Definition 2)
// and Halo defaults to 4×δ, so consecutive owners of a moving crowd keep
// receiving its views for several ticks after handing it over — enough
// shared ticks for the snapshot merge to stitch their fragments back
// together.
func (g GridCell) ClusterShards(c geo.Point, mbr geo.Rect, n int, dst []int) []int {
	dst = append(dst[:0], g.OwnerShard(c, n))
	if g.Halo <= 0 || n <= 1 {
		return dst
	}
	x0 := int64(math.Floor((mbr.MinX - g.Halo) / g.CellSize))
	x1 := int64(math.Floor((mbr.MaxX + g.Halo) / g.CellSize))
	y0 := int64(math.Floor((mbr.MinY - g.Halo) / g.CellSize))
	y1 := int64(math.Floor((mbr.MaxY + g.Halo) / g.CellSize))
	for cx := x0; cx <= x1; cx++ {
		for cy := y0; cy <= y1; cy++ {
			s := cellShard(cx, cy, n)
			seen := false
			for _, have := range dst {
				if have == s {
					seen = true
					break
				}
			}
			if !seen {
				dst = append(dst, s)
				if len(dst) == n {
					return dst
				}
			}
		}
	}
	return dst
}

// Replicates implements ClusterRouter: only a positive halo margin
// produces cluster views.
func (g GridCell) Replicates() bool { return g.Halo > 0 }

// Name implements Partitioner.
func (g GridCell) Name() string { return "gridcell" }

// Validate rejects non-positive cell sizes, which would otherwise turn
// the cell arithmetic into ±Inf and collapse all routing onto one shard,
// and negative halo margins. Config.Validate calls this through the
// optional validator interface.
func (g GridCell) Validate() error {
	if g.CellSize <= 0 {
		return fmt.Errorf("engine: GridCell.CellSize must be > 0, got %v", g.CellSize)
	}
	if g.Halo < 0 {
		return fmt.Errorf("engine: GridCell.Halo must be ≥ 0, got %v", g.Halo)
	}
	return nil
}
