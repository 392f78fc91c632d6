package engine

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// splitmix is the splitmix64 finaliser, used to turn cell coordinates
// into well-mixed shard choices.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GridCell routes each snapshot cluster of a globally clustered batch to
// shards by spatial cell. Cells are CellSize × CellSize metres and are
// hashed onto shards, so one shard typically owns many scattered cells.
// A cluster lives on the shard owning its centroid's cell, and every
// shard owning a cell within Halo of the cluster's bounding box receives
// a view of the same *snapshot.Cluster, which lets the snapshot-time
// merge restore groups that straddle a cell boundary (see merge.go).
type GridCell struct {
	// CellSize is the cell side in metres. It should comfortably exceed
	// the expected diameter of a gathering site (a few × δ) so that most
	// groups fit inside one cell. Zero means 10 × Pipeline.Delta.
	CellSize float64

	// Halo is the replication margin in metres: a shard sees the complete
	// neighbourhood of its own cells, so groups straddling a cell edge are
	// discovered whole by every adjacent shard and deduplicated at query
	// time. It should cover the expected group diameter — a few × δ. Zero
	// routes each cluster to its owner only (lossy at cell boundaries).
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

// OwnerShard returns the shard in [0, n) owning the cell containing p.
// The snapshot merge uses it for the canonical-owner rule: a crowd
// discovered by several shards is kept only by the shard owning its
// first cluster's centroid.
func (g GridCell) OwnerShard(p geo.Point, n int) int {
	cx, cy := g.cellOf(p)
	return cellShard(cx, cy, n)
}

// ClusterShards returns the target shards in [0, n) for a cluster with
// the given centroid and bounding box: the owner shard of the cell
// containing the centroid first, then the shard of every cell whose
// region lies within Halo of the bounding box, without duplicates and
// stopping early once all n shards are targeted. It overwrites dst from
// its start and reuses its capacity. A crowd moves at most δ per tick
// (Definition 2) and Halo defaults to 4×δ, so consecutive owners of a
// moving crowd keep receiving its views for several ticks after handing
// it over — enough shared ticks for the snapshot merge to stitch their
// fragments back together.
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

// Validate rejects non-positive cell sizes, which would otherwise turn
// the cell arithmetic into ±Inf and collapse all routing onto one shard,
// and negative halo margins. Config.Validate calls it after resolving a
// zero CellSize to its default.
func (g GridCell) Validate() error {
	if !(g.CellSize > 0) {
		return fmt.Errorf("engine: GridCell.CellSize must be > 0, got %v", g.CellSize)
	}
	if g.Halo < 0 {
		return fmt.Errorf("engine: GridCell.Halo must be ≥ 0, got %v", g.Halo)
	}
	return nil
}
