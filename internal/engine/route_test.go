package engine

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/snapshot"
)

// TestGridCellClusterShards checks the cluster-granularity routing table:
// an interior cluster stays with its owner, a cluster straddling a cell
// boundary is delivered to exactly the owner plus the halo-adjacent
// shards, and halo 0 degenerates to owner-only routing.
func TestGridCellClusterShards(t *testing.T) {
	g := GridCell{CellSize: 1000, Halo: 150}
	const n = 16

	// shardsOfCells maps cell coordinates to their (deduped) shard set.
	shardsOfCells := func(cells [][2]int64) []int {
		var out []int
		for _, c := range cells {
			s := cellShard(c[0], c[1], n)
			dup := false
			for _, have := range out {
				if have == s {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, s)
			}
		}
		return out
	}
	rect := func(minX, minY, maxX, maxY float64) geo.Rect {
		return geo.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
	}

	cases := []struct {
		name     string
		centroid geo.Point
		mbr      geo.Rect
		want     []int // expected exact target set, owner first
	}{
		{
			name:     "interior cluster routes to owner only",
			centroid: geo.Point{X: 500, Y: 500},
			mbr:      rect(400, 400, 600, 600),
			want:     shardsOfCells([][2]int64{{0, 0}}),
		},
		{
			name:     "cluster straddling a vertical boundary adds the right neighbour",
			centroid: geo.Point{X: 980, Y: 500},
			mbr:      rect(900, 400, 1060, 600),
			want:     shardsOfCells([][2]int64{{0, 0}, {1, 0}}),
		},
		{
			name:     "cluster near a corner adds all three adjacent cells",
			centroid: geo.Point{X: 950, Y: 950},
			mbr:      rect(900, 900, 990, 990),
			want:     shardsOfCells([][2]int64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}),
		},
		{
			name:     "centroid across the line from most members keeps that owner",
			centroid: geo.Point{X: 1010, Y: 500},
			mbr:      rect(900, 400, 1100, 600),
			want:     shardsOfCells([][2]int64{{1, 0}, {0, 0}}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := g.ClusterShards(tc.centroid, tc.mbr, n, nil)
			if got[0] != g.OwnerShard(tc.centroid, n) {
				t.Fatalf("owner %d not first in %v", g.OwnerShard(tc.centroid, n), got)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got shard set %v, want %v", got, tc.want)
			}
			for _, w := range tc.want {
				found := false
				for _, s := range got {
					if s == w {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("shard set %v misses %d (want %v)", got, w, tc.want)
				}
			}
			for i, s := range got {
				for _, u := range got[:i] {
					if s == u {
						t.Fatalf("duplicate shard %d in %v", s, got)
					}
				}
			}
		})
	}

	// Halo 0 must degenerate to owner-only routing even for a huge MBR.
	g0 := GridCell{CellSize: 1000}
	if set := g0.ClusterShards(geo.Point{X: 500, Y: 500}, rect(0, 0, 5000, 5000), n, nil); len(set) != 1 {
		t.Fatalf("halo 0 replicated a cluster view: %v", set)
	}

	// dst reuse must truncate, not append.
	dst := make([]int, 3, 8)
	if set := g.ClusterShards(geo.Point{X: 500, Y: 500}, rect(400, 400, 600, 600), n, dst); len(set) != 1 {
		t.Fatalf("ClusterShards appended to dst instead of overwriting: %v", set)
	}
}

// TestClusterOnceBuildsOnce checks the throughput invariant behind the
// cluster-once pipeline: ClustersBuilt equals the single-store cluster
// count regardless of shard count and halo width, while the replication
// counters track the extra view deliveries above one shard.
func TestClusterOnceBuildsOnce(t *testing.T) {
	sites := []geo.Point{
		{X: 4995, Y: 1000},
		{X: 1000, Y: 4995},
		{X: 20000, Y: 20000},
	}
	db := parkedDB(sites, 12, 24)
	pipe := testPipeline()
	want := 0
	for _, b := range db.Batches(12) {
		want += snapshot.Build(b, pipe.SnapshotOptions(0)).NumClusters()
	}

	for _, shards := range []int{1, 2, 4, 8} {
		e, err := New(Config{Pipeline: pipe, Shards: shards,
			Partitioner: GridCell{CellSize: 5000, Halo: 1200}})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range db.Batches(12) {
			if err := e.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
		cs := e.Counters().Snapshot()
		e.Close()
		if cs.ClustersBuilt != uint64(want) {
			t.Errorf("shards=%d: ClustersBuilt = %d, want the single-store count %d",
				shards, cs.ClustersBuilt, want)
		}
		if shards > 1 && cs.ClustersReplicated == 0 {
			t.Errorf("shards=%d: boundary clusters produced no view replicas", shards)
		}
	}
}

// TestClusterViewsShared checks that the merge sees pointer-identical
// clusters: a crowd straddling a boundary is discovered by several shards
// over views of the same *snapshot.Cluster, so the deduped copy's clusters
// are shared, not value-equal duplicates.
func TestClusterViewsShared(t *testing.T) {
	db := parkedDB([]geo.Point{{X: 4995, Y: 1000}}, 12, 24)
	e, err := New(Config{Pipeline: testPipeline(), Shards: 4,
		Partitioner: GridCell{CellSize: 5000, Halo: 600}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, b := range db.Batches(12) {
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	res := e.Snapshot(Query{})
	if len(res.Crowds) != 1 {
		t.Fatalf("found %d crowds, want 1", len(res.Crowds))
	}
	if cs := e.Counters().Snapshot(); cs.CrowdsDeduped == 0 {
		t.Fatal("boundary site produced no duplicate discovery to dedup")
	}
}
