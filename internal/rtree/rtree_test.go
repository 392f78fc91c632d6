package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
)

func randRect(r *rand.Rand, scale float64) geo.Rect {
	x, y := r.Float64()*scale, r.Float64()*scale
	w, h := r.Float64()*scale/20, r.Float64()*scale/20
	return geo.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// collect runs a window query and returns the sorted IDs.
func collect(t *Tree, w geo.Rect) []int32 {
	var ids []int32
	t.Search(w, func(id int32) bool {
		ids = append(ids, id)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// bruteWindow is the reference linear scan.
func bruteWindow(items []Item, w geo.Rect) []int32 {
	var ids []int32
	for _, it := range items {
		if it.Rect.Intersects(w) {
			ids = append(ids, it.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// depth returns the height of the tree (0 for empty, 1 for a root leaf).
func depth(t *Tree) int {
	d, n := 0, t.root
	for n != nil {
		d++
		if n.leaf || len(n.entries) == 0 {
			break
		}
		n = n.entries[0].child
	}
	return d
}

func TestEmptyTree(t *testing.T) {
	for _, tr := range []*Tree{{}, BulkLoad(nil)} {
		if tr.Len() != 0 || depth(tr) != 0 {
			t.Fatalf("empty: Len=%d depth=%d", tr.Len(), depth(tr))
		}
		tr.Search(geo.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, func(int32) bool {
			t.Fatal("search on empty tree yielded item")
			return false
		})
		tr.SearchDSide(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 1e9, func(int32) bool {
			t.Fatal("side search on empty tree yielded item")
			return false
		})
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := BulkLoad([]Item{
		{Rect: geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ID: 0},
		{Rect: geo.Rect{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}, ID: 1},
		{Rect: geo.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, ID: 2},
	})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := collect(tr, geo.Rect{MinX: 4, MinY: 4, MaxX: 12, MaxY: 12})
	if !sameIDs(got, []int32{1, 2}) {
		t.Fatalf("window got %v", got)
	}
	got = collect(tr, geo.Rect{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101})
	if len(got) != 0 {
		t.Fatalf("empty window got %v", got)
	}
}

func TestInsertMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		n := 50 + r.Intn(500)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Rect: randRect(r, 1000), ID: int32(i)}
		}
		tr := BulkLoad(items)
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for q := 0; q < 30; q++ {
			w := randRect(r, 1000).Expand(r.Float64() * 100)
			got := collect(tr, w)
			want := bruteWindow(items, w)
			if !sameIDs(got, want) {
				t.Fatalf("trial %d query %d: got %d ids, want %d", trial, q, len(got), len(want))
			}
		}
	}
}

func TestBulkLoadMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 10; trial++ {
		n := 1 + r.Intn(800)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Rect: randRect(r, 1000), ID: int32(i)}
		}
		tr := BulkLoad(items)
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for q := 0; q < 30; q++ {
			w := randRect(r, 1000).Expand(r.Float64() * 100)
			got := collect(tr, w)
			want := bruteWindow(items, w)
			if !sameIDs(got, want) {
				t.Fatalf("trial %d: window mismatch (%d vs %d)", trial, len(got), len(want))
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Rect: geo.Rect{MinX: float64(i), MinY: 0, MaxX: float64(i) + 0.5, MaxY: 1}, ID: int32(i)}
	}
	tr := BulkLoad(items)
	count := 0
	tr.Search(geo.Rect{MinX: -1, MinY: -1, MaxX: 200, MaxY: 2}, func(int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("visited %d items after early stop", count)
	}
}

func TestSearchDSideIsSupersetOfTruth(t *testing.T) {
	// Items whose dside to the query exceeds delta may be pruned; items
	// with dH ≤ delta (hence dside ≤ delta) must always survive.
	r := rand.New(rand.NewSource(107))
	for trial := 0; trial < 20; trial++ {
		n := 100 + r.Intn(300)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Rect: randRect(r, 500), ID: int32(i)}
		}
		tr := BulkLoad(items)
		query := randRect(r, 500)
		delta := 10 + r.Float64()*60

		got := map[int32]bool{}
		tr.SearchDSide(query, delta, func(id int32) bool {
			got[id] = true
			return true
		})
		for _, it := range items {
			ds := geo.DSide(query, it.Rect)
			if ds <= delta && !got[it.ID] {
				t.Fatalf("trial %d: item %d with dside %v ≤ δ %v was pruned",
					trial, it.ID, ds, delta)
			}
			// The filter expands sides as rectangles (L∞ balls), so it may
			// admit items with dside up to δ·√2 — but no more.
			if got[it.ID] && ds > delta*math.Sqrt2+1e-9 {
				t.Fatalf("trial %d: item %d with dside %v > δ·√2 (δ=%v) survived",
					trial, it.ID, ds, delta)
			}
		}
	}
}

func TestSearchDSidePrunesMoreThanWindow(t *testing.T) {
	// The IR query must never return more candidates than the SR window
	// query (dside dominates dmin).
	r := rand.New(rand.NewSource(109))
	n := 500
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: randRect(r, 800), ID: int32(i)}
	}
	tr := BulkLoad(items)
	for q := 0; q < 50; q++ {
		query := randRect(r, 800)
		delta := 20 + r.Float64()*50
		sr, ir := 0, 0
		tr.Search(query.Expand(delta), func(int32) bool { sr++; return true })
		tr.SearchDSide(query, delta, func(int32) bool { ir++; return true })
		if ir > sr {
			t.Fatalf("query %d: IR returned %d > SR %d", q, ir, sr)
		}
	}
}

func TestSearchDSideEarlyStop(t *testing.T) {
	items := make([]Item, 50)
	for i := range items {
		items[i] = Item{Rect: geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ID: int32(i)}
	}
	tr := BulkLoad(items)
	count := 0
	tr.SearchDSide(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 5, func(int32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestDepthGrowsLogarithmically(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	items := make([]Item, 2000)
	for i := range items {
		items[i] = Item{Rect: randRect(r, 1000), ID: int32(i)}
	}
	d := depth(BulkLoad(items))
	if d < 2 || d > 8 {
		t.Fatalf("depth %d out of expected range for 2000 items", d)
	}
}

func TestDuplicateRects(t *testing.T) {
	rect := geo.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Rect: rect, ID: int32(i)}
	}
	got := collect(BulkLoad(items), rect)
	if len(got) != 100 {
		t.Fatalf("got %d of 100 duplicate items", len(got))
	}
}
