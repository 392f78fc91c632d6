// Package rtree is an in-memory R-tree over axis-aligned rectangles,
// built by STR bulk loading, supporting window queries (the SR scheme of
// §III-A1) and the four-rectangle side query used by the IR scheme
// (Lemma 3): a node is explored only if it intersects all four
// δ-enlargements of the query MBR's sides.
package rtree

import (
	"sort"

	"repro/internal/geo"
)

const maxEntries = 16

// Item is a stored rectangle with a caller-supplied identifier (e.g. the
// index of a snapshot cluster within its tick's cluster set).
type Item struct {
	Rect geo.Rect
	ID   int32
}

type entry struct {
	rect  geo.Rect
	child *node // nil at leaves
	id    int32 // valid at leaves
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an immutable R-tree built by BulkLoad. The zero value is an
// empty tree. A Tree is safe for concurrent reads.
type Tree struct {
	root *node
	size int
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

func bbox(n *node) geo.Rect {
	r := geo.EmptyRect()
	for i := range n.entries {
		r = r.Union(n.entries[i].rect)
	}
	return r
}

// BulkLoad builds a tree from items using Sort-Tile-Recursive packing.
// It is the only constructor: each tick's clusters are known up front.
func BulkLoad(items []Item) *Tree {
	t := &Tree{size: len(items)}
	if len(items) == 0 {
		return t
	}
	leaves := packLeaves(items)
	level := leaves
	for len(level) > 1 {
		level = packNodes(level)
	}
	t.root = level[0]
	return t
}

func packLeaves(items []Item) []*node {
	its := append([]Item(nil), items...)
	nSlices := sliceCount(len(its))
	sort.Slice(its, func(i, j int) bool {
		return its[i].Rect.Center().X < its[j].Rect.Center().X
	})
	var leaves []*node
	per := (len(its) + nSlices - 1) / nSlices
	for s := 0; s < len(its); s += per {
		e := s + per
		if e > len(its) {
			e = len(its)
		}
		run := its[s:e]
		sort.Slice(run, func(i, j int) bool {
			return run[i].Rect.Center().Y < run[j].Rect.Center().Y
		})
		for o := 0; o < len(run); o += maxEntries {
			oe := o + maxEntries
			if oe > len(run) {
				oe = len(run)
			}
			leaf := &node{leaf: true}
			for _, it := range run[o:oe] {
				leaf.entries = append(leaf.entries, entry{rect: it.Rect, id: it.ID})
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packNodes(children []*node) []*node {
	type boxed struct {
		n *node
		r geo.Rect
	}
	bs := make([]boxed, len(children))
	for i, c := range children {
		bs[i] = boxed{c, bbox(c)}
	}
	nSlices := sliceCount(len(bs))
	sort.Slice(bs, func(i, j int) bool { return bs[i].r.Center().X < bs[j].r.Center().X })
	var out []*node
	per := (len(bs) + nSlices - 1) / nSlices
	for s := 0; s < len(bs); s += per {
		e := s + per
		if e > len(bs) {
			e = len(bs)
		}
		run := bs[s:e]
		sort.Slice(run, func(i, j int) bool { return run[i].r.Center().Y < run[j].r.Center().Y })
		for o := 0; o < len(run); o += maxEntries {
			oe := o + maxEntries
			if oe > len(run) {
				oe = len(run)
			}
			n := &node{leaf: false}
			for _, b := range run[o:oe] {
				n.entries = append(n.entries, entry{rect: b.r, child: b.n})
			}
			out = append(out, n)
		}
	}
	return out
}

// sliceCount returns ceil(sqrt(ceil(n/maxEntries))) vertical slices for STR.
func sliceCount(n int) int {
	pages := (n + maxEntries - 1) / maxEntries
	s := 1
	for s*s < pages {
		s++
	}
	return s
}

// Search calls fn with the ID of every stored item whose rectangle
// intersects window. Returning false from fn stops the search.
func (t *Tree) Search(window geo.Rect, fn func(id int32) bool) {
	if t.root == nil {
		return
	}
	searchNode(t.root, window, fn)
}

func searchNode(n *node, w geo.Rect, fn func(id int32) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Intersects(w) {
			continue
		}
		if n.leaf {
			if !fn(e.id) {
				return false
			}
		} else if !searchNode(e.child, w, fn) {
			return false
		}
	}
	return true
}

// SearchDSide reports item IDs that survive the IR pruning rule of Lemma 3:
// each side of query is enlarged by delta into a rectangle, and a node (or
// item) is examined only when its box intersects all four enlarged side
// rectangles. Surviving items satisfy dside(query, item) ≤ delta, a
// necessary condition for dH ≤ delta.
func (t *Tree) SearchDSide(query geo.Rect, delta float64, fn func(id int32) bool) {
	if t.root == nil {
		return
	}
	sides := query.Sides()
	var windows [4]geo.Rect
	for i, s := range sides {
		windows[i] = s.Expand(delta)
	}
	searchDSideNode(t.root, &windows, fn)
}

func searchDSideNode(n *node, ws *[4]geo.Rect, fn func(id int32) bool) bool {
entries:
	for i := range n.entries {
		e := &n.entries[i]
		for _, w := range ws {
			if !e.rect.Intersects(w) {
				continue entries
			}
		}
		if n.leaf {
			if !fn(e.id) {
				return false
			}
		} else if !searchDSideNode(e.child, ws, fn) {
			return false
		}
	}
	return true
}
