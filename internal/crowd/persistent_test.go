package crowd

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// mkCl builds a distinct one-object cluster for position-identity checks.
func mkCl(t trajectory.Tick, id trajectory.ObjectID) *snapshot.Cluster {
	return snapshot.NewCluster(t, []trajectory.ObjectID{id}, []geo.Point{{X: float64(id), Y: float64(t)}})
}

// TestPersistentCrowdModel drives random branch/extend/close sequences
// against a reference slice model: every crowd node the sequence ever
// creates must materialise to exactly the cluster slice the old
// copy-on-extend representation would have produced, under every accessor,
// regardless of the order nodes are materialised in (materialisation
// steals ancestor buffers, so order matters to the implementation but must
// never matter to the answer). Prefix must find, for every lifetime, the
// node of the crowd's own chain that has it, or nil.
func TestPersistentCrowdModel(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	for trial := 0; trial < 50; trial++ {
		type node struct {
			c      *Crowd
			ref    []*snapshot.Cluster
			parent int // index of the node it extends, -1 for a root
		}
		var nodes []node
		var id trajectory.ObjectID

		// Roots: some via New (slice roots), some via the sweep's
		// singleton form (reached through extend from a New root of one).
		for i := 0; i < 1+r.Intn(3); i++ {
			var cls []*snapshot.Cluster
			for k := 0; k < 1+r.Intn(4); k++ {
				id++
				cls = append(cls, mkCl(trajectory.Tick(k), id))
			}
			start := trajectory.Tick(r.Intn(5))
			nodes = append(nodes, node{New(start, cls), cls, -1})
		}

		// Random growth: pick any live node and extend it (an old node
		// that is extended twice is a branch; extending the freshest tip
		// grows a chain — the common case).
		for step := 0; step < 40; step++ {
			pi := r.Intn(len(nodes))
			parent := nodes[pi]
			id++
			cl := mkCl(parent.c.End()+1, id)
			child := parent.c.extend(cl)
			ref := append(append([]*snapshot.Cluster(nil), parent.ref...), cl)
			nodes = append(nodes, node{child, ref, pi})

			// Occasionally materialise mid-build, in random order, so
			// later materialisations hit stolen/absent ancestor memos.
			if r.Intn(4) == 0 {
				n := nodes[r.Intn(len(nodes))]
				checkCrowd(t, n.c, n.ref)
			}
		}

		// Final sweep in random order: every node must still agree with
		// its model, whatever buffers were stolen meanwhile.
		perm := r.Perm(len(nodes))
		for _, i := range perm {
			checkCrowd(t, nodes[i].c, nodes[i].ref)
		}
		// And Sub views.
		for _, i := range perm {
			n := nodes[i]
			if len(n.ref) == 0 {
				continue
			}
			lo := r.Intn(len(n.ref))
			hi := lo + 1 + r.Intn(len(n.ref)-lo)
			sub := n.c.Sub(lo, hi)
			if sub.Start != n.c.Start+trajectory.Tick(lo) {
				t.Fatalf("Sub start = %d, want %d", sub.Start, n.c.Start+trajectory.Tick(lo))
			}
			checkCrowd(t, sub, n.ref[lo:hi])
		}
		// Prefix(k) is the chain node of lifetime k: walk the model's
		// parent links, which the chain mirrors node for node.
		for i, n := range nodes {
			for k := 0; k <= len(n.ref)+1; k++ {
				var want *Crowd
				for j := i; j >= 0; j = nodes[j].parent {
					if len(nodes[j].ref) == k {
						want = nodes[j].c
						break
					}
				}
				if got := n.c.Prefix(k); got != want {
					t.Fatalf("node %d (lifetime %d): Prefix(%d) = %v, want %v", i, len(n.ref), k, got, want)
				}
			}
		}
	}
}

func checkCrowd(t *testing.T, c *Crowd, ref []*snapshot.Cluster) {
	t.Helper()
	if c.Lifetime() != len(ref) {
		t.Fatalf("Lifetime = %d, want %d", c.Lifetime(), len(ref))
	}
	if len(ref) > 0 {
		if c.Last() != ref[len(ref)-1] {
			t.Fatalf("Last = %v, want %v", c.Last(), ref[len(ref)-1])
		}
		if c.End() != c.Start+trajectory.Tick(len(ref)-1) {
			t.Fatalf("End = %d", c.End())
		}
	}
	got := c.Clusters()
	if len(got) != len(ref) {
		t.Fatalf("Clusters len = %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("Clusters[%d] = %v, want %v", i, got[i], ref[i])
		}
		if c.At(i) != ref[i] {
			t.Fatalf("At(%d) = %v, want %v", i, c.At(i), ref[i])
		}
	}
}

// TestCrowdMaterialiseConcurrent materialises every node of a branched
// chain from many goroutines at once: the memo is racy by design
// (identical content, last store wins) and must stay correct under the
// race detector, including the ancestor-buffer steal.
func TestCrowdMaterialiseConcurrent(t *testing.T) {
	var id trajectory.ObjectID
	root := New(0, []*snapshot.Cluster{mkCl(0, 9999)})
	type node struct {
		c   *Crowd
		ref []*snapshot.Cluster
	}
	nodes := []node{{root, root.Clusters()}}
	tip := nodes[0]
	for i := 0; i < 200; i++ {
		id++
		cl := mkCl(tip.c.End()+1, id)
		child := node{tip.c.extend(cl), append(append([]*snapshot.Cluster(nil), tip.ref...), cl)}
		nodes = append(nodes, child)
		// Fork a side branch every 50 ticks.
		if i%50 == 25 {
			id++
			scl := mkCl(tip.c.End()+1, id)
			side := node{tip.c.extend(scl), append(append([]*snapshot.Cluster(nil), tip.ref...), scl)}
			nodes = append(nodes, side)
		}
		tip = child
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < 200; k++ {
				n := nodes[r.Intn(len(nodes))]
				cls := n.c.Clusters()
				for _, i := range []int{0, len(n.ref) / 2, len(n.ref) - 1} {
					if cls[i] != n.ref[i] {
						t.Errorf("worker %d: Clusters[%d] mismatch", w, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestExtendAllocs guards the sweep's hottest operation: extending a crowd
// candidate must be O(1) — one node allocation — regardless of lifetime.
// The old copy-on-extend representation allocated (and copied) the whole
// cluster slice here. The readers the sweep and every query call on the
// extended chain — Last, At through unmaterialised nodes and through the
// tip's memo, and Clusters once the tip is materialised — allocate
// nothing.
func TestExtendAllocs(t *testing.T) {
	var cls []*snapshot.Cluster
	for i := 0; i < 1024; i++ {
		cls = append(cls, mkCl(trajectory.Tick(i), trajectory.ObjectID(i)))
	}
	tip := New(0, cls)
	next := mkCl(tip.End()+1, 5000)
	avg := testing.AllocsPerRun(100, func() {
		tip = tip.extend(next)
	})
	if avg > 1.5 {
		t.Fatalf("extend allocates %.1f objects per call on a 1024-tick crowd; want ≤ 1 (the node itself)", avg)
	}

	mid := tip.parent // never materialised: At walks the chain
	tip.Clusters()
	for name, f := range map[string]func(){
		"Last":       func() { tip.Last() },
		"At(tip)":    func() { tip.At(1) },
		"At(chain)":  func() { mid.At(1) },
		"Clusters()": func() { tip.Clusters() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
	if tip.Last() != next || mid.At(1) != cls[1] || tip.Clusters()[6] != cls[6] {
		t.Fatal("accessors returned the wrong clusters")
	}
}
