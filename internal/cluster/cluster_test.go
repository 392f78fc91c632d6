package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/rpc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// testMap builds a valid 3-node map; addrs are placeholders until a test
// points them at live servers.
func testMap(cellSize, halo float64) *Map {
	m := &Map{
		Version:  1,
		CellSize: cellSize,
		Halo:     halo,
		Slots:    12,
		Nodes: []Member{
			{ID: "a", Addr: "127.0.0.1:1", Slots: []int{0, 3, 6, 9}},
			{ID: "b", Addr: "127.0.0.1:2", Slots: []int{1, 4, 7, 10}},
			{ID: "c", Addr: "127.0.0.1:3", Slots: []int{2, 5, 8, 11}},
		},
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

func TestMapValidate(t *testing.T) {
	bad := []struct {
		name string
		json string
	}{
		{"version", `{"version":0,"cellSize":1000,"slots":1,"nodes":[{"id":"a","addr":"x","slots":[0]}]}`},
		{"cellSize", `{"version":1,"cellSize":0,"slots":1,"nodes":[{"id":"a","addr":"x","slots":[0]}]}`},
		{"no nodes", `{"version":1,"cellSize":1000,"slots":1,"nodes":[]}`},
		{"dup id", `{"version":1,"cellSize":1000,"slots":2,"nodes":[{"id":"a","addr":"x","slots":[0]},{"id":"a","addr":"y","slots":[1]}]}`},
		{"no addr", `{"version":1,"cellSize":1000,"slots":1,"nodes":[{"id":"a","addr":"","slots":[0]}]}`},
		{"slot out of range", `{"version":1,"cellSize":1000,"slots":1,"nodes":[{"id":"a","addr":"x","slots":[1]}]}`},
		{"slot owned twice", `{"version":1,"cellSize":1000,"slots":1,"nodes":[{"id":"a","addr":"x","slots":[0]},{"id":"b","addr":"y","slots":[0]}]}`},
		{"slot unowned", `{"version":1,"cellSize":1000,"slots":2,"nodes":[{"id":"a","addr":"x","slots":[0]}]}`},
		// Slot counts no node list could fill: the first cannot be
		// allocated at all, the second can but must not be.
		{"slots 2^62", `{"version":1,"cellSize":1000,"slots":4611686018427387904,"nodes":[{"id":"a","addr":"x","slots":[0]}]}`},
		{"slots 10^6", `{"version":1,"cellSize":1000,"slots":1000000,"nodes":[{"id":"a","addr":"x","slots":[0]}]}`},
	}
	for _, tc := range bad {
		if _, err := ParseMap([]byte(tc.json)); err == nil {
			t.Errorf("%s: invalid map accepted", tc.name)
		}
	}
	good := `{"version":1,"cellSize":1000,"halo":400,"slots":4,
	  "nodes":[{"id":"a","addr":"x","slots":[0,2]},{"id":"b","addr":"y","slots":[1,3]}]}`
	m, err := ParseMap([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if m.Index("b") != 1 || m.Index("z") != -1 {
		t.Fatalf("Index: b=%d z=%d", m.Index("b"), m.Index("z"))
	}
}

func TestRouteBatchPartition(t *testing.T) {
	cfg := gen.Default()
	cfg.NumTaxis = 120
	cfg.TicksPerDay = 24
	cfg.Seed = 7
	db := gen.Generate(cfg)
	batch := db.Batches(24)[0]

	t.Run("no halo is a partition", func(t *testing.T) {
		m := testMap(3000, 0)
		subs := m.RouteBatch(batch)
		if len(subs) != 3 {
			t.Fatalf("%d sub-batches, want 3", len(subs))
		}
		seen := map[trajectory.ObjectID]int{}
		for ni, sub := range subs {
			if sub.Domain != batch.Domain {
				t.Fatalf("node %d: domain %+v, want %+v", ni, sub.Domain, batch.Domain)
			}
			for i := range sub.Trajs {
				seen[sub.Trajs[i].ID]++
			}
		}
		for i := range batch.Trajs {
			if n := seen[batch.Trajs[i].ID]; n != 1 {
				t.Fatalf("trajectory %d routed %d times, want exactly 1", batch.Trajs[i].ID, n)
			}
		}
	})

	t.Run("halo replicates, covers home", func(t *testing.T) {
		m := testMap(3000, 1200)
		subs := m.RouteBatch(batch)
		total := 0
		for _, sub := range subs {
			total += len(sub.Trajs)
		}
		if total < len(batch.Trajs) {
			t.Fatalf("%d routed copies for %d trajectories", total, len(batch.Trajs))
		}
		// Every trajectory must at least reach its home node.
		for i := range batch.Trajs {
			tr := &batch.Trajs[i]
			home := m.homeNode(tr, batch.Domain)
			found := false
			for j := range subs[home].Trajs {
				if subs[home].Trajs[j].ID == tr.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trajectory %d missing from its home node %d", tr.ID, home)
			}
		}
	})

	t.Run("empty sub-batches keep the domain", func(t *testing.T) {
		m := testMap(1e9, 0) // one giant cell: a single owner gets everything
		subs := m.RouteBatch(batch)
		empties := 0
		for _, sub := range subs {
			if len(sub.Trajs) == 0 {
				empties++
				if sub.Domain.N != batch.Domain.N {
					t.Fatal("empty sub-batch lost the tick domain")
				}
			}
		}
		if empties != 2 {
			t.Fatalf("%d empty sub-batches, want 2", empties)
		}
	})
}

// clusterHarness is three Node runtimes over live HTTP servers, each with
// its own engine, plus the plumbing to feed them through the real
// forwarding data plane.
type clusterHarness struct {
	m       *Map
	engines []*engine.Engine
	nodes   []*Node
	servers []*httptest.Server
}

func newClusterHarness(t *testing.T, pipe core.Config, haloFactor float64) *clusterHarness {
	t.Helper()
	h := &clusterHarness{m: testMap(3000, haloFactor*pipe.Delta)}

	// Servers first: the map needs real addresses before nodes dial.
	muxes := make([]*http.ServeMux, len(h.m.Nodes))
	for i := range h.m.Nodes {
		muxes[i] = http.NewServeMux()
		srv := httptest.NewServer(muxes[i])
		h.servers = append(h.servers, srv)
		h.m.Nodes[i].Addr = strings.TrimPrefix(srv.URL, "http://")
	}

	for i, member := range h.m.Nodes {
		eng, err := engine.New(engine.Config{
			Pipeline:    pipe,
			Shards:      2,
			Partitioner: engine.GridCell{CellSize: 3000, Halo: 4 * pipe.Delta},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.engines = append(h.engines, eng)
		n, err := NewNode(NodeConfig{
			Map:          h.m,
			Self:         member.ID,
			Engine:       eng,
			GatherParams: gathering.Params{KC: pipe.KC, KP: pipe.KP, MP: pipe.MP},
			Counters:     &stats.ClusterCounters{},
			InboxDepth:   256,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, n)
		muxes[i].HandleFunc(rpc.ForwardPath, n.HandleForward)
		muxes[i].HandleFunc(rpc.LocalPath, n.HandleLocal)
	}
	t.Cleanup(func() {
		for _, srv := range h.servers {
			srv.Close()
		}
		for _, eng := range h.engines {
			eng.Close()
		}
	})
	return h
}

// feed routes every batch through node a (the front), waits for the
// forwards to deliver, applies them, and flushes all engines.
func (h *clusterHarness) feed(t *testing.T, batches []*trajectory.DB) {
	t.Helper()
	for i, b := range batches {
		own := h.nodes[0].Route(uint64(i), b)
		if err := h.engines[0].Append(own); err != nil {
			t.Fatal(err)
		}
	}
	h.nodes[0].Close() // drains the forward queues: every item delivered
	for ni := 1; ni < len(h.nodes); ni++ {
		for {
			select {
			case fwd := <-h.nodes[ni].Inbox():
				if err := h.engines[ni].Append(fwd.Batch); err != nil {
					t.Fatal(err)
				}
				continue
			default:
			}
			break
		}
	}
	for _, eng := range h.engines {
		eng.Flush()
	}
}

func sigs(res *engine.Result) []string {
	var out []string
	for i, cr := range res.Crowds {
		for _, g := range res.Gatherings[i] {
			out = append(out, fmt.Sprintf("%d-%d:%v", g.Crowd.Start, g.Crowd.End(), g.Participators))
		}
		_ = cr
	}
	sort.Strings(out)
	return out
}

// TestClusterParity: three nodes fed through the real forwarding data
// plane answer a scatter-gather query with the same gathering set as one
// single-store engine over the same in-order stream.
func TestClusterParity(t *testing.T) {
	pipe := core.Config{
		Eps: 200, MinPts: 5,
		MC: 8, KC: 8, Delta: 300,
		KP: 6, MP: 6,
		Searcher: "grid",
	}
	cfg := gen.Default()
	cfg.NumTaxis = 250
	cfg.TicksPerDay = 96
	cfg.Seed = 3
	db := gen.Generate(cfg)
	batches := db.Batches(12)

	single, err := engine.New(engine.Config{Pipeline: pipe, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, b := range batches {
		if err := single.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	single.Flush()
	want := sigs(single.Snapshot(engine.Query{}))
	if len(want) == 0 {
		t.Fatal("baseline found no gatherings; the scenario is vacuous")
	}

	h := newClusterHarness(t, pipe, 8)
	h.feed(t, batches)

	res, meta := h.nodes[0].Query(context.Background(), engine.Query{})
	if len(meta.Unreachable) != 0 {
		t.Fatalf("unreachable %v with all nodes up", meta.Unreachable)
	}
	got := sigs(res)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("cluster gathering set diverges from single store\n got: %v\nwant: %v", got, want)
	}

	// Any member can coordinate, with the same answer.
	res2, _ := h.nodes[1].Query(context.Background(), engine.Query{})
	if g2 := sigs(res2); strings.Join(g2, "\n") != strings.Join(want, "\n") {
		t.Errorf("node b's answer diverges\n got: %v\nwant: %v", g2, want)
	}
}

// TestClusterDegradedRead: with one member dead, a scatter-gather query
// still answers — partial, marked, never an error.
func TestClusterDegradedRead(t *testing.T) {
	pipe := core.Config{
		Eps: 200, MinPts: 5,
		MC: 8, KC: 8, Delta: 300,
		KP: 6, MP: 6,
		Searcher: "grid",
	}
	cfg := gen.Default()
	cfg.NumTaxis = 150
	cfg.TicksPerDay = 48
	cfg.Seed = 5
	db := gen.Generate(cfg)

	h := newClusterHarness(t, pipe, 8)
	h.feed(t, db.Batches(12))

	h.servers[2].Close() // node c dies
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, meta := h.nodes[0].Query(ctx, engine.Query{})
	if len(meta.Unreachable) != 1 || meta.Unreachable[0] != "c" {
		t.Fatalf("Unreachable = %v, want [c]", meta.Unreachable)
	}
	if res == nil {
		t.Fatal("partial query returned no result")
	}
	if h.nodes[0].Degraded() {
		// One failed request may not have opened the breaker yet; force it.
		t.Log("breaker already open after one failure")
	}
	if c := h.nodes[0].counters; c.QueriesPartial.Load() != 1 {
		t.Fatalf("QueriesPartial = %d, want 1", c.QueriesPartial.Load())
	}
}
