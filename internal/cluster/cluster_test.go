package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster/rpc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// testMap builds a valid 3-node map; addrs are placeholders until a test
// points them at live servers.
func testMap() *Map {
	m := &Map{
		Version: 1,
		Nodes: []Member{
			{ID: "a", Addr: "127.0.0.1:1"},
			{ID: "b", Addr: "127.0.0.1:2"},
			{ID: "c", Addr: "127.0.0.1:3"},
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
		{"version", `{"version":0,"nodes":[{"id":"a","addr":"x"}]}`},
		{"no nodes", `{"version":1,"nodes":[]}`},
		{"no id", `{"version":1,"nodes":[{"id":"","addr":"x"}]}`},
		{"dup id", `{"version":1,"nodes":[{"id":"a","addr":"x"},{"id":"a","addr":"y"}]}`},
		{"no addr", `{"version":1,"nodes":[{"id":"a","addr":""}]}`},
	}
	for _, tc := range bad {
		if _, err := ParseMap([]byte(tc.json)); err == nil {
			t.Errorf("%s: invalid map accepted", tc.name)
		}
	}
	good := `{"version":1,"nodes":[{"id":"a","addr":"x"},{"id":"b","addr":"y"}]}`
	m, err := ParseMap([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if m.Index("b") != 1 || m.Index("z") != -1 {
		t.Fatalf("Index: b=%d z=%d", m.Index("b"), m.Index("z"))
	}
	// A map written for cell ownership still loads: its cellSize, halo
	// and slots are ignored.
	old := `{"version":2,"cellSize":3000,"halo":2400,"slots":12,"nodes":[
	  {"id":"a","addr":"x","slots":[0,3,6,9]},
	  {"id":"b","addr":"y","slots":[1,4,7,10]},
	  {"id":"c","addr":"z","slots":[2,5,8,11]}]}`
	if m, err := ParseMap([]byte(old)); err != nil || m.Version != 2 || len(m.Nodes) != 3 {
		t.Fatalf("old-format map: %v, %+v", err, m)
	}
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

// newClusterHarness builds the harness.
func newClusterHarness(t *testing.T, pipe core.Config) *clusterHarness {
	t.Helper()
	h := &clusterHarness{m: testMap()}

	// Servers first: the map needs real addresses before nodes dial.
	muxes := make([]*http.ServeMux, len(h.m.Nodes))
	for i := range h.m.Nodes {
		muxes[i] = http.NewServeMux()
		srv := httptest.NewServer(muxes[i])
		h.servers = append(h.servers, srv)
		h.m.Nodes[i].Addr = strings.TrimPrefix(srv.URL, "http://")
	}

	for i, member := range h.m.Nodes {
		eng, err := engine.New(engine.Config{Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		h.engines = append(h.engines, eng)
		n, err := NewNode(NodeConfig{
			Map:        h.m,
			Self:       member.ID,
			Engine:     eng,
			Counters:   &stats.ClusterCounters{},
			InboxDepth: 256,
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, n)
		muxes[i].HandleFunc(rpc.ForwardPath, n.HandleForward)
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
	for _, gs := range res.Gatherings {
		for _, g := range gs {
			out = append(out, fmt.Sprintf("%d-%d:%v", g.Crowd.Start, g.Crowd.End(), g.Participators))
		}
	}
	sort.Strings(out)
	return out
}

// TestClusterParity: three replicas fed through the real forwarding data
// plane each answer, from their own engine, the gathering set one engine
// answers over the same in-order stream. The dense seeds are the inputs
// on which the former cell-partitioned cluster's merged answer differed
// from the single engine's.
func TestClusterParity(t *testing.T) {
	small := core.Config{
		Eps: 200, MinPts: 5,
		MC: 8, KC: 8, Delta: 300,
		KP: 6, MP: 6,
		Searcher: "grid",
	}
	dense := core.Config{
		Eps: 200, MinPts: 5,
		MC: 10, KC: 10, Delta: 300,
		KP: 8, MP: 8,
		Searcher: "grid",
	}
	denseDay := func(seed int64) gen.Config {
		cfg := gen.Default()
		cfg.NumTaxis, cfg.TicksPerDay, cfg.Days = 1500, 96, 2
		cfg.JamCommitted, cfg.JamChurn = 120, 60
		cfg.DropGoVisitors, cfg.PlatoonSize = 100, 40
		cfg.Seed = seed
		return cfg
	}
	smallDay := gen.Default()
	smallDay.NumTaxis, smallDay.TicksPerDay, smallDay.Seed = 250, 96, 3
	cases := []struct {
		name string
		pipe core.Config
		day  gen.Config
	}{
		{"small seed 3", small, smallDay},
		{"dense seed 100003", dense, denseDay(100003)},
		{"dense seed 200008", dense, denseDay(200008)},
		{"dense seed 300009", dense, denseDay(300009)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batches := gen.Generate(tc.day).Batches(12)
			single, err := engine.New(engine.Config{Pipeline: tc.pipe})
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
			want := strings.Join(sigs(single.Snapshot(engine.Query{})), "\n")
			if want == "" {
				t.Fatal("baseline found no gatherings; the scenario is vacuous")
			}

			h := newClusterHarness(t, tc.pipe)
			h.feed(t, batches)
			for i, eng := range h.engines {
				res := eng.Snapshot(engine.Query{})
				if res.Ticks != single.Ticks() {
					t.Errorf("node %s: frontier %d, want %d", h.m.Nodes[i].ID, res.Ticks, single.Ticks())
				}
				if got := strings.Join(sigs(res), "\n"); got != want {
					t.Errorf("node %s diverges from one engine\n got: %v\nwant: %v", h.m.Nodes[i].ID, got, want)
				}
			}
		})
	}
}
