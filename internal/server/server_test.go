package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	gatherings "repro"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/geojson"
)

// testConfig is the pipeline TestClusterChaos (cmd/gatherserve) runs.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Ticks, cfg.Batch = 96, 12
	cfg.Eps, cfg.MinPts = 200, 5
	cfg.MC, cfg.KC, cfg.Delta = 8, 8, 300
	cfg.KP, cfg.MP = 6, 6
	cfg.Watermark = 8
	cfg.RetrySeed = 7
	return cfg
}

// testFeed is TestClusterChaos's day: 250 taxis, 96 ticks, seed 3.
func testFeed() *gatherings.DB {
	g := gen.Default()
	g.NumTaxis, g.TicksPerDay, g.Seed = 250, 96, 3
	return gen.Generate(g)
}

// singleStore is the reference answer: one engine fed the same batches
// in order, exported as /gatherings would.
func singleStore(t *testing.T, cfg Config, feed *gatherings.DB) []byte {
	t.Helper()
	ec := gatherings.EngineConfig{Pipeline: gatherings.DefaultConfig()}
	p := &ec.Pipeline
	p.Eps, p.MinPts, p.MC, p.KC, p.Delta = cfg.Eps, cfg.MinPts, cfg.MC, cfg.KC, cfg.Delta
	p.KP, p.MP, p.Searcher = cfg.KP, cfg.MP, cfg.Searcher
	eng, err := gatherings.NewEngine(ec)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, b := range feed.Batches(cfg.Batch) {
		if err := eng.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	res := eng.Snapshot(gatherings.EngineQuery{GatheringsOnly: true})
	if len(res.Crowds) == 0 {
		t.Fatal("the single store finds no gatherings; the comparison would be vacuous")
	}
	var buf bytes.Buffer
	if err := geojson.Export(&buf, res.Crowds, res.Gatherings, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// get serves one GET through h.
func get(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// statCounter reads one "name: value" line of /stats.
func statCounter(t *testing.T, s *Server, name string) int {
	t.Helper()
	for _, line := range strings.Split(get(s.Handler(), "/stats").Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+":"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatalf("/stats %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/stats has no %q line", name)
	return 0
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"batch 0":          func(c *Config) { c.Batch = 0 },
		"oneshot cluster":  func(c *Config) { c.Oneshot, c.Cluster = true, "map.json" },
		"unknown wal-sync": func(c *Config) { c.WALSync = "sometimes" },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted it", name)
		}
	}
}

// TestQuarantineAnswers503: once an apply panic quarantines the engine,
// /gatherings, /crowds and /readyz answer 503 and name the quarantine,
// and /stats says so, instead of serving the poisoned store's empty
// answer as a 200.
func TestQuarantineAnswers503(t *testing.T) {
	cfg, feed := testConfig(), testFeed()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The engine New built, swapped for one whose second apply panics.
	s.eng.Close()
	ec := gatherings.DefaultEngineConfig()
	p := &ec.Pipeline
	p.Eps, p.MinPts, p.MC, p.KC, p.Delta = cfg.Eps, cfg.MinPts, cfg.MC, cfg.KC, cfg.Delta
	p.KP, p.MP = cfg.KP, cfg.MP
	ec.ApplyFault = func(seq uint64) {
		if seq == 1 {
			panic("injected apply fault")
		}
	}
	if s.eng, err = gatherings.NewEngine(ec); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), feed); err != nil {
		t.Fatal(err)
	}

	h := s.Handler()
	for _, target := range []string{"/gatherings", "/crowds?limit=2", "/readyz"} {
		rec := get(h, target)
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "quarantined") {
			t.Errorf("%s on a quarantined engine: %d %q, want 503 naming the quarantine", target, rec.Code, rec.Body)
		}
	}
	if body := get(h, "/stats").Body.String(); !strings.Contains(body, "quarantined:         true") {
		t.Errorf("/stats does not report the quarantine:\n%s", body)
	}
}

// TestStandalone: a standalone server is not ready before Run, answers
// /gatherings byte-identically to a single-store export after it, and
// rejects malformed filters with 400.
func TestStandalone(t *testing.T) {
	cfg, feed := testConfig(), testFeed()
	want := singleStore(t, cfg, feed)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	if code := get(h, "/readyz").Code; code != http.StatusServiceUnavailable || s.Ready() {
		t.Fatalf("/readyz before Run: %d, want 503", code)
	}
	if err := s.Run(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	if code := get(h, "/readyz").Code; code != http.StatusOK || !s.Ready() {
		t.Fatalf("/readyz after Run: %d, want 200", code)
	}

	rec := get(h, "/gatherings")
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("/gatherings: %d, body differs from the single store\n got: %.400s\nwant: %.400s", rec.Code, rec.Body, want)
	}

	for _, tc := range []struct {
		target string
		code   int
	}{
		{"/gatherings?bbox=1,2,3", http.StatusBadRequest},
		{"/gatherings?limit=-5", http.StatusBadRequest},
		{"/gatherings?from=abc", http.StatusBadRequest},
		{"/gatherings?bbox=NaN,0,1e9,1e9", http.StatusBadRequest},
		{"/gatherings?bbox=1e9,1e9,0,0", http.StatusBadRequest},
		{"/gatherings?from=200&to=100", http.StatusBadRequest},
		{"/crowds?to=x", http.StatusBadRequest},
		{"/crowds?limit=1.5", http.StatusBadRequest},
		{"/gatherings?limit=2", http.StatusOK},
		{"/gatherings?from=100&to=200", http.StatusOK},
		{"/crowds?from=0&to=30&bbox=0,0,1e9,1e9", http.StatusOK},
	} {
		rec := get(h, tc.target)
		if rec.Code != tc.code {
			t.Errorf("%s: %d, want %d (%s)", tc.target, rec.Code, tc.code, strings.TrimSpace(rec.Body.String()))
		}
		if tc.code == http.StatusOK && rec.Header().Get("X-Gather-Ticks") != "96" {
			t.Errorf("%s: X-Gather-Ticks %q, want 96", tc.target, rec.Header().Get("X-Gather-Ticks"))
		}
	}
}

// TestRunStopsWhenCancelled: a Run whose context is already cancelled
// ingests at most one batch and still writes its final checkpoint; a
// second server over the same checkpoint and WAL resumes from that
// frontier and reaches the single-store answer.
func TestRunStopsWhenCancelled(t *testing.T) {
	dir := t.TempDir()
	cfg, feed := testConfig(), testFeed()
	cfg.Checkpoint, cfg.WAL = filepath.Join(dir, "state.ckpt"), filepath.Join(dir, "state.wal")
	want := singleStore(t, cfg, feed)

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := first.Run(ctx, feed); err != nil {
		t.Fatal(err)
	}
	frontier := first.Engine().Ticks()
	if frontier > cfg.Batch {
		t.Fatalf("cancelled Run ingested %d ticks, want at most one batch (%d)", frontier, cfg.Batch)
	}
	first.Close()
	if _, err := os.Stat(cfg.Checkpoint); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.Run(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	if dup := statCounter(t, second, "batches duplicate"); dup != frontier/cfg.Batch {
		t.Errorf("resumed run dropped %d re-delivered batches, want %d", dup, frontier/cfg.Batch)
	}
	if got := get(second.Handler(), "/gatherings").Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("resumed answer differs from the single store\n got: %.400s\nwant: %.400s", got, want)
	}
}

// runCluster starts three servers over httptest listeners and feeds the
// day through the first as the ingest front. It closes the front once its
// Run returns; every forward is then in its member's inbox. The members
// stay open and their listeners keep serving; the returned func stops the
// members' Runs and waits for them.
func runCluster(t *testing.T, cfg Config, feed *gatherings.DB) ([]*Server, []*httptest.Server, func()) {
	t.Helper()
	ids := []string{"a", "b", "c"}
	lis := make([]*httptest.Server, len(ids))
	var m strings.Builder
	m.WriteString(`{"version":1,"cellSize":3000,"halo":2400,"slots":12,"nodes":[`)
	for i, id := range ids {
		lis[i] = httptest.NewUnstartedServer(nil)
		t.Cleanup(lis[i].Close)
		if i > 0 {
			m.WriteString(",")
		}
		fmt.Fprintf(&m, `{"id":%q,"addr":%q,"slots":[%d,%d,%d,%d]}`, id, lis[i].Listener.Addr(), i, i+3, i+6, i+9)
	}
	m.WriteString("]}")
	cfg.Cluster = filepath.Join(t.TempDir(), "map.json")
	if err := os.WriteFile(cfg.Cluster, []byte(m.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Server, len(ids))
	for i, id := range ids {
		cfg.Node = id
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = s
		lis[i].Config.Handler = s.Handler()
		lis[i].Start()
	}

	ctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	members := make(chan error, len(nodes)-1)
	for _, s := range nodes[1:] {
		go func(s *Server) { members <- s.Run(ctx, nil) }(s)
	}
	for _, s := range nodes[1:] {
		for !s.Ready() { // forwards to a recovering member are refused and retried
			time.Sleep(time.Millisecond)
		}
	}
	if err := nodes[0].Run(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	stopMembers := func() {
		t.Helper()
		stop() // members admit their acknowledged forwards, then return
		for range nodes[1:] {
			if err := <-members; err != nil {
				t.Fatal(err)
			}
		}
	}
	return nodes, lis, stopMembers
}

// TestCluster: three servers over httptest listeners, the first fed the
// day as the ingest front, answer with the single-store gathering set,
// and a read with one member's listener closed degrades to a 200 partial
// answer.
func TestCluster(t *testing.T) {
	start := time.Now()
	cfg, feed := testConfig(), testFeed()
	want := singleStore(t, cfg, feed)
	nodes, lis, stopMembers := runCluster(t, cfg, feed)
	stopMembers()
	for _, s := range nodes[1:] {
		t.Cleanup(s.Close)
	}
	for i, s := range nodes {
		if got := s.Engine().Ticks(); got != feed.Domain.N {
			t.Fatalf("node %d applied %d ticks, want %d", i, got, feed.Domain.N)
		}
	}

	read := func() (*http.Response, []byte) {
		resp, err := http.Get(lis[0].URL + "/gatherings")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, body := read()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Gather-Partial") != "" {
		t.Fatalf("complete read: %d partial=%q", resp.StatusCode, resp.Header.Get("X-Gather-Partial"))
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("cluster answer differs from the single store\n got: %.400s\nwant: %.400s", body, want)
	}

	lis[2].Close()
	resp, _ = read()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Gather-Partial") != "true" ||
		resp.Header.Get("X-Gather-Unreachable") != "c" || resp.Header.Get("X-Gather-Ticks") == "" {
		t.Fatalf("read with c down: %d, headers %v; want 200 partial, c unreachable, with ticks", resp.StatusCode, resp.Header)
	}
	t.Logf("wall time %v", time.Since(start))
}

// TestCloseLeavesNoGoroutines: once Run has returned and Close has been
// called — and, for a cluster, the listeners closed — no goroutine of this
// module's internal packages is left. Close is a barrier: the engine waits
// for its goroutines and every peer for its forwarder to drain.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	cfg, feed := testConfig(), testFeed()
	t.Run("standalone", func(t *testing.T) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background(), feed); err != nil {
			t.Fatal(err)
		}
		s.Close()
		checkNoRepoGoroutines(t)
	})
	t.Run("cluster", func(t *testing.T) {
		nodes, lis, stopMembers := runCluster(t, cfg, feed)
		// Listeners first: a forwarder that outlived the front's Close
		// then has no one to deliver to and retries until its deadline,
		// so it cannot finish before the check.
		for _, l := range lis {
			l.Close()
		}
		stopMembers()
		for _, s := range nodes[1:] {
			s.Close()
		}
		checkNoRepoGoroutines(t)
	})
}

// TestCloseTwice: Close is idempotent on every node of a cluster, the
// ingest front and the members alike; the second call returns without
// panicking.
func TestCloseTwice(t *testing.T) {
	nodes, _, stopMembers := runCluster(t, testConfig(), testFeed())
	stopMembers()
	for i, s := range nodes {
		if i > 0 {
			s.Close()
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("second Close on node %d panicked: %v", i, r)
				}
			}()
			s.Close()
		}()
	}
}

// checkNoRepoGoroutines fails t for every goroutine with a frame in this
// module's internal packages, leaving out the test goroutines themselves
// (those run under testing.tRunner). A barrier returns once each goroutine
// has signalled that it is done (its deferred wg.Done or close), which can
// be a moment before that goroutine returns, so a goroutine counts as left
// only if it is still there a second later; a leaked one runs on.
func checkNoRepoGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		left := repoGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, g := range left {
				t.Errorf("goroutine left after Close:\n%s", g)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// repoGoroutines returns the stacks of the live goroutines that
// checkNoRepoGoroutines looks for.
func repoGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro/internal/") && !strings.Contains(g, "testing.tRunner") {
			left = append(left, g)
		}
	}
	return left
}

func TestParseWindow(t *testing.T) {
	for _, tc := range []struct {
		query    string
		from, to gatherings.Tick
		none     bool
		bad      bool
	}{
		{query: "", none: true},
		{query: "from=5", from: 5, to: math.MaxInt32},
		{query: "to=7", from: 0, to: 7},
		{query: "from=3&to=3", from: 3, to: 3},
		{query: "from=abc", bad: true},
		{query: "to=x", bad: true},
		{query: "from=200&to=100", bad: true},
		{query: "to=-1", bad: true},
	} {
		w, err := parseWindow(httptest.NewRequest(http.MethodGet, "/crowds?"+tc.query, nil))
		switch {
		case tc.bad:
			if err == nil {
				t.Errorf("%q: accepted as %+v", tc.query, w)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.query, err)
		case tc.none != (w == nil):
			t.Errorf("%q: window %+v, want none=%v", tc.query, w, tc.none)
		case w != nil && (w.From != tc.from || w.To != tc.to):
			t.Errorf("%q: window %+v, want [%d, %d]", tc.query, *w, tc.from, tc.to)
		}
	}
}

func TestParseBBox(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want geo.Rect
		bad  bool
	}{
		{in: "1,2,3,4", want: geo.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}},
		{in: " 1, 2 ,3,4", want: geo.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}},
		{in: "5,5,5,5", want: geo.Rect{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}},
		{in: "1,2,3", bad: true},
		{in: "1,2,3,4,5", bad: true},
		{in: "a,2,3,4", bad: true},
		{in: "NaN,0,1e9,1e9", bad: true},
		{in: "0,0,Inf,1", bad: true},
		{in: "-Inf,0,1,1", bad: true},
		{in: "10,0,0,10", bad: true},
		{in: "0,10,10,0", bad: true},
	} {
		got, err := parseBBox(tc.in)
		switch {
		case tc.bad && err == nil:
			t.Errorf("%q: accepted as %+v", tc.in, got)
		case !tc.bad && err != nil:
			t.Errorf("%q: %v", tc.in, err)
		case !tc.bad && got != tc.want:
			t.Errorf("%q: %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseLimit(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  int
		bad   bool
	}{
		{query: "", want: 0},
		{query: "limit=0", want: 0},
		{query: "limit=7", want: 7},
		{query: "limit=-5", bad: true},
		{query: "limit=x", bad: true},
		{query: "limit=1.5", bad: true},
	} {
		q, err := parseQuery(httptest.NewRequest(http.MethodGet, "/gatherings?"+tc.query, nil), true)
		switch {
		case tc.bad && err == nil:
			t.Errorf("%q: accepted as limit %d", tc.query, q.Limit)
		case !tc.bad && err != nil:
			t.Errorf("%q: %v", tc.query, err)
		case !tc.bad && q.Limit != tc.want:
			t.Errorf("%q: limit %d, want %d", tc.query, q.Limit, tc.want)
		}
	}
}
