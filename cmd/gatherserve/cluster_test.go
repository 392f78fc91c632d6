package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	gatherings "repro"
	"repro/internal/chaos"
	"repro/internal/gen"
	"repro/internal/geojson"
)

// TestClusterChaos is the multi-process resilience test: three gatherserve
// nodes on localhost, every data-plane byte routed through chaos TCP
// proxies, one node SIGKILLed and restarted mid-stream, the feed's
// forwards retried across the outage — and at the end the cluster's
// scatter-gather gathering set must be identical to a single-store
// in-order replay of the same CSV. Along the way, a query issued while a
// peer is blackholed must come back 200 with the partial/staleness
// markers, never a 5xx.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	dir := t.TempDir()

	// Build the server binary (with the race detector: the subprocesses
	// are where the interesting interleavings happen).
	bin := filepath.Join(dir, "gatherserve")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Workload: a small synthetic day, written to CSV the way operators
	// feed the server.
	cfg := gen.Default()
	cfg.NumTaxis = 250
	cfg.TicksPerDay = 96
	cfg.Seed = 3
	genDB := gen.Generate(cfg)
	csvPath := filepath.Join(dir, "day.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := gatherings.WriteTrajectoriesCSV(f, genDB.Trajs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The expected answer: a single-store in-order replay over the same
	// CSV bytes, domain rebuilt exactly as the server rebuilds it.
	rf, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := gatherings.ReadTrajectoriesCSV(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	start := math.Inf(1)
	for i := range trajs {
		if s, _, ok := trajs[i].Lifespan(); ok && s < start {
			start = s
		}
	}
	db := &gatherings.DB{Trajs: trajs, Domain: gatherings.TimeDomain{Start: start, Step: 1, N: 96}}
	single, err := gatherings.NewEngine(gatherings.EngineConfig{Pipeline: clusterTestPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range db.Batches(12) {
		if err := single.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	single.Flush()
	res := single.Snapshot(gatherings.EngineQuery{GatheringsOnly: true})
	var wantBuf bytes.Buffer
	if err := geojson.Export(&wantBuf, res.Crowds, res.Gatherings, nil); err != nil {
		t.Fatal(err)
	}
	single.Close()

	// Three nodes on reserved localhost ports, with a chaos proxy in
	// front of each: the membership map carries the proxy addresses, so
	// every forward and every scatter-gather read crosses a proxy.
	ids := []string{"a", "b", "c"}
	ports := make([]string, 3)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().String()
		l.Close()
	}
	proxies := make([]*chaos.Proxy, 3)
	for i := range proxies {
		p, err := chaos.NewProxy(ports[i])
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies[i] = p
	}
	var mapJSON strings.Builder
	fmt.Fprintf(&mapJSON, `{"version":1,"cellSize":3000,"halo":2400,"slots":12,"nodes":[`)
	for i, id := range ids {
		if i > 0 {
			mapJSON.WriteString(",")
		}
		fmt.Fprintf(&mapJSON, `{"id":%q,"addr":%q,"slots":[%d,%d,%d,%d]}`,
			id, proxies[i].Addr(), i, i+3, i+6, i+9)
	}
	mapJSON.WriteString("]}")
	mapPath := filepath.Join(dir, "map.json")
	if err := os.WriteFile(mapPath, []byte(mapJSON.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	nodeCmd := func(i int) *exec.Cmd {
		args := []string{
			"-cluster", mapPath, "-node", ids[i], "-addr", ports[i],
			"-ticks", "96", "-step", "1", "-batch", "12",
			"-eps", "200", "-minpts", "5", "-mc", "8", "-kc", "8",
			"-delta", "300", "-kp", "6", "-mp", "6",
			"-watermark", "8",
			"-wal", filepath.Join(dir, ids[i]+".wal"),
			"-checkpoint", filepath.Join(dir, ids[i]+".ckpt"),
			"-checkpoint-every", "2",
			"-wal-sync", "checkpoint",
			"-forward-deadline", "120s", "-attempt-timeout", "1s",
			"-breaker-threshold", "3", "-breaker-cooldown", "300ms",
			"-retry-seed", "7",
		}
		if i == 0 {
			args = append(args, "-in", csvPath, "-interval", "400ms")
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &prefixWriter{t: t, prefix: ids[i]}
		cmd.Stderr = &prefixWriter{t: t, prefix: ids[i]}
		return cmd
	}

	cmds := make([]*exec.Cmd, 3)
	for i := 2; i >= 0; i-- { // members first, the front last
		cmds[i] = nodeCmd(i)
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	killAll := func() {
		for _, c := range cmds {
			if c != nil && c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	}
	defer killAll()

	client := &http.Client{Timeout: 10 * time.Second}
	get := func(addr, path string) (*http.Response, string, error) {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, string(body), err
	}
	waitFor := func(what string, timeout time.Duration, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	ready := func(addr string) bool {
		resp, _, err := get(addr, "/readyz")
		return err == nil && resp.StatusCode == http.StatusOK
	}
	ticksApplied := func(addr string) int {
		_, body, err := get(addr, "/stats")
		if err != nil {
			return -1
		}
		var n int
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "ticks applied:") {
				fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "ticks applied:")), "%d", &n)
			}
		}
		return n
	}

	for _, p := range ports {
		p := p
		waitFor("readyz "+p, 30*time.Second, func() bool { return ready(p) })
	}

	// Perturb the links from the start: extra latency towards node c.
	proxies[2].SetLatency(20 * time.Millisecond)
	proxies[2].SetMode(chaos.ProxyLatency)

	// Mid-stream: SIGKILL node b, let the front retry into the hole,
	// flap node c's link while the stream is in flight, then restart b
	// with the same WAL and checkpoint.
	waitFor("mid-stream", 60*time.Second, func() bool { return ticksApplied(ports[0]) >= 24 })
	if err := cmds[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait()
	t.Log("node b killed")

	proxies[2].SetMode(chaos.ProxyBlackhole)
	// A query during the blackhole must degrade, not fail: 200 with the
	// partial and staleness markers once the breaker gives up on c.
	sawPartial := false
	for i := 0; i < 20 && !sawPartial; i++ {
		resp, _, err := get(ports[0], "/gatherings")
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query during blackhole answered %d, want 200", resp.StatusCode)
		}
		if resp.Header.Get("X-Gather-Partial") == "true" {
			unreached := resp.Header.Get("X-Gather-Unreachable")
			if !strings.Contains(unreached, "b") && !strings.Contains(unreached, "c") {
				t.Fatalf("partial answer lists %q unreachable", unreached)
			}
			if resp.Header.Get("X-Gather-Ticks") == "" {
				t.Fatal("partial answer missing the staleness marker")
			}
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no partial answer observed during the blackhole")
	}
	proxies[2].SetMode(chaos.ProxyLatency) // link heals

	cmds[1] = nodeCmd(1)
	if err := cmds[1].Start(); err != nil {
		t.Fatal(err)
	}
	t.Log("node b restarted")

	// Convergence: every node applies the full domain — b's recovery plus
	// the front's retries must close the gap the SIGKILL opened.
	for _, p := range ports {
		p := p
		waitFor("ticks=96 on "+p, 120*time.Second, func() bool { return ticksApplied(p) == 96 })
	}

	// The cluster answer must now be complete and identical to the
	// single-store replay. The breaker towards b may need a beat to close
	// after the restart, so poll briefly for a non-partial answer.
	var got string
	waitFor("complete answer", 30*time.Second, func() bool {
		resp, body, err := get(ports[0], "/gatherings")
		if err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		if resp.Header.Get("X-Gather-Partial") == "true" {
			return false
		}
		got = body
		return true
	})
	var wantJSON, gotJSON any
	if err := json.Unmarshal(wantBuf.Bytes(), &wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(got), &gotJSON); err != nil {
		t.Fatalf("cluster answer is not JSON: %v\n%.400s", err, got)
	}
	if !reflect.DeepEqual(gotJSON, wantJSON) {
		t.Errorf("cluster gathering set diverges from single-store replay\n got: %.2000s\nwant: %.2000s", got, wantBuf.String())
	}

	// Breaker state and forward retry/drop counters are on /stats.
	_, stats, err := get(ports[0], "/stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"forwards sent:", "forwards retried:", "forwards dropped:", "peer breakers:"} {
		if !strings.Contains(stats, want) {
			t.Errorf("/stats missing %q\n%s", want, stats)
		}
	}
	// The generous forward deadline must have carried every sub-batch
	// across b's outage; a drop would mean silent data loss.
	for _, line := range strings.Split(stats, "\n") {
		if strings.HasPrefix(line, "forwards dropped:") {
			var n int
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "forwards dropped:")), "%d", &n)
			if n != 0 {
				t.Errorf("front dropped %d forwards:\n%s", n, stats)
			}
		}
	}

	// Clean shutdown for all three.
	for _, c := range cmds {
		c.Process.Signal(syscall.SIGTERM)
	}
	for i, c := range cmds {
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Errorf("node %s did not exit on SIGTERM", ids[i])
			c.Process.Kill()
		}
	}
	cmds = nil
}

func clusterTestPipeline() gatherings.Config {
	cfg := gatherings.DefaultConfig()
	cfg.Eps, cfg.MinPts = 200, 5
	cfg.MC, cfg.KC, cfg.Delta = 8, 8, 300
	cfg.KP, cfg.MP = 6, 6
	cfg.Searcher = "grid"
	return cfg
}

// prefixWriter tees a subprocess's output into the test log.
type prefixWriter struct {
	t      *testing.T
	prefix string
	buf    bytes.Buffer
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line)
			break
		}
		w.t.Logf("[%s] %s", w.prefix, strings.TrimRight(line, "\n"))
	}
	return len(p), nil
}
