package rpc

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	base, cap := 10*time.Millisecond, 5*time.Second
	a := NewBackoff(base, cap, 42)
	b := NewBackoff(base, cap, 42)
	d := base
	for i := 0; i < 20; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < d/2 || da >= d {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, da, d/2, d)
		}
		if d < cap {
			d *= 2
			if d > cap {
				d = cap
			}
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	c := &stats.ClusterCounters{}
	b := NewBreaker(3, time.Second, c)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker must allow")
		}
		b.Report(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v before threshold, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("still closed")
	}
	b.Report(false) // third consecutive failure
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold, want open", b.State())
	}
	if c.BreakerOpens.Load() != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", c.BreakerOpens.Load())
	}
	if b.Allow() {
		t.Fatal("open breaker within cooldown must refuse")
	}

	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: one half-open probe must pass")
	}
	if b.Allow() {
		t.Fatal("second request during the probe must be refused")
	}
	if c.BreakerProbes.Load() != 1 {
		t.Fatalf("BreakerProbes = %d, want 1", c.BreakerProbes.Load())
	}
	b.Report(false) // probe failed: re-open
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe must pass")
	}
	b.Report(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	if c.BreakerCloses.Load() != 1 {
		t.Fatalf("BreakerCloses = %d, want 1", c.BreakerCloses.Load())
	}
}

// TestPeerForwardRetriesUntilAccepted: a peer that fails the first two
// attempts of each item still receives every item, in order, exactly once
// at the application level.
func TestPeerForwardRetriesUntilAccepted(t *testing.T) {
	var mu sync.Mutex
	fails := map[string]int{}
	var order []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := r.Header.Get(HeaderSeq)
		mu.Lock()
		defer mu.Unlock()
		if fails[seq] < 2 {
			fails[seq]++
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		order = append(order, seq)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	c := &stats.ClusterCounters{}
	p := NewPeer(PeerConfig{
		ID: "b", Addr: strings.TrimPrefix(srv.URL, "http://"),
		Producer: "a", MapVersion: 1, Counters: c,
		BreakerThreshold: 100, // retries alone, no breaker interference
		ForwardDeadline:  10 * time.Second,
	})
	for seq := uint64(0); seq < 3; seq++ {
		p.Forward(seq, []byte{byte(seq)})
	}
	p.Close()

	mu.Lock()
	defer mu.Unlock()
	if want := []string{"0", "1", "2"}; len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
	if c.ForwardsSent.Load() != 3 {
		t.Fatalf("ForwardsSent = %d, want 3", c.ForwardsSent.Load())
	}
	if c.ForwardsRetried.Load() < 6 {
		t.Fatalf("ForwardsRetried = %d, want ≥ 6", c.ForwardsRetried.Load())
	}
	if c.ForwardsDropped.Load() != 0 {
		t.Fatalf("ForwardsDropped = %d, want 0", c.ForwardsDropped.Load())
	}
}

// TestPeerCloseDrains: Close is a barrier. The target holds the first
// forward until the test releases it, so Close cannot return before the
// release, and once it returns every queued forward has been delivered. A
// second Close returns at once.
func TestPeerCloseDrains(t *testing.T) {
	const n = 5
	arrived, release := make(chan struct{}), make(chan struct{})
	var held, released sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		held.Do(func() {
			close(arrived)
			<-release
		})
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	unhold := func() { released.Do(func() { close(release) }) }
	defer unhold() // before srv.Close, which waits for the held request

	c := &stats.ClusterCounters{}
	p := NewPeer(PeerConfig{
		ID: "b", Addr: strings.TrimPrefix(srv.URL, "http://"),
		Counters: c, ForwardDeadline: 10 * time.Second,
	})
	for seq := uint64(0); seq < n; seq++ {
		p.Forward(seq, []byte{byte(seq)})
	}
	<-arrived
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// The wait only bounds how long a Close that skips the drain has to
	// return early; a correct Close cannot return here at all.
	select {
	case <-closed:
		t.Fatalf("Close returned while the first forward was still held (%d of %d sent)", c.ForwardsSent.Load(), n)
	case <-time.After(50 * time.Millisecond):
	}
	unhold()
	<-closed
	if got := c.ForwardsSent.Load(); got != n {
		t.Fatalf("ForwardsSent = %d when Close returned, want %d", got, n)
	}
	p.Close()
}

// TestPeerForwardDropsOnConflict: a 409 (map-version mismatch, second
// producer) is decisive — the item is dropped without retries and the
// queue moves on.
func TestPeerForwardDropsOnConflict(t *testing.T) {
	var got atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Add(1)
		http.Error(w, "version mismatch", http.StatusConflict)
	}))
	defer srv.Close()

	c := &stats.ClusterCounters{}
	p := NewPeer(PeerConfig{
		ID: "b", Addr: strings.TrimPrefix(srv.URL, "http://"),
		Counters: c, ForwardDeadline: 10 * time.Second,
	})
	p.Forward(0, []byte{0})
	p.Forward(1, []byte{1})
	p.Close()

	if got.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2 (no retries of a 409)", got.Load())
	}
	if c.ForwardsDropped.Load() != 2 {
		t.Fatalf("ForwardsDropped = %d, want 2", c.ForwardsDropped.Load())
	}
}

// TestPeerForwardDeadline: a dead peer costs the item after the forward
// deadline, counted, and does not wedge the queue.
func TestPeerForwardDeadline(t *testing.T) {
	c := &stats.ClusterCounters{}
	p := NewPeer(PeerConfig{
		ID: "b", Addr: "127.0.0.1:1", // nothing listens there
		Counters:       c,
		AttemptTimeout: 50 * time.Millisecond, ForwardDeadline: 300 * time.Millisecond,
	})
	p.Forward(7, []byte{7})
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: dropped item wedged the queue")
	}
	if c.ForwardsDropped.Load() != 1 {
		t.Fatalf("ForwardsDropped = %d, want 1", c.ForwardsDropped.Load())
	}
	if c.ForwardsRetried.Load() == 0 {
		t.Fatal("expected at least one retry before the drop")
	}
}
