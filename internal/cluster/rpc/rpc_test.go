package rpc

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trajectory"

	"repro/internal/crowd"
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

func testCrowdSet(t testing.TB) CrowdSet {
	t.Helper()
	mk := func(tick trajectory.Tick, objs ...trajectory.ObjectID) *snapshot.Cluster {
		pts := make([]geo.Point, len(objs))
		for i := range pts {
			pts[i] = geo.Point{X: float64(100*i) + float64(tick), Y: float64(tick)}
		}
		return snapshot.NewCluster(tick, objs, pts)
	}
	c0, c1, c2 := mk(0, 1, 2, 3), mk(1, 1, 2, 3), mk(2, 1, 2)
	cr1 := crowd.New(0, []*snapshot.Cluster{c0, c1, c2})
	cr2 := crowd.New(1, []*snapshot.Cluster{c1, c2}) // shares c1, c2
	return CrowdSet{
		Ticks: 3,
		Entries: []CrowdEntry{
			{Crowd: cr1, Gatherings: []*gathering.Gathering{{
				Crowd: cr1.Sub(0, 2), Lo: 0, Hi: 2, Participators: []trajectory.ObjectID{1, 2},
			}}},
			{Crowd: cr2},
		},
	}
}

func TestCrowdSetRoundTrip(t *testing.T) {
	set := testCrowdSet(t)
	var buf bytes.Buffer
	if err := EncodeCrowdSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCrowdSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ticks != set.Ticks {
		t.Fatalf("Ticks = %d, want %d", got.Ticks, set.Ticks)
	}
	if len(got.Entries) != len(set.Entries) {
		t.Fatalf("%d entries, want %d", len(got.Entries), len(set.Entries))
	}
	for i, en := range got.Entries {
		want := set.Entries[i]
		if en.Crowd.Start != want.Crowd.Start || en.Crowd.Lifetime() != want.Crowd.Lifetime() {
			t.Fatalf("entry %d: crowd %v, want %v", i, en.Crowd, want.Crowd)
		}
		for j, cl := range en.Crowd.Clusters() {
			w := want.Crowd.Clusters()[j]
			if cl.T != w.T || len(cl.Objects) != len(w.Objects) {
				t.Fatalf("entry %d cluster %d: %v, want %v", i, j, cl, w)
			}
		}
		if len(en.Gatherings) != len(want.Gatherings) {
			t.Fatalf("entry %d: %d gatherings, want %d", i, len(en.Gatherings), len(want.Gatherings))
		}
	}
	// Clusters shared between crowds must stay shared (reference encoding).
	if got.Entries[0].Crowd.Clusters()[1] != got.Entries[1].Crowd.Clusters()[0] {
		t.Fatal("shared cluster decoded into two copies")
	}
	// A gathering's sub-crowd shares its parent's clusters.
	if got.Entries[0].Gatherings[0].Crowd.Clusters()[0] != got.Entries[0].Crowd.Clusters()[0] {
		t.Fatal("gathering sub-crowd lost cluster sharing")
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

// TestPeerGetFailsFastWhenOpen: once the breaker opens, Get refuses
// immediately instead of waiting out another timeout.
func TestPeerGetFailsFastWhenOpen(t *testing.T) {
	c := &stats.ClusterCounters{}
	p := NewPeer(PeerConfig{
		ID: "b", Addr: "127.0.0.1:1",
		Counters:         c,
		AttemptTimeout:   20 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
	})
	defer p.Close()
	for i := 0; i < 2; i++ {
		if _, err := p.Get(context.Background(), "/x"); err == nil {
			t.Fatal("expected connection failure")
		}
	}
	start := time.Now()
	_, err := p.Get(context.Background(), "/x")
	if err == nil || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("open-breaker Get took %v, want immediate", d)
	}
}

// corruptCrowdSet encodes testCrowdSet after applying corrupt to its wire
// form, for tests that feed DecodeCrowdSet malformed peer answers.
func corruptCrowdSet(t *testing.T, corrupt func(*wireCrowdSet)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeCrowdSet(&buf, testCrowdSet(t)); err != nil {
		t.Fatal(err)
	}
	var dto wireCrowdSet
	if err := gob.NewDecoder(&buf).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	corrupt(&dto)
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&dto); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestDecodeCrowdSetRejectsRaggedCluster: a peer answer whose cluster has
// more objects than points must be an error, not a panic — the decoder
// runs in the coordinator's per-peer goroutine, where a panic would kill
// the process.
func TestDecodeCrowdSetRejectsRaggedCluster(t *testing.T) {
	buf := corruptCrowdSet(t, func(d *wireCrowdSet) {
		d.Clusters[0].Objects = []trajectory.ObjectID{2, 1}
		d.Clusters[0].Points = d.Clusters[0].Points[:1]
	})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("DecodeCrowdSet panicked: %v", r)
		}
	}()
	if _, err := DecodeCrowdSet(buf); err == nil || !strings.Contains(err.Error(), "objects but") {
		t.Fatalf("DecodeCrowdSet error %v, want a ragged-cluster error", err)
	}
}

// FuzzDecodeCrowdSet asserts that the scatter-gather answer decoder never
// panics on arbitrary bytes, and that any set it accepts re-encodes and
// decodes to the same crowds and gatherings.
func FuzzDecodeCrowdSet(f *testing.F) {
	for _, set := range []CrowdSet{testCrowdSet(f), {Ticks: 7}} {
		var buf bytes.Buffer
		if err := EncodeCrowdSet(&buf, set); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := DecodeCrowdSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeCrowdSet(&buf, set); err != nil {
			t.Fatalf("accepted set does not encode: %v", err)
		}
		again, err := DecodeCrowdSet(&buf)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v", err)
		}
		if again.Ticks != set.Ticks || len(again.Entries) != len(set.Entries) {
			t.Fatalf("round trip changed the set: %d ticks/%d entries, want %d/%d",
				again.Ticks, len(again.Entries), set.Ticks, len(set.Entries))
		}
		for i, en := range again.Entries {
			if en.Crowd.Start != set.Entries[i].Crowd.Start || en.Crowd.Lifetime() != set.Entries[i].Crowd.Lifetime() ||
				len(en.Gatherings) != len(set.Entries[i].Gatherings) {
				t.Fatalf("round trip changed entry %d", i)
			}
		}
	})
}
