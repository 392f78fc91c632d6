package rpc

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed lets requests through (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen fails requests fast; the peer is presumed down.
	BreakerOpen
	// BreakerHalfOpen lets one probe through to test recovery.
	BreakerHalfOpen
)

// String renders the state for /stats and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Breaker is a per-peer circuit breaker: after Threshold consecutive
// failures it opens and fails requests fast (a dead peer must not pin
// every forward on its timeout); after Cooldown it lets a single
// half-open probe through, closing again on success and re-opening on
// failure. Callers pair every Allow()==true with exactly one Report.
// mu guards state, fails and openedAt.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests
	counters  *stats.ClusterCounters

	mu sync.Mutex

	state    BreakerState
	fails    int
	openedAt time.Time
}

// NewBreaker returns a closed breaker. Non-positive threshold/cooldown
// default to 5 consecutive failures and 3s. A nil counters counts into a
// private sink.
func NewBreaker(threshold int, cooldown time.Duration, counters *stats.ClusterCounters) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 3 * time.Second
	}
	if counters == nil {
		counters = &stats.ClusterCounters{}
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now, counters: counters}
}

// Allow reports whether a request may proceed. In the open state it
// answers false until the cooldown elapses, then admits one half-open
// probe; while that probe is outstanding further requests are refused.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.counters.BreakerProbes.Add(1)
		return true
	default: // half-open: one probe in flight
		return false
	}
}

// Report records the outcome of an allowed request. A success closes the
// breaker and clears the failure run; a failure opens it when the run
// reaches the threshold (or immediately when it was a half-open probe).
func (b *Breaker) Report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		if b.state != BreakerClosed {
			b.counters.BreakerCloses.Add(1)
		}
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= b.threshold) {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.counters.BreakerOpens.Add(1)
	}
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
