package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a tail percentile must have beyond
// it before the benchmark reports it: a p99 over 200 samples is two
// samples, which is noise, not a tail.
const minBeyond = 10

// summary is one latency distribution reduced to its median and the
// highest reportable tail percentile.
type summary struct {
	N       int     // samples
	P50     float64 // median (nearest rank)
	Tail    float64 // value at TailPct
	TailPct int     // 99 or 90; 50 when even p90 has too few samples beyond it
	Beyond  int     // samples strictly above the tail rank
}

// rank returns the nearest-rank position (1-based) of percentile p in n
// sorted samples, and how many samples lie beyond it.
func rank(n int, p float64) (r, beyond int) {
	r = int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r, n - r
}

// summarize computes the median and the tail by the benchmark's rule: the
// highest of p99 or p90 that has at least minBeyond samples beyond it.
// With fewer than that beyond p90 the tail falls back to the median and
// says so through TailPct. The input is sorted in place.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	r, _ := rank(len(xs), 50)
	s.P50 = xs[r-1]
	s.TailPct = 50
	s.Tail, s.Beyond = s.P50, len(xs)-r
	for _, p := range []int{99, 90} {
		if r, beyond := rank(len(xs), float64(p)); beyond >= minBeyond {
			s.Tail, s.TailPct, s.Beyond = xs[r-1], p, beyond
			break
		}
	}
	return s
}

// median returns the nearest-rank median of xs (sorting it in place), or
// zero for no samples.
func median(xs []float64) float64 { return summarize(xs).P50 }

// mean returns the arithmetic mean of xs, or zero for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// accounting tallies the operations a run attempted and the ones that
// failed; error_rate is failed over attempted.
//
// Attempted operations are feed deliveries (offers, injected duplicates
// included) and queries. Failures are appends, WAL logs or checkpoints
// that return an error; queries that fail or come back partial; and
// admission losses the feed did not inject — any late or dropped slot
// (the feeds inject neither), and any difference between the duplicates
// the admitter classified and the duplicates the feed injected.
type accounting struct {
	Offers, Queries int

	IngestErrors  int // Log/Append/Applied returned an error
	QueryErrors   int // export failed
	QueryPartial  int // scatter-gather answer missing a peer
	InjectedDups  int // duplicate deliveries the feed made on purpose
	AdmitDups     int // deliveries the admitter dropped as duplicates
	AdmitLate     int // deliveries the admitter dropped as late
	AdmitDropped  int // slots the admitter abandoned
	ForwardsLost  int // cluster sub-batches dropped after their retry deadline
	RecoveryFails int // crash recovery failed or restored a different state
}

func (a *accounting) add(b accounting) {
	a.Offers += b.Offers
	a.Queries += b.Queries
	a.IngestErrors += b.IngestErrors
	a.QueryErrors += b.QueryErrors
	a.QueryPartial += b.QueryPartial
	a.InjectedDups += b.InjectedDups
	a.AdmitDups += b.AdmitDups
	a.AdmitLate += b.AdmitLate
	a.AdmitDropped += b.AdmitDropped
	a.ForwardsLost += b.ForwardsLost
	a.RecoveryFails += b.RecoveryFails
}

func (a accounting) attempted() int { return a.Offers + a.Queries }

func (a accounting) failed() int {
	dup := a.AdmitDups - a.InjectedDups
	if dup < 0 {
		dup = -dup
	}
	return a.IngestErrors + a.QueryErrors + a.QueryPartial +
		a.AdmitLate + a.AdmitDropped + dup + a.ForwardsLost + a.RecoveryFails
}

func (a accounting) errorRate() float64 {
	if a.attempted() == 0 {
		return 0
	}
	return float64(a.failed()) / float64(a.attempted())
}
