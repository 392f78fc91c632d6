package main

import (
	"testing"
	"time"
)

// seq returns 1..n as float64s, shuffled so summarize has to sort.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((i*7919)%n + 1)
	}
	return xs
}

func TestSummarizeTailRule(t *testing.T) {
	cases := []struct {
		n       int
		pct     int
		tail    float64
		beyond  int
		p50     float64
		comment string
	}{
		{n: 1000, pct: 99, tail: 990, beyond: 10, p50: 500, comment: "p99 has exactly 10 beyond"},
		{n: 5000, pct: 99, tail: 4950, beyond: 50, p50: 2500, comment: "p99 with room"},
		{n: 999, pct: 90, tail: 900, beyond: 99, p50: 500, comment: "p99 would have 9 beyond"},
		{n: 100, pct: 90, tail: 90, beyond: 10, p50: 50, comment: "p90 has exactly 10 beyond"},
		{n: 99, pct: 50, tail: 50, beyond: 49, p50: 50, comment: "p90 would have 9 beyond: median"},
		{n: 1, pct: 50, tail: 1, beyond: 0, p50: 1, comment: "one sample"},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailPct != c.pct || s.Tail != c.tail || s.Beyond != c.beyond || s.P50 != c.p50 {
			t.Errorf("%s: summarize(1..%d) = %+v, want p%d = %v with %d beyond, median %v",
				c.comment, c.n, s, c.pct, c.tail, c.beyond, c.p50)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Tail != 0 || s.P50 != 0 {
		t.Errorf("summarize(nil) = %+v, want zeros", s)
	}
}

func TestAccountingErrorRate(t *testing.T) {
	clean := accounting{Offers: 45, Queries: 55, InjectedDups: 5, AdmitDups: 5}
	if clean.attempted() != 100 || clean.failed() != 0 || clean.errorRate() != 0 {
		t.Fatalf("clean run: attempted %d failed %d rate %v, want 100 0 0", clean.attempted(), clean.failed(), clean.errorRate())
	}

	cases := []struct {
		name   string
		mutate func(a *accounting)
		failed int
	}{
		{"append error", func(a *accounting) { a.IngestErrors = 2 }, 2},
		{"export error", func(a *accounting) { a.QueryErrors = 1 }, 1},
		{"partial read", func(a *accounting) { a.QueryPartial = 3 }, 3},
		{"injected duplicate admitted", func(a *accounting) { a.AdmitDups = 4 }, 1},
		{"genuine batch dropped as duplicate", func(a *accounting) { a.AdmitDups = 7 }, 2},
		{"late beyond the watermark", func(a *accounting) { a.AdmitLate = 1 }, 1},
		{"slot abandoned", func(a *accounting) { a.AdmitDropped = 1 }, 1},
		{"forward dropped", func(a *accounting) { a.ForwardsLost = 2 }, 2},
		{"recovery diverged", func(a *accounting) { a.RecoveryFails = 1 }, 1},
	}
	for _, c := range cases {
		a := clean
		c.mutate(&a)
		if a.failed() != c.failed {
			t.Errorf("%s: failed = %d, want %d", c.name, a.failed(), c.failed)
		}
		if want := float64(c.failed) / 100; a.errorRate() != want {
			t.Errorf("%s: error rate = %v, want %v", c.name, a.errorRate(), want)
		}
	}

	var sum accounting
	sum.add(clean)
	sum.add(accounting{Offers: 10, IngestErrors: 1})
	if sum.attempted() != 110 || sum.failed() != 1 {
		t.Errorf("summed: attempted %d failed %d, want 110 1", sum.attempted(), sum.failed())
	}
	if (accounting{}).errorRate() != 0 {
		t.Error("error rate of nothing attempted should be 0")
	}
}

func TestSelfTimes(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer(epoch, "batch")
	id := traceID(3, kindBatch, 7)
	tr.add("batch", id, at(0), at(100))
	tr.add("engine.append", id, at(10), at(40))
	tr.add("recovery.log", id, at(30), at(50)) // overlaps append by 10 ms
	tr.add("engine.apply_wait", id, at(90), at(120))
	tr.add("engine.append", traceID(3, kindBatch, 8), at(0), at(5)) // another trace, no root
	tr.link()

	self := selfTimes(tr.spans)
	// Children cover [10,50) and [90,100) of the root: 50 ms.
	if got := self["batch"]; len(got) != 1 || got[0] != 50 {
		t.Errorf("batch self = %v, want [50]", got)
	}
	if got := self["engine.append"]; len(got) != 2 || got[0] != 30 || got[1] != 5 {
		t.Errorf("engine.append self = %v, want [30 5]", got)
	}
	if tr.spans[1].Parent != 0 || tr.spans[4].Parent != -1 {
		t.Errorf("parents = %d, %d; want 0 (root of its trace) and -1 (no root)", tr.spans[1].Parent, tr.spans[4].Parent)
	}
	if traceID(1, kindQuery, 5) == traceID(2, kindQuery, 5) || traceID(1, kindBatch, 5) == traceID(1, kindQuery, 5) {
		t.Error("trace ids collide across rounds or kinds")
	}
}
