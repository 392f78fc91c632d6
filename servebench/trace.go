package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span kinds, folded into the top bits of a trace id so batch, query and
// handler traces of one round never collide.
const (
	kindBatch   = 1
	kindQuery   = 2
	kindHandler = 3
)

// traceID builds a trace identifier from the round, the kind of work and
// its id (batch sequence, query number, handler call number).
func traceID(round, kind int, id uint64) uint64 {
	return uint64(round)<<48 | uint64(kind)<<40 | id&(1<<40-1)
}

// span is one timed call into a layer. The root span of a trace (a batch
// from offer to visible, a query from start to export) has Parent -1;
// every other span of the trace points at it.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write dumps them. A nil tracer
// records nothing, so untraced rounds pay one branch per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	roots map[string]bool // span names that root their trace
}

func newTracer(epoch time.Time, roots ...string) *tracer {
	t := &tracer{epoch: epoch, roots: map[string]bool{}}
	for _, r := range roots {
		t.roots[r] = true
	}
	return t
}

// add records one span. Safe for concurrent use.
func (t *tracer) add(name string, trace uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Trace: trace, Parent: -1,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// link points every non-root span at its trace's root span.
func (t *tracer) link() {
	root := map[uint64]int{}
	for i, s := range t.spans {
		if t.roots[s.Name] {
			root[s.Trace] = i
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if r, ok := root[s.Trace]; ok && r != i {
			s.Parent = r
		}
	}
}

// selfTimes returns, per span name, every occurrence's self time in
// milliseconds: its duration minus the part of its interval covered by
// its child spans. Call link first.
func selfTimes(spans []span) map[string][]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[i])
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// durations returns every occurrence's duration in milliseconds, per
// span name.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
