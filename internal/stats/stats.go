// Package stats computes summary statistics over discovery results: crowd
// and gathering durations, cluster sizes, participator counts and
// commitment ratios. The gatherfind CLI prints these with -stats. It also
// provides the live ingest/query counters (EngineCounters) that the
// streaming engine and the gatherserve CLI report.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/trajectory"
)

// Summary describes one numeric sample set.
type Summary struct {
	N              int
	Min, Max, Mean float64
	P50, P90       float64
}

// Summarize computes a Summary of vs. The zero Summary is returned for an
// empty input.
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(vs), Min: math.Inf(1), Max: math.Inf(-1)}
	total := 0.0
	for _, v := range vs {
		total += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = total / float64(len(vs))
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.5)
	s.P90 = quantile(sorted, 0.9)
	return s
}

// quantile returns the q-quantile of a sorted sample using the
// nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// String renders the summary compactly.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%.1f p50=%.1f mean=%.1f p90=%.1f max=%.1f",
		s.N, s.Min, s.P50, s.Mean, s.P90, s.Max)
}

// Report aggregates a discovery result.
type Report struct {
	Crowds          int
	Gatherings      int
	CrowdLifetime   Summary // ticks
	GatherLifetime  Summary // ticks
	ClusterSize     Summary // objects per snapshot cluster (over crowds)
	Participators   Summary // per gathering
	CommitmentRatio Summary // participators / mean cluster size, per gathering
}

// Build computes a Report from crowds and their per-crowd gatherings.
func Build(crowds []*crowd.Crowd, gatherings [][]*gathering.Gathering) Report {
	var rep Report
	rep.Crowds = len(crowds)

	var crowdLife, clusterSize []float64
	for _, cr := range crowds {
		crowdLife = append(crowdLife, float64(cr.Lifetime()))
		for _, c := range cr.Clusters() {
			clusterSize = append(clusterSize, float64(c.Len()))
		}
	}
	var gatherLife, pars, ratio []float64
	for _, gs := range gatherings {
		for _, g := range gs {
			rep.Gatherings++
			gatherLife = append(gatherLife, float64(g.Lifetime()))
			pars = append(pars, float64(len(g.Participators)))
			mean := 0.0
			for _, c := range g.Crowd.Clusters() {
				mean += float64(c.Len())
			}
			if g.Crowd.Lifetime() > 0 {
				mean /= float64(g.Crowd.Lifetime())
			}
			if mean > 0 {
				ratio = append(ratio, float64(len(g.Participators))/mean)
			}
		}
	}
	rep.CrowdLifetime = Summarize(crowdLife)
	rep.GatherLifetime = Summarize(gatherLife)
	rep.ClusterSize = Summarize(clusterSize)
	rep.Participators = Summarize(pars)
	rep.CommitmentRatio = Summarize(ratio)
	return rep
}

// Fprint renders the report as an aligned block.
func (r Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "closed crowds:      %d\n", r.Crowds)
	fmt.Fprintf(w, "closed gatherings:  %d\n", r.Gatherings)
	fmt.Fprintf(w, "crowd lifetime:     %s\n", r.CrowdLifetime)
	fmt.Fprintf(w, "gathering lifetime: %s\n", r.GatherLifetime)
	fmt.Fprintf(w, "cluster size:       %s\n", r.ClusterSize)
	fmt.Fprintf(w, "participators:      %s\n", r.Participators)
	fmt.Fprintf(w, "commitment ratio:   %s\n", r.CommitmentRatio)
}

// ObjectParticipation counts, per object, in how many gatherings it is a
// participator — a simple "who keeps getting stuck in jams" signal.
func ObjectParticipation(gatherings [][]*gathering.Gathering) map[trajectory.ObjectID]int {
	out := map[trajectory.ObjectID]int{}
	for _, gs := range gatherings {
		for _, g := range gs {
			for _, id := range g.Participators {
				out[id]++
			}
		}
	}
	return out
}

// TopParticipants returns the k most frequent participators, ties broken
// by smaller ID.
func TopParticipants(gatherings [][]*gathering.Gathering, k int) []trajectory.ObjectID {
	counts := ObjectParticipation(gatherings)
	ids := make([]trajectory.ObjectID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}
