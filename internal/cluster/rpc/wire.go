package rpc

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"

	"repro/internal/crowd"
)

// The scatter-gather read path ships each node's full local crowd set to
// the coordinator, which merges before filtering (a canonical copy that a
// filter would drop still has to absorb its halo duplicates first). The
// wire format is encoding/gob over plain DTOs in the same shape as the
// incremental store's persistence: clusters are written once into a flat
// table and crowds reference them by index, so clusters shared between a
// crowd and its gatherings' sub-crowds stay shared after the round trip.

// CrowdEntry is one closed crowd with its gatherings, as answered by a
// node's local store.
type CrowdEntry struct {
	Crowd      *crowd.Crowd
	Gatherings []*gathering.Gathering
}

// CrowdSet is one node's local query answer.
type CrowdSet struct {
	// Ticks is how many ticks the node's engine has ingested — the
	// coordinator reports the minimum across nodes so a reader can see how
	// stale a partial answer is.
	Ticks int
	// Entries are the node's closed crowds with their gatherings.
	Entries []CrowdEntry
}

type wireCluster struct {
	T       trajectory.Tick
	Objects []trajectory.ObjectID
	Points  []geo.Point
}

type wireGather struct {
	Lo, Hi        int
	Participators []trajectory.ObjectID
}

type wireCrowd struct {
	Start   trajectory.Tick
	Refs    []int32
	Gathers []wireGather
}

type wireCrowdSet struct {
	Version  int
	Ticks    int
	Clusters []wireCluster
	Crowds   []wireCrowd
}

const wireVersion = 1

// EncodeCrowdSet writes the set to w in the gob wire format.
func EncodeCrowdSet(w io.Writer, set CrowdSet) error {
	dto := wireCrowdSet{Version: wireVersion, Ticks: set.Ticks}
	refOf := make(map[*snapshot.Cluster]int32)
	ref := func(c *snapshot.Cluster) int32 {
		if i, ok := refOf[c]; ok {
			return i
		}
		i := int32(len(dto.Clusters))
		refOf[c] = i
		dto.Clusters = append(dto.Clusters, wireCluster{T: c.T, Objects: c.Objects, Points: c.Points})
		return i
	}
	for _, en := range set.Entries {
		cls := en.Crowd.Clusters()
		wc := wireCrowd{Start: en.Crowd.Start, Refs: make([]int32, len(cls))}
		for i, c := range cls {
			wc.Refs[i] = ref(c)
		}
		for _, g := range en.Gatherings {
			wc.Gathers = append(wc.Gathers, wireGather{Lo: g.Lo, Hi: g.Hi, Participators: g.Participators})
		}
		dto.Crowds = append(dto.Crowds, wc)
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// DecodeCrowdSet reads a set written by EncodeCrowdSet, rebuilding
// detached crowd handles and their gatherings.
func DecodeCrowdSet(r io.Reader) (CrowdSet, error) {
	var dto wireCrowdSet
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return CrowdSet{}, fmt.Errorf("rpc: decoding crowd set: %w", err)
	}
	if dto.Version != wireVersion {
		return CrowdSet{}, fmt.Errorf("rpc: unsupported crowd-set version %d", dto.Version)
	}
	clusters := make([]*snapshot.Cluster, len(dto.Clusters))
	for i, c := range dto.Clusters {
		if len(c.Objects) != len(c.Points) {
			return CrowdSet{}, fmt.Errorf("rpc: cluster %d has %d objects but %d points", i, len(c.Objects), len(c.Points))
		}
		clusters[i] = snapshot.NewCluster(c.T, c.Objects, c.Points)
	}
	set := CrowdSet{Ticks: dto.Ticks}
	for _, wc := range dto.Crowds {
		cls := make([]*snapshot.Cluster, len(wc.Refs))
		for i, ref := range wc.Refs {
			if ref < 0 || int(ref) >= len(clusters) {
				return CrowdSet{}, fmt.Errorf("rpc: dangling cluster ref %d", ref)
			}
			cls[i] = clusters[ref]
		}
		cr := crowd.New(wc.Start, cls)
		en := CrowdEntry{Crowd: cr}
		for _, g := range wc.Gathers {
			if g.Lo < 0 || g.Hi > len(cls) || g.Lo >= g.Hi {
				return CrowdSet{}, fmt.Errorf("rpc: gathering range [%d,%d) outside crowd of %d clusters", g.Lo, g.Hi, len(cls))
			}
			en.Gatherings = append(en.Gatherings, &gathering.Gathering{
				Crowd:         cr.Sub(g.Lo, g.Hi),
				Lo:            g.Lo,
				Hi:            g.Hi,
				Participators: g.Participators,
			})
		}
		set.Entries = append(set.Entries, en)
	}
	return set, nil
}
