package incremental

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// The incremental state is what makes gathering discovery a maintainable
// database service rather than a one-shot job, so it must survive process
// restarts. Save/Load serialise a Store with encoding/gob over plain DTOs:
// snapshot clusters are written once per tick and crowds reference them by
// (tick, index), so shared clusters stay shared after a round trip.

type clusterDTO struct {
	T       trajectory.Tick
	Objects []trajectory.ObjectID
	Points  []geo.Point
}

type clusterRef struct {
	Tick  int32
	Index int32
}

type crowdDTO struct {
	Start trajectory.Tick
	Refs  []clusterRef
}

type gatherDTO struct {
	Lo, Hi        int
	Participators []trajectory.ObjectID
}

type storeDTO struct {
	Version      int
	CrowdParams  crowd.Params
	GatherParams gathering.Params
	Domain       trajectory.TimeDomain
	Ticks        [][]clusterDTO
	Interior     []crowdDTO
	InteriorGs   [][]gatherDTO
	Tail         []crowdDTO
	TailGs       [][]gatherDTO // parallel to Tail; nil for non-closed candidates
}

const persistVersion = 1

// Save serialises the store. The searcher factory is not serialised;
// Load takes a fresh one.
func (s *Store) Save(w io.Writer) error {
	dto := storeDTO{
		Version:      persistVersion,
		CrowdParams:  s.crowdParams,
		GatherParams: s.gatherParams,
		Domain:       s.cdb.Domain,
		Ticks:        make([][]clusterDTO, len(s.cdb.Clusters)),
	}
	// index clusters for reference encoding
	refOf := make(map[*snapshot.Cluster]clusterRef)
	for t, cs := range s.cdb.Clusters {
		dto.Ticks[t] = make([]clusterDTO, len(cs))
		for i, c := range cs {
			dto.Ticks[t][i] = clusterDTO{T: c.T, Objects: c.Objects, Points: c.Points}
			refOf[c] = clusterRef{Tick: int32(t), Index: int32(i)}
		}
	}
	encodeCrowd := func(cr *crowd.Crowd) (crowdDTO, error) {
		cls := cr.Clusters()
		d := crowdDTO{Start: cr.Start, Refs: make([]clusterRef, len(cls))}
		for i, c := range cls {
			ref, ok := refOf[c]
			if !ok {
				return d, fmt.Errorf("incremental: crowd references unknown cluster %v", c)
			}
			d.Refs[i] = ref
		}
		return d, nil
	}
	encodeGathers := func(gs []*gathering.Gathering) []gatherDTO {
		if gs == nil {
			return nil
		}
		out := make([]gatherDTO, len(gs))
		for i, g := range gs {
			out[i] = gatherDTO{Lo: g.Lo, Hi: g.Hi, Participators: g.Participators}
		}
		return out
	}

	for i, cr := range s.interior {
		d, err := encodeCrowd(cr)
		if err != nil {
			return err
		}
		dto.Interior = append(dto.Interior, d)
		dto.InteriorGs = append(dto.InteriorGs, encodeGathers(s.interiorGathers[i]))
	}
	for _, cr := range s.tail {
		d, err := encodeCrowd(cr)
		if err != nil {
			return err
		}
		dto.Tail = append(dto.Tail, d)
		if gs, ok := s.tailGathers[cr]; ok {
			dto.TailGs = append(dto.TailGs, encodeGathers(gs))
		} else {
			dto.TailGs = append(dto.TailGs, nil)
		}
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// Load restores a store saved with Save, attaching a fresh searcher
// factory.
func Load(r io.Reader, newSearcher func() crowd.Searcher) (*Store, error) {
	var dto storeDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("incremental: decoding store: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("incremental: unsupported store version %d", dto.Version)
	}
	if len(dto.InteriorGs) != len(dto.Interior) || len(dto.TailGs) != len(dto.Tail) {
		return nil, fmt.Errorf("incremental: %d/%d gathering lists for %d interior/%d tail crowds",
			len(dto.InteriorGs), len(dto.TailGs), len(dto.Interior), len(dto.Tail))
	}
	s, err := New(dto.CrowdParams, dto.GatherParams, newSearcher)
	if err != nil {
		return nil, err
	}
	s.cdb = &snapshot.CDB{
		Domain:   dto.Domain,
		Clusters: make([][]*snapshot.Cluster, len(dto.Ticks)),
	}
	for t, cs := range dto.Ticks {
		s.cdb.Clusters[t] = make([]*snapshot.Cluster, len(cs))
		for i, c := range cs {
			if len(c.Objects) != len(c.Points) {
				return nil, fmt.Errorf("incremental: cluster %d at tick %d has %d objects but %d points",
					i, t, len(c.Objects), len(c.Points))
			}
			s.cdb.Clusters[t][i] = snapshot.NewCluster(c.T, c.Objects, c.Points)
		}
	}
	decodeCrowd := func(d crowdDTO) (*crowd.Crowd, error) {
		cls := make([]*snapshot.Cluster, len(d.Refs))
		for i, ref := range d.Refs {
			if ref.Tick < 0 || int(ref.Tick) >= len(s.cdb.Clusters) ||
				ref.Index < 0 || int(ref.Index) >= len(s.cdb.Clusters[ref.Tick]) {
				return nil, fmt.Errorf("incremental: dangling cluster ref %+v", ref)
			}
			cls[i] = s.cdb.Clusters[ref.Tick][ref.Index]
		}
		return crowd.New(d.Start, cls), nil
	}
	decodeGathers := func(ds []gatherDTO, cr *crowd.Crowd) ([]*gathering.Gathering, error) {
		if ds == nil {
			return nil, nil
		}
		out := make([]*gathering.Gathering, len(ds))
		for i, d := range ds {
			if d.Lo < 0 || d.Hi > cr.Lifetime() || d.Lo >= d.Hi {
				return nil, fmt.Errorf("incremental: gathering range [%d,%d) outside crowd of %d clusters",
					d.Lo, d.Hi, cr.Lifetime())
			}
			out[i] = &gathering.Gathering{
				Crowd:         cr.Sub(d.Lo, d.Hi),
				Lo:            d.Lo,
				Hi:            d.Hi,
				Participators: d.Participators,
			}
		}
		return out, nil
	}

	for i, d := range dto.Interior {
		cr, err := decodeCrowd(d)
		if err != nil {
			return nil, err
		}
		gs, err := decodeGathers(dto.InteriorGs[i], cr)
		if err != nil {
			return nil, err
		}
		s.interior = append(s.interior, cr)
		s.interiorGathers = append(s.interiorGathers, gs)
	}
	for i, d := range dto.Tail {
		cr, err := decodeCrowd(d)
		if err != nil {
			return nil, err
		}
		s.tail = append(s.tail, cr)
		if dto.TailGs[i] != nil {
			if s.tailGathers[cr], err = decodeGathers(dto.TailGs[i], cr); err != nil {
				return nil, err
			}
		}
	}
	// Detectors are not serialised: the next Append rebuilds one per
	// extended crowd from scratch, after which extension resumes.
	s.refreshCaches()
	return s, nil
}
