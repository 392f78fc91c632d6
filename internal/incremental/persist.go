package incremental

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// The incremental state is what makes gathering discovery a maintainable
// database service rather than a one-shot job, so it must survive process
// restarts. Save/Load write a Store as one self-checking section in an
// explicit, versioned layout (version 3):
//
//	header:   magic "GSTO" | version byte
//	params:   varint MC, KC | float64 Delta | varint KC, KP, MP
//	domain:   float64 Start, Step | uvarint N
//	clusters: uvarint ticks | per tick: uvarint clusters | per cluster:
//	          varint T | uvarint objects | varint first ID | uvarint ID
//	          delta per further object | uvarint points | float64 x, y
//	          per point, or, for a point-free cluster (0 points), its MBR
//	          as float64 MinX, MinY, MaxX, MaxY
//	crowds:   interior, then tail: uvarint crowds | per crowd:
//	          varint start | uvarint clusters | varint index per tick
//	gathers:  interior, then tail: uvarint lists | per list: uvarint
//	          gatherings+1, 0 for none | per gathering: varint lo, hi |
//	          uvarint participators | varint first | uvarint deltas
//	trailer:  uint32 crc32 (IEEE) of every byte before it
//
// Fixed-width fields are little-endian; varints are encoding/binary's.
// Snapshot clusters are written once, listed under their tick, and a
// crowd names the cluster it holds at each of its ticks by its index in
// that tick's list, so shared clusters stay shared after a round trip.
// Summaries of one fed cluster (one T and Objects array) are one entry,
// even when different Appends made them. Each tick lists only the
// clusters some saved crowd references. The clusters of interior crowds
// are summaries (snapshot.NewSummary), so they are written point-free;
// a tail candidate's clusters keep their points, which the next
// Append's Hausdorff tests read. A tail candidate with no cached
// gatherings has the list "none", told apart from an empty list, so a
// loaded store runs the next Append down the same path as the store that
// was saved.
//
// Version 2 is the same layout without point-free clusters: every
// cluster carries its points. Load still reads it, and summarises its
// interior crowds' clusters as Append would have, so both versions load
// to the same shape. Load refuses, with an error, a section of any other
// version (version 1 was a gob stream and is not read), a checksum
// mismatch, and any table or reference the store could not have written.

const (
	storeMagic     = "GSTO"
	persistVersion = 3
	// oldestVersion is the oldest store section Load reads.
	oldestVersion = 2
)

// clusterDTO is one saved cluster: Points, or for a point-free cluster of
// version 3 or later, MBR.
type clusterDTO struct {
	T       trajectory.Tick
	Objects []trajectory.ObjectID
	Points  []geo.Point
	MBR     geo.Rect
}

// pointFree reports whether c, read from a section of the given version,
// is a summary rather than a cluster with points.
func (c *clusterDTO) pointFree(version int) bool {
	return version >= 3 && len(c.Points) == 0
}

// crowdDTO is one saved crowd: its cluster at tick Start+i is entry
// Index[i] of that tick's list.
type crowdDTO struct {
	Start trajectory.Tick
	Index []int
}

type gatherDTO struct {
	Lo, Hi        int
	Participators []trajectory.ObjectID
}

// storeDTO is a decoded section, before Load validates it.
type storeDTO struct {
	Version      int
	CrowdParams  crowd.Params
	GatherParams gathering.Params
	Domain       trajectory.TimeDomain
	Ticks        [][]clusterDTO
	Interior     []crowdDTO
	InteriorGs   [][]gatherDTO
	Tail         []crowdDTO
	TailGs       [][]gatherDTO // parallel to Tail; nil for candidates with no cached gatherings
}

// Save serialises the store and writes it to w in a single Write. Its
// cluster table has one entry per tick of the domain, built from the
// crowds it writes: the i-th cluster of a crowd is listed under tick
// Start+i. The searcher factory is not serialised; Load takes a fresh one.
func (s *Store) Save(w io.Writer) error {
	dto := storeDTO{
		Version:      persistVersion,
		CrowdParams:  s.crowdParams,
		GatherParams: s.gatherParams,
		Domain:       s.domain,
		Ticks:        make([][]clusterDTO, s.domain.N),
	}
	indexOf := make(map[entryKey]int)
	size := 64 // the section's length, estimated to size its buffer once
	encodeCrowd := func(cr *crowd.Crowd) (crowdDTO, error) {
		cls := cr.Clusters()
		d := crowdDTO{Start: cr.Start, Index: make([]int, len(cls))}
		for i, c := range cls {
			key := keyOfEntry(c)
			idx, ok := indexOf[key]
			if !ok {
				t := int(cr.Start) + i
				if t < 0 || t >= len(dto.Ticks) {
					return d, fmt.Errorf("incremental: crowd %v outside the %d-tick domain", cr, len(dto.Ticks))
				}
				idx = len(dto.Ticks[t])
				dto.Ticks[t] = append(dto.Ticks[t], clusterDTO{T: c.T, Objects: c.Objects, Points: c.Points, MBR: c.MBR()})
				indexOf[key] = idx
				size += 48 + 2*len(c.Objects) + 16*len(c.Points)
			}
			d.Index[i] = idx
		}
		size += 4 + 2*len(cls)
		return d, nil
	}
	encodeGathers := func(gs []*gathering.Gathering) []gatherDTO {
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
		var gs []gatherDTO
		if old, ok := s.tailGathers[cr]; ok {
			gs = encodeGathers(old)
		}
		dto.TailGs = append(dto.TailGs, gs)
	}
	_, err := w.Write(appendStore(make([]byte, 0, size), &dto))
	return err
}

// entryKey names a cluster table entry. A point-free summary is named by
// its tick and Objects array: the store summarises a fed cluster once per
// Append, so crowds that closed in different Appends can hold distinct
// summaries of one fed cluster, and Save writes it once (Load then gives
// them one cluster). Any other cluster is named by its pointer.
type entryKey struct {
	c     *snapshot.Cluster
	t     trajectory.Tick
	first *trajectory.ObjectID
}

func keyOfEntry(c *snapshot.Cluster) entryKey {
	if c.Points == nil && len(c.Objects) > 0 {
		return entryKey{t: c.T, first: &c.Objects[0]}
	}
	return entryKey{c: c}
}

// appendStore appends the section encoding d to b.
func appendStore(b []byte, d *storeDTO) []byte {
	start := len(b)
	b = append(b, storeMagic...)
	b = append(b, byte(d.Version))
	b = binary.AppendVarint(b, int64(d.CrowdParams.MC))
	b = binary.AppendVarint(b, int64(d.CrowdParams.KC))
	b = appendFloat(b, d.CrowdParams.Delta)
	b = binary.AppendVarint(b, int64(d.GatherParams.KC))
	b = binary.AppendVarint(b, int64(d.GatherParams.KP))
	b = binary.AppendVarint(b, int64(d.GatherParams.MP))
	b = appendFloat(b, d.Domain.Start)
	b = appendFloat(b, d.Domain.Step)
	b = binary.AppendUvarint(b, uint64(d.Domain.N))

	b = binary.AppendUvarint(b, uint64(len(d.Ticks)))
	for _, cs := range d.Ticks {
		b = binary.AppendUvarint(b, uint64(len(cs)))
		for _, c := range cs {
			b = binary.AppendVarint(b, int64(c.T))
			b = appendIDs(b, c.Objects)
			b = binary.AppendUvarint(b, uint64(len(c.Points)))
			for _, p := range c.Points {
				b = appendFloat(b, p.X)
				b = appendFloat(b, p.Y)
			}
			if c.pointFree(d.Version) {
				b = appendFloat(b, c.MBR.MinX)
				b = appendFloat(b, c.MBR.MinY)
				b = appendFloat(b, c.MBR.MaxX)
				b = appendFloat(b, c.MBR.MaxY)
			}
		}
	}
	for _, crs := range [][]crowdDTO{d.Interior, d.Tail} {
		b = binary.AppendUvarint(b, uint64(len(crs)))
		for _, cr := range crs {
			b = binary.AppendVarint(b, int64(cr.Start))
			b = binary.AppendUvarint(b, uint64(len(cr.Index)))
			for _, idx := range cr.Index {
				b = binary.AppendVarint(b, int64(idx))
			}
		}
	}
	for _, lists := range [][][]gatherDTO{d.InteriorGs, d.TailGs} {
		b = binary.AppendUvarint(b, uint64(len(lists)))
		for _, gs := range lists {
			if gs == nil {
				b = binary.AppendUvarint(b, 0)
				continue
			}
			b = binary.AppendUvarint(b, uint64(len(gs))+1)
			for _, g := range gs {
				b = binary.AppendVarint(b, int64(g.Lo))
				b = binary.AppendVarint(b, int64(g.Hi))
				b = appendIDs(b, g.Participators)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// appendIDs writes an ID list as its length, the first ID and the gap to
// each next one. Gaps of a strictly ascending list are positive; Load
// refuses any other list.
func appendIDs(b []byte, ids []trajectory.ObjectID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for i, id := range ids {
		if i == 0 {
			b = binary.AppendVarint(b, int64(id))
		} else {
			b = binary.AppendUvarint(b, uint64(id-ids[i-1]))
		}
	}
	return b
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// decodeStore checks a section's magic, version and checksum and decodes
// its body. It checks only the framing; Load validates the content.
func decodeStore(data []byte) (*storeDTO, error) {
	if len(data) < len(storeMagic)+1+4 || string(data[:len(storeMagic)]) != storeMagic {
		return nil, fmt.Errorf("incremental: not a version-%d or version-%d store section (no %q magic); version-1 gob stores are not read",
			oldestVersion, persistVersion, storeMagic)
	}
	v := int(data[len(storeMagic)])
	if v < oldestVersion || v > persistVersion {
		return nil, fmt.Errorf("incremental: unsupported store version %d, this build reads versions %d and %d", v, oldestVersion, persistVersion)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("incremental: store section checksum mismatch")
	}
	r := reader{p: body[len(storeMagic)+1:]}
	d := &storeDTO{Version: v}
	d.CrowdParams = crowd.Params{MC: r.int(), KC: r.int(), Delta: r.float()}
	d.GatherParams = gathering.Params{KC: r.int(), KP: r.int(), MP: r.int()}
	d.Domain = trajectory.TimeDomain{Start: r.float(), Step: r.float(), N: r.count(0)}

	d.Ticks = make([][]clusterDTO, r.count(1))
	for t := range d.Ticks {
		d.Ticks[t] = make([]clusterDTO, r.count(1))
		for i := range d.Ticks[t] {
			c := &d.Ticks[t][i]
			c.T = trajectory.Tick(r.int())
			c.Objects = r.ids()
			c.Points = r.points()
			if c.pointFree(v) {
				c.MBR = geo.Rect{MinX: r.float(), MinY: r.float(), MaxX: r.float(), MaxY: r.float()}
			}
		}
	}
	for _, crs := range []*[]crowdDTO{&d.Interior, &d.Tail} {
		*crs = make([]crowdDTO, r.count(2))
		for i := range *crs {
			cr := &(*crs)[i]
			cr.Start = trajectory.Tick(r.int())
			cr.Index = make([]int, r.count(1))
			for k := range cr.Index {
				cr.Index[k] = r.int()
			}
		}
	}
	for _, lists := range []*[][]gatherDTO{&d.InteriorGs, &d.TailGs} {
		*lists = make([][]gatherDTO, r.count(1))
		for i := range *lists {
			n := r.count(0) // gatherings+1, or 0 for none
			if n == 0 {
				continue
			}
			if n-1 > len(r.p)/3 { // a gathering takes 3 bytes or more
				r.bad = true
				continue
			}
			gs := make([]gatherDTO, n-1)
			for k := range gs {
				gs[k] = gatherDTO{Lo: r.int(), Hi: r.int(), Participators: r.ids()}
			}
			(*lists)[i] = gs
		}
	}
	if r.bad || len(r.p) != 0 {
		return nil, fmt.Errorf("incremental: malformed store section: %d of %d bytes decoded",
			len(body)-len(r.p), len(body))
	}
	return d, nil
}

// reader is a bounds-checked cursor over a section body. After the first
// short or overlong field it stays bad and returns zeros.
type reader struct {
	p   []byte
	bad bool
}

func (r *reader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *reader) int() int {
	if r.bad {
		return 0
	}
	v, n := binary.Varint(r.p)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.p = r.p[n:]
	return int(v)
}

// count reads a length whose elements take at least size bytes each, so
// a corrupt length cannot drive an allocation larger than the section.
func (r *reader) count(size int) int {
	v := r.uvarint()
	if v > math.MaxInt32 || size > 0 && v > uint64(len(r.p)/size) {
		r.bad = true
		return 0
	}
	return int(v)
}

func (r *reader) float() float64 {
	if r.bad || len(r.p) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return math.Float64frombits(v)
}

// ids reads a list written by appendIDs. The gaps are added with
// wrap-around, so a list that was not ascending decodes as written and
// Load's order check refuses it.
func (r *reader) ids() []trajectory.ObjectID {
	ids := make([]trajectory.ObjectID, r.count(1))
	if len(ids) == 0 {
		return ids
	}
	ids[0] = trajectory.ObjectID(r.int())
	for i := 1; i < len(ids); i++ {
		var gap uint64
		if len(r.p) > 0 && r.p[0] < 0x80 { // one-byte gap, the common case
			gap, r.p = uint64(r.p[0]), r.p[1:]
		} else {
			gap = r.uvarint()
		}
		ids[i] = ids[i-1] + trajectory.ObjectID(gap)
	}
	return ids
}

// points reads a point count and that many raw x, y pairs.
func (r *reader) points() []geo.Point {
	pts := make([]geo.Point, r.count(16))
	if r.bad {
		return pts
	}
	raw := r.p[:16*len(pts)]
	for k := range pts {
		pts[k] = geo.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*k:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*k+8:])),
		}
	}
	r.p = r.p[len(raw):]
	return pts
}

// Load restores a store from a section written by Save, attaching a fresh
// searcher factory. Each cluster keeps the exactly-sized Objects and
// Points arrays it was decoded into, and is built only when a crowd
// references it, so clusters no crowd references are dropped with the
// decoded table. Interior crowds get summaries of their clusters, as
// Append gives them, and a tail crowd must hold points at every tick.
// Load keeps no reference to data.
func Load(data []byte, newSearcher func() crowd.Searcher) (*Store, error) {
	dto, err := decodeStore(data)
	if err != nil {
		return nil, err
	}
	if len(dto.InteriorGs) != len(dto.Interior) || len(dto.TailGs) != len(dto.Tail) {
		return nil, fmt.Errorf("incremental: %d/%d gathering lists for %d interior/%d tail crowds",
			len(dto.InteriorGs), len(dto.TailGs), len(dto.Interior), len(dto.Tail))
	}
	if len(dto.Ticks) != dto.Domain.N {
		return nil, fmt.Errorf("incremental: cluster table of %d ticks for a %d-tick domain", len(dto.Ticks), dto.Domain.N)
	}
	s, err := New(dto.CrowdParams, dto.GatherParams, newSearcher)
	if err != nil {
		return nil, err
	}
	s.domain = dto.Domain
	built := make([][]*snapshot.Cluster, len(dto.Ticks))
	for t, cs := range dto.Ticks {
		built[t] = make([]*snapshot.Cluster, len(cs))
		for i, c := range cs {
			pointFree := c.pointFree(dto.Version)
			if !pointFree && len(c.Objects) != len(c.Points) {
				return nil, fmt.Errorf("incremental: cluster %d at tick %d has %d objects but %d points",
					i, t, len(c.Objects), len(c.Points))
			}
			if len(c.Objects) == 0 {
				return nil, fmt.Errorf("incremental: cluster %d at tick %d has no objects", i, t)
			}
			if !strictlyAscending(c.Objects) {
				return nil, fmt.Errorf("incremental: cluster %d at tick %d has object IDs not strictly ascending", i, t)
			}
			if pointFree {
				m := c.MBR
				for _, f := range []float64{m.MinX, m.MinY, m.MaxX, m.MaxY} {
					if math.IsNaN(f) || math.IsInf(f, 0) {
						return nil, fmt.Errorf("incremental: point-free cluster %d at tick %d has a non-finite MBR %v", i, t, m)
					}
				}
				if m.MinX > m.MaxX || m.MinY > m.MaxY {
					return nil, fmt.Errorf("incremental: point-free cluster %d at tick %d has an inverted MBR %v", i, t, m)
				}
			}
		}
	}
	sums := summaries{}
	// decodeCrowd builds the crowd d names. An interior crowd holds the
	// summaries of its clusters; a tail crowd must hold their points.
	decodeCrowd := func(d crowdDTO, interior bool) (*crowd.Crowd, error) {
		if len(d.Index) == 0 {
			return nil, fmt.Errorf("incremental: crowd starting at tick %d has no clusters", d.Start)
		}
		cls := make([]*snapshot.Cluster, len(d.Index))
		for i, idx := range d.Index {
			t := int(d.Start) + i
			if t < 0 || t >= len(built) || idx < 0 || idx >= len(built[t]) {
				return nil, fmt.Errorf("incremental: dangling cluster ref (tick %d, index %d) at position %d of a crowd starting at tick %d",
					t, idx, i, d.Start)
			}
			c := built[t][idx]
			if c == nil {
				dc := &dto.Ticks[t][idx]
				if dc.pointFree(dto.Version) {
					c = snapshot.NewSummary(dc.T, dc.Objects, dc.MBR)
				} else {
					c = snapshot.NewCluster(dc.T, dc.Objects, dc.Points)
				}
				built[t][idx] = c
			}
			switch {
			case interior:
				c = sums.of(c)
			case c.Points == nil:
				return nil, fmt.Errorf("incremental: tail crowd starting at tick %d holds point-free cluster %d at tick %d",
					d.Start, idx, t)
			}
			cls[i] = c
		}
		return crowd.New(d.Start, cls), nil
	}
	decodeGathers := func(ds []gatherDTO, cr *crowd.Crowd) ([]*gathering.Gathering, error) {
		if len(ds) == 0 {
			return nil, nil
		}
		out := make([]*gathering.Gathering, len(ds))
		for i, d := range ds {
			if d.Lo < 0 || d.Hi > cr.Lifetime() || d.Lo >= d.Hi {
				return nil, fmt.Errorf("incremental: gathering range [%d,%d) outside crowd of %d clusters",
					d.Lo, d.Hi, cr.Lifetime())
			}
			if !strictlyAscending(d.Participators) {
				return nil, fmt.Errorf("incremental: gathering [%d,%d) has participators not strictly ascending", d.Lo, d.Hi)
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

	// Interior crowds end before the last tick and tail crowds at it: a
	// resumed sweep extends only the tail, and finds each tail crowd's
	// origin by its lifetime at the last tick.
	last := trajectory.Tick(dto.Domain.N - 1)
	for i, d := range dto.Interior {
		cr, err := decodeCrowd(d, true)
		if err != nil {
			return nil, err
		}
		if cr.End() >= last {
			return nil, fmt.Errorf("incremental: interior crowd at ticks %d–%d reaches the last tick %d",
				cr.Start, cr.End(), last)
		}
		gs, err := decodeGathers(dto.InteriorGs[i], cr)
		if err != nil {
			return nil, err
		}
		s.interior = append(s.interior, cr)
		s.interiorGathers = append(s.interiorGathers, gs)
	}
	for i, d := range dto.Tail {
		cr, err := decodeCrowd(d, false)
		if err != nil {
			return nil, err
		}
		if cr.End() != last {
			return nil, fmt.Errorf("incremental: tail crowd at ticks %d–%d does not end at the last tick %d",
				cr.Start, cr.End(), last)
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

func strictlyAscending(ids []trajectory.ObjectID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}
