// Package geojson serialises discovery results — crowds and gatherings —
// as GeoJSON FeatureCollections so they can be dropped onto any web map
// for inspection. Coordinates are emitted verbatim (the library works in
// planar metres); callers with geodetic data can pass a Projector to
// convert on the way out.
//
// The encoder is hand-written: it appends the whole collection to one
// byte slice and writes it once. Its output is byte-identical to the
// encoding/json rendering of the struct-and-map form this package used to
// build (same key order, same number formatting, same trailing newline);
// the package tests keep that form as the reference and compare the two
// on generated days and under fuzzing.
package geojson

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
)

// Projector converts planar library coordinates to output coordinates
// (typically lon/lat). The identity projection is used when nil.
type Projector func(geo.Point) [2]float64

func identity(p geo.Point) [2]float64 { return [2]float64{p.X, p.Y} }

// Export writes all crowds and gatherings of a discovery result as one
// feature collection: each crowd as a LineString through the centroids of
// its snapshot clusters with per-tick sizes, followed by its gatherings,
// each a closed Polygon over the union MBR of its clusters with the
// participator list. A NaN or infinite coordinate is an error, and
// nothing is written then.
func Export(w io.Writer, crowds []*crowd.Crowd, gatherings [][]*gathering.Gathering, proj Projector) error {
	if len(gatherings) != 0 && len(gatherings) != len(crowds) {
		return fmt.Errorf("geojson: %d gathering groups for %d crowds", len(gatherings), len(crowds))
	}
	if proj == nil {
		proj = identity
	}
	e := encoder{proj: proj, buf: make([]byte, 0, sizeHint(crowds, gatherings))}
	e.buf = append(e.buf, `{"type":"FeatureCollection","features":[`...)
	for i, cr := range crowds {
		e.crowd(cr)
		if i < len(gatherings) {
			for _, g := range gatherings[i] {
				e.gathering(g)
			}
		}
	}
	if e.err != nil {
		return e.err
	}
	e.buf = append(e.buf, "]}\n"...)
	_, err := w.Write(e.buf)
	return err
}

// sizeHint over-estimates the encoded size so the buffer rarely grows:
// 56 bytes per crowd tick (a coordinate pair and a size), 448 per
// gathering (a five-vertex ring and its properties), 8 per participator.
func sizeHint(crowds []*crowd.Crowd, gatherings [][]*gathering.Gathering) int {
	n := 64
	for _, cr := range crowds {
		n += 128 + 56*cr.Lifetime()
	}
	for _, gs := range gatherings {
		for _, g := range gs {
			n += 448 + 8*len(g.Participators)
		}
	}
	return n
}

// encoder appends features to buf; err holds the first non-finite
// coordinate met, after which the output is discarded.
type encoder struct {
	buf      []byte
	proj     Projector
	features int
	err      error
}

// open starts a feature whose geometry has the given GeoJSON type, up to
// its coordinates.
func (e *encoder) open(geomType string) {
	if e.features > 0 {
		e.buf = append(e.buf, ',')
	}
	e.features++
	e.buf = append(e.buf, `{"type":"Feature","geometry":{"type":"`...)
	e.buf = append(e.buf, geomType...)
	e.buf = append(e.buf, `","coordinates":`...)
}

// crowd appends a crowd as a LineString connecting the centroids of its
// snapshot clusters (the crowd's drift over time), with per-tick sizes in
// the properties.
func (e *encoder) crowd(cr *crowd.Crowd) {
	cls := cr.Clusters()
	e.open("LineString")
	e.buf = append(e.buf, '[')
	for i, c := range cls {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.point(c.MBR().Center())
	}
	e.buf = append(e.buf, `]},"properties":{"endTick":`...)
	e.buf = strconv.AppendInt(e.buf, int64(cr.End()), 10)
	e.buf = append(e.buf, `,"kind":"crowd","lifetime":`...)
	e.buf = strconv.AppendInt(e.buf, int64(cr.Lifetime()), 10)
	e.buf = append(e.buf, `,"sizes":[`...)
	for i, c := range cls {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = strconv.AppendInt(e.buf, int64(c.Len()), 10)
	}
	e.buf = append(e.buf, `],"startTick":`...)
	e.buf = strconv.AppendInt(e.buf, int64(cr.Start), 10)
	e.buf = append(e.buf, "}}"...)
}

// gathering appends a gathering as a Polygon feature: the union MBR of
// its clusters, with the participator list and time window as properties.
func (e *encoder) gathering(g *gathering.Gathering) {
	box := geo.EmptyRect()
	for _, c := range g.Crowd.Clusters() {
		box = box.Union(c.MBR())
	}
	e.open("Polygon")
	e.buf = append(e.buf, "[["...)
	e.point(geo.Point{X: box.MinX, Y: box.MinY})
	e.buf = append(e.buf, ',')
	e.point(geo.Point{X: box.MaxX, Y: box.MinY})
	e.buf = append(e.buf, ',')
	e.point(geo.Point{X: box.MaxX, Y: box.MaxY})
	e.buf = append(e.buf, ',')
	e.point(geo.Point{X: box.MinX, Y: box.MaxY})
	e.buf = append(e.buf, ',')
	e.point(geo.Point{X: box.MinX, Y: box.MinY})
	e.buf = append(e.buf, `]]},"properties":{"endTick":`...)
	e.buf = strconv.AppendInt(e.buf, int64(g.Crowd.End()), 10)
	e.buf = append(e.buf, `,"kind":"gathering","lifetime":`...)
	e.buf = strconv.AppendInt(e.buf, int64(g.Lifetime()), 10)
	e.buf = append(e.buf, `,"participators":[`...)
	for i, id := range g.Participators {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = strconv.AppendInt(e.buf, int64(id), 10)
	}
	e.buf = append(e.buf, `],"startTick":`...)
	e.buf = strconv.AppendInt(e.buf, int64(g.Crowd.Start), 10)
	e.buf = append(e.buf, "}}"...)
}

// point appends one projected position as [x,y].
func (e *encoder) point(p geo.Point) {
	xy := e.proj(p)
	e.buf = append(e.buf, '[')
	e.float(xy[0])
	e.buf = append(e.buf, ',')
	e.float(xy[1])
	e.buf = append(e.buf, ']')
}

// float appends f as encoding/json formats a float64: the shortest
// representation that round-trips, in 'f' form, or in 'e' form with a
// one-digit negative exponent left unpadded when |f| < 1e-6 or
// |f| ≥ 1e21. JSON has no NaN or infinity; those record an error.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("geojson: unsupported coordinate %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.buf = b
}
