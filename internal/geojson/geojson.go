// Package geojson serialises discovery results — crowds and gatherings —
// as GeoJSON FeatureCollections so they can be dropped onto any web map
// for inspection. Coordinates are emitted verbatim (the library works in
// planar metres); callers with geodetic data can pass a Projector to
// convert on the way out.
package geojson

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
)

// Projector converts planar library coordinates to output coordinates
// (typically lon/lat). The identity projection is used when nil.
type Projector func(geo.Point) [2]float64

func identity(p geo.Point) [2]float64 { return [2]float64{p.X, p.Y} }

// Feature is one GeoJSON feature.
type Feature struct {
	Type       string         `json:"type"`
	Geometry   geometry       `json:"geometry"`
	Properties map[string]any `json:"properties"`
}

type geometry struct {
	Type        string `json:"type"`
	Coordinates any    `json:"coordinates"`
}

// FeatureCollection is a GeoJSON feature collection.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// NewFeatureCollection returns an empty collection ready for appends.
// Features starts non-nil so an empty collection serialises with the
// "features": [] array RFC 7946 requires, not null.
func NewFeatureCollection() *FeatureCollection {
	return &FeatureCollection{Type: "FeatureCollection", Features: []Feature{}}
}

// Write renders the collection as JSON.
func (fc *FeatureCollection) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(fc)
}

// AddCrowd appends a crowd as a LineString connecting the centroids of its
// snapshot clusters (the crowd's drift over time), with per-tick sizes in
// the properties.
func (fc *FeatureCollection) AddCrowd(cr *crowd.Crowd, proj Projector) {
	if proj == nil {
		proj = identity
	}
	cls := cr.Clusters()
	coords := make([][2]float64, len(cls))
	sizes := make([]int, len(cls))
	for i, c := range cls {
		coords[i] = proj(c.MBR().Center())
		sizes[i] = c.Len()
	}
	fc.Features = append(fc.Features, Feature{
		Type:     "Feature",
		Geometry: geometry{Type: "LineString", Coordinates: coords},
		Properties: map[string]any{
			"kind":      "crowd",
			"startTick": int(cr.Start),
			"endTick":   int(cr.End()),
			"lifetime":  cr.Lifetime(),
			"sizes":     sizes,
		},
	})
}

// AddGathering appends a gathering as a Polygon feature: the union MBR of
// its clusters, with the participator list and time window as properties.
func (fc *FeatureCollection) AddGathering(g *gathering.Gathering, proj Projector) {
	if proj == nil {
		proj = identity
	}
	box := geo.EmptyRect()
	for _, c := range g.Crowd.Clusters() {
		box = box.Union(c.MBR())
	}
	ring := [][2]float64{
		proj(geo.Point{X: box.MinX, Y: box.MinY}),
		proj(geo.Point{X: box.MaxX, Y: box.MinY}),
		proj(geo.Point{X: box.MaxX, Y: box.MaxY}),
		proj(geo.Point{X: box.MinX, Y: box.MaxY}),
		proj(geo.Point{X: box.MinX, Y: box.MinY}),
	}
	pars := make([]int, len(g.Participators))
	for i, id := range g.Participators {
		pars[i] = int(id)
	}
	fc.Features = append(fc.Features, Feature{
		Type:     "Feature",
		Geometry: geometry{Type: "Polygon", Coordinates: [][][2]float64{ring}},
		Properties: map[string]any{
			"kind":          "gathering",
			"startTick":     int(g.Crowd.Start),
			"endTick":       int(g.Crowd.End()),
			"lifetime":      g.Lifetime(),
			"participators": pars,
		},
	})
}

// Export writes all crowds and gatherings of a discovery result as one
// feature collection.
func Export(w io.Writer, crowds []*crowd.Crowd, gatherings [][]*gathering.Gathering, proj Projector) error {
	if len(gatherings) != 0 && len(gatherings) != len(crowds) {
		return fmt.Errorf("geojson: %d gathering groups for %d crowds", len(gatherings), len(crowds))
	}
	fc := NewFeatureCollection()
	for i, cr := range crowds {
		fc.AddCrowd(cr, proj)
		if i < len(gatherings) {
			for _, g := range gatherings[i] {
				fc.AddGathering(g, proj)
			}
		}
	}
	return fc.Write(w)
}
