package geojson

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// ---- reference encoder -------------------------------------------------------

// The reference is the struct-and-map form Export used to build and hand
// to encoding/json. Export must reproduce its bytes exactly.

type refFeature struct {
	Type       string         `json:"type"`
	Geometry   refGeometry    `json:"geometry"`
	Properties map[string]any `json:"properties"`
}

type refGeometry struct {
	Type        string `json:"type"`
	Coordinates any    `json:"coordinates"`
}

type refCollection struct {
	Type     string       `json:"type"`
	Features []refFeature `json:"features"`
}

func refCrowd(cr *crowd.Crowd, proj Projector) refFeature {
	cls := cr.Clusters()
	coords := make([][2]float64, len(cls))
	sizes := make([]int, len(cls))
	for i, c := range cls {
		coords[i] = proj(c.MBR().Center())
		sizes[i] = c.Len()
	}
	return refFeature{
		Type:     "Feature",
		Geometry: refGeometry{Type: "LineString", Coordinates: coords},
		Properties: map[string]any{
			"kind":      "crowd",
			"startTick": int(cr.Start),
			"endTick":   int(cr.End()),
			"lifetime":  cr.Lifetime(),
			"sizes":     sizes,
		},
	}
}

func refGathering(g *gathering.Gathering, proj Projector) refFeature {
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
	return refFeature{
		Type:     "Feature",
		Geometry: refGeometry{Type: "Polygon", Coordinates: [][][2]float64{ring}},
		Properties: map[string]any{
			"kind":          "gathering",
			"startTick":     int(g.Crowd.Start),
			"endTick":       int(g.Crowd.End()),
			"lifetime":      g.Lifetime(),
			"participators": pars,
		},
	}
}

func refExport(w io.Writer, crowds []*crowd.Crowd, gatherings [][]*gathering.Gathering, proj Projector) error {
	if proj == nil {
		proj = identity
	}
	fc := refCollection{Type: "FeatureCollection", Features: []refFeature{}}
	for i, cr := range crowds {
		fc.Features = append(fc.Features, refCrowd(cr, proj))
		if i < len(gatherings) {
			for _, g := range gatherings[i] {
				fc.Features = append(fc.Features, refGathering(g, proj))
			}
		}
	}
	return json.NewEncoder(w).Encode(fc)
}

// sameAsReference fails unless Export and the reference give the same
// bytes, or both fail with nothing written.
func sameAsReference(t *testing.T, crowds []*crowd.Crowd, gatherings [][]*gathering.Gathering, proj Projector) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := Export(&got, crowds, gatherings, proj)
	wantErr := refExport(&want, crowds, gatherings, proj)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("Export error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if got.Len() != 0 || want.Len() != 0 {
			t.Fatalf("failed export wrote %d bytes (reference %d)", got.Len(), want.Len())
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("output differs at byte %d of %d (reference %d):\n got %q\nwant %q",
			i, len(g), len(w), g[lo:min(len(g), i+60)], w[lo:min(len(w), i+60)])
	}
}

// ---- fixtures ----------------------------------------------------------------

func mkCluster(t trajectory.Tick, pts ...geo.Point) *snapshot.Cluster {
	objs := make([]trajectory.ObjectID, len(pts))
	for i := range objs {
		objs[i] = trajectory.ObjectID(i)
	}
	cp := append([]geo.Point(nil), pts...)
	return snapshot.NewCluster(t, objs, cp)
}

// decode parses the collection back and returns it as generic JSON.
func decode(t *testing.T, buf *bytes.Buffer) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if out["type"] != "FeatureCollection" {
		t.Fatalf("type = %v", out["type"])
	}
	return out
}

func features(t *testing.T, doc map[string]any) []any {
	t.Helper()
	fs, ok := doc["features"].([]any)
	if !ok {
		t.Fatal("no features array")
	}
	return fs
}

func crowdOf(start trajectory.Tick, centers ...geo.Point) *crowd.Crowd {
	cls := make([]*snapshot.Cluster, 0, len(centers))
	for i, c := range centers {
		cls = append(cls, mkCluster(start+trajectory.Tick(i),
			c, geo.Point{X: c.X + 10, Y: c.Y + 10}))
	}
	return crowd.New(start, cls)
}

// day discovers the crowds and gatherings of one generated day.
func day(t testing.TB) *core.Discovery {
	t.Helper()
	g := gen.Default()
	g.NumTaxis = 400
	g.TicksPerDay = 144
	g.Seed = 3
	cfg := core.Default()
	cfg.MC, cfg.KC, cfg.KP, cfg.MP = 10, 10, 8, 8
	res, err := core.Discover(gen.Generate(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllGatherings()) == 0 {
		t.Fatal("the generated day has no gatherings")
	}
	return res
}

// fixedAnswer is a hand-built answer of 12 crowds with one gathering each.
func fixedAnswer() ([]*crowd.Crowd, [][]*gathering.Gathering) {
	var crowds []*crowd.Crowd
	var gs [][]*gathering.Gathering
	for i := 0; i < 12; i++ {
		x := 1000.25 * float64(i)
		cr := crowdOf(trajectory.Tick(10*i),
			geo.Point{X: x, Y: 3.5}, geo.Point{X: x + 7.125, Y: 9}, geo.Point{X: x + 11, Y: 1e-7})
		crowds = append(crowds, cr)
		gs = append(gs, []*gathering.Gathering{{
			Crowd: cr, Lo: 0, Hi: 3,
			Participators: []trajectory.ObjectID{0, 1, trajectory.ObjectID(100 + i)},
		}})
	}
	return crowds, gs
}

// ---- tests -------------------------------------------------------------------

func TestAddCrowdAndGathering(t *testing.T) {
	cr := crowdOf(3, geo.Point{X: 0, Y: 0}, geo.Point{X: 5, Y: 5}, geo.Point{X: 10, Y: 10})
	g := &gathering.Gathering{
		Crowd:         cr,
		Lo:            0,
		Hi:            3,
		Participators: []trajectory.ObjectID{0, 1},
	}
	var buf bytes.Buffer
	if err := Export(&buf, []*crowd.Crowd{cr}, [][]*gathering.Gathering{{g}}, nil); err != nil {
		t.Fatal(err)
	}
	doc := decode(t, &buf)
	fs := features(t, doc)
	if len(fs) != 2 {
		t.Fatalf("%d features", len(fs))
	}
	crowdF := fs[0].(map[string]any)
	props := crowdF["properties"].(map[string]any)
	if props["startTick"].(float64) != 3 || props["lifetime"].(float64) != 3 {
		t.Fatalf("crowd props = %v", props)
	}
	gatherF := fs[1].(map[string]any)
	if gatherF["geometry"].(map[string]any)["type"] != "Polygon" {
		t.Fatal("gathering geometry type")
	}
	ring := gatherF["geometry"].(map[string]any)["coordinates"].([]any)[0].([]any)
	if len(ring) != 5 {
		t.Fatalf("polygon ring has %d vertices", len(ring))
	}
	first, last := ring[0].([]any), ring[4].([]any)
	if first[0] != last[0] || first[1] != last[1] {
		t.Fatal("polygon ring not closed")
	}
}

func TestProjector(t *testing.T) {
	proj := func(p geo.Point) [2]float64 {
		return [2]float64{p.X / 1000, p.Y / 1000}
	}
	cr := crowd.New(0, []*snapshot.Cluster{mkCluster(0, geo.Point{X: 2000, Y: 4000})})
	var buf bytes.Buffer
	if err := Export(&buf, []*crowd.Crowd{cr}, nil, proj); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[2,4]") {
		t.Fatalf("projection not applied: %s", buf.String())
	}
	sameAsReference(t, []*crowd.Crowd{cr}, nil, proj)
}

func TestExport(t *testing.T) {
	cr := crowdOf(0, geo.Point{X: 0, Y: 0}, geo.Point{X: 1, Y: 1})
	g := &gathering.Gathering{Crowd: cr, Lo: 0, Hi: 2, Participators: []trajectory.ObjectID{0}}
	var buf bytes.Buffer
	err := Export(&buf, []*crowd.Crowd{cr}, [][]*gathering.Gathering{{g}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := decode(t, &buf)
	if n := len(features(t, doc)); n != 2 {
		t.Fatalf("%d features", n)
	}
	// mismatched lengths rejected
	err = Export(&buf, []*crowd.Crowd{cr}, [][]*gathering.Gathering{{g}, {g}}, nil)
	if err == nil {
		t.Fatal("mismatched groups accepted")
	}
	// empty gatherings allowed
	if err := Export(&buf, []*crowd.Crowd{cr}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExportMatchesJSON compares Export with the encoding/json reference
// byte for byte on a generated day's full answer, on its gathering-only
// answer (the crowds with at least one gathering), on the empty answer
// and on a hand-built answer with 'e'-form coordinates.
func TestExportMatchesJSON(t *testing.T) {
	res := day(t)
	sameAsReference(t, res.Crowds, res.Gatherings, nil)

	var crowds []*crowd.Crowd
	var gs [][]*gathering.Gathering
	for i, cr := range res.Crowds {
		if len(res.Gatherings[i]) > 0 {
			crowds = append(crowds, cr)
			gs = append(gs, res.Gatherings[i])
		}
	}
	sameAsReference(t, crowds, gs, nil)

	var buf bytes.Buffer
	if err := Export(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "{\"type\":\"FeatureCollection\",\"features\":[]}\n"; got != want {
		t.Fatalf("empty answer = %q, want %q", got, want)
	}
	sameAsReference(t, nil, nil, nil)

	fixed, fixedGs := fixedAnswer()
	sameAsReference(t, fixed, fixedGs, nil)
}

// TestExportAllocs guards the read path: one export is one output buffer
// and a handful of small allocations, independent of the answer's size.
func TestExportAllocs(t *testing.T) {
	crowds, gs := fixedAnswer()
	allocs := testing.AllocsPerRun(100, func() {
		if err := Export(io.Discard, crowds, gs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("Export allocates %.1f times for %d crowds and gatherings, want ≤ 8", allocs, 2*len(crowds))
	}
}

// FuzzExportMatchesJSON: on arbitrary coordinates, tick numbers and
// participator IDs, Export and the encoding/json reference give the same
// bytes, or both fail with nothing written.
func FuzzExportMatchesJSON(f *testing.F) {
	for _, s := range []struct {
		ax, ay, bx, by float64
		start, pid     int
	}{
		{0, 0, 1, 1, 0, 0},
		{math.Copysign(0, -1), 0, -1, 2, -5, -1},
		{5e-324, 2.2250738585072014e-308, -1e-7, 1e-7, 1 << 40, 1 << 31},
		{1e-6, 9.99999e-7, 1e21, 9.99999e20, 1, 7},
		{1e21, -1e21, 1.7976931348623157e308, 1e-30, 3, 3},
		{math.NaN(), 0, 1, 1, 0, 0},
		{math.Inf(1), 0, 1, 1, 0, 0},
		{0, math.Inf(-1), 1, 1, 0, 0},
		{123456.789, -0.000123, 98765.4321, 1e20, 144, 599},
	} {
		f.Add(s.ax, s.ay, s.bx, s.by, s.start, s.pid)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by float64, start, pid int) {
		a, b := geo.Point{X: ax, Y: ay}, geo.Point{X: bx, Y: by}
		cr := crowd.New(trajectory.Tick(start), []*snapshot.Cluster{
			mkCluster(trajectory.Tick(start), a),
			mkCluster(trajectory.Tick(start+1), a, b),
			mkCluster(trajectory.Tick(start+2), b),
		})
		g := &gathering.Gathering{
			Crowd: cr.Sub(1, 3), Lo: 1, Hi: 3,
			Participators: []trajectory.ObjectID{trajectory.ObjectID(pid), trajectory.ObjectID(pid + 1)},
		}
		empty := &gathering.Gathering{Crowd: cr.Sub(0, 1), Lo: 0, Hi: 1}
		sameAsReference(t, []*crowd.Crowd{cr, cr.Sub(2, 3)}, [][]*gathering.Gathering{{g, empty}, nil}, nil)
		// The projector hands raw values to the encoder, past the
		// midpoint arithmetic of the cluster centres.
		raw := func(geo.Point) [2]float64 { return [2]float64{ax, by} }
		sameAsReference(t, []*crowd.Crowd{cr}, [][]*gathering.Gathering{{g}}, raw)
	})
}
