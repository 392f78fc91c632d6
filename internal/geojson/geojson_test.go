package geojson

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

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

func TestAddCrowdAndGathering(t *testing.T) {
	cr := crowdOf(3, geo.Point{X: 0, Y: 0}, geo.Point{X: 5, Y: 5}, geo.Point{X: 10, Y: 10})
	g := &gathering.Gathering{
		Crowd:         cr,
		Lo:            0,
		Hi:            3,
		Participators: []trajectory.ObjectID{0, 1},
	}
	fc := NewFeatureCollection()
	fc.AddCrowd(cr, nil)
	fc.AddGathering(g, nil)
	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
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
	fc := NewFeatureCollection()
	proj := func(p geo.Point) [2]float64 {
		return [2]float64{p.X / 1000, p.Y / 1000}
	}
	fc.AddCrowd(crowd.New(0, []*snapshot.Cluster{mkCluster(0, geo.Point{X: 2000, Y: 4000})}), proj)
	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[2,4]") {
		t.Fatalf("projection not applied: %s", buf.String())
	}
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
