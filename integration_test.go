package gatherings_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	gatherings "repro"
	"repro/internal/geojson"
	"repro/internal/stats"
)

// TestEndToEndRawDataPipeline exercises the full deployment path: noisy,
// irregularly sampled raw fixes are serialised to CSV, read back,
// discovered over, summarised and exported as GeoJSON.
func TestEndToEndRawDataPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(307))

	// Raw scene: 10 objects dwell at a market square for ~60 time units
	// with irregular sampling, occasional GPS glitches and one reporting
	// outage; 10 others wander.
	var raw []gatherings.Trajectory
	id := gatherings.ObjectID(0)
	for i := 0; i < 10; i++ {
		tr := gatherings.Trajectory{ID: id}
		id++
		tm := 0.0
		for tm < 60 {
			tm += 0.4 + r.Float64()*1.2
			p := gatherings.Point{X: 300 + r.NormFloat64()*15, Y: 300 + r.NormFloat64()*15}
			if r.Intn(40) == 0 {
				p.X += 5e5 // glitch
			}
			tr.Samples = append(tr.Samples, gatherings.Sample{Time: tm, P: p})
		}
		raw = append(raw, tr)
	}
	for i := 0; i < 10; i++ {
		tr := gatherings.Trajectory{ID: id}
		id++
		tm := 0.0
		x, y := r.Float64()*3000, r.Float64()*3000
		for tm < 60 {
			tm += 0.4 + r.Float64()*1.2
			x += r.NormFloat64() * 30
			y += r.NormFloat64() * 30
			tr.Samples = append(tr.Samples, gatherings.Sample{Time: tm, P: gatherings.Point{X: x, Y: y}})
		}
		raw = append(raw, tr)
	}

	// CSV round trip (ingestion boundary).
	var csvBuf bytes.Buffer
	if err := gatherings.WriteTrajectoriesCSV(&csvBuf, raw); err != nil {
		t.Fatal(err)
	}
	parsed, err := gatherings.ReadTrajectoriesCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(raw) {
		t.Fatalf("lost trajectories: %d of %d", len(parsed), len(raw))
	}

	// No cleaning: the glitches and irregular sampling go straight into
	// the DB, as gatherfind and gatherserve read their CSV input.
	db := &gatherings.DB{Domain: gatherings.TimeDomain{Start: 1, Step: 1, N: 55}, Trajs: parsed}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}

	cfg := gatherings.DefaultConfig()
	cfg.Eps, cfg.MinPts = 80, 3
	cfg.MC, cfg.KC, cfg.Delta = 6, 20, 120
	cfg.KP, cfg.MP = 30, 6

	res, err := gatherings.Discover(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllGatherings()) != 1 {
		t.Fatalf("expected exactly the market-square gathering, got %d", len(res.AllGatherings()))
	}
	g := res.AllGatherings()[0]
	if len(g.Participators) < 6 {
		t.Fatalf("participators = %v", g.Participators)
	}
	center := g.Crowd.At(0).MBR().Center()
	if center.Dist(gatherings.Point{X: 300, Y: 300}) > 100 {
		t.Fatalf("gathering located at %v, want near (300,300)", center)
	}

	// Summaries.
	rep := stats.Build(res.Crowds, res.Gatherings)
	if rep.Gatherings != 1 || rep.Participators.Mean < 6 {
		t.Fatalf("report = %+v", rep)
	}

	// GeoJSON export must be valid JSON with one polygon feature.
	var geoBuf bytes.Buffer
	if err := geojson.Export(&geoBuf, res.Crowds, res.Gatherings, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(geoBuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["type"] != "FeatureCollection" {
		t.Fatal("bad GeoJSON")
	}
}
