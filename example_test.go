package gatherings_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	gatherings "repro"
	"repro/internal/gen"
	"repro/internal/patterns"
)

// plazaDB builds a deterministic scene: eight devoted objects loitering at
// a plaza for 30 ticks plus six objects passing through.
func plazaDB() *gatherings.DB {
	r := rand.New(rand.NewSource(1))
	db := &gatherings.DB{Domain: gatherings.TimeDomain{Start: 0, Step: 1, N: 30}}
	id := gatherings.ObjectID(0)
	for i := 0; i < 8; i++ {
		tr := gatherings.Trajectory{ID: id}
		id++
		for t := 0; t < 30; t++ {
			tr.Samples = append(tr.Samples, gatherings.Sample{
				Time: float64(t),
				P:    gatherings.Point{X: 100 + r.NormFloat64()*10, Y: 100 + r.NormFloat64()*10},
			})
		}
		db.Trajs = append(db.Trajs, tr)
	}
	for i := 0; i < 6; i++ {
		tr := gatherings.Trajectory{ID: id}
		id++
		for t := 0; t < 30; t++ {
			tr.Samples = append(tr.Samples, gatherings.Sample{
				Time: float64(t),
				P:    gatherings.Point{X: float64(t) * 50, Y: 2000 + float64(i)*500},
			})
		}
		db.Trajs = append(db.Trajs, tr)
	}
	return db
}

func exampleConfig() gatherings.Config {
	cfg := gatherings.DefaultConfig()
	cfg.Eps, cfg.MinPts = 60, 3
	cfg.MC, cfg.KC, cfg.Delta = 5, 10, 100
	cfg.KP, cfg.MP = 15, 5
	return cfg
}

func ExampleDiscover() {
	res, err := gatherings.Discover(plazaDB(), exampleConfig())
	if err != nil {
		panic(err)
	}
	fmt.Println("crowds:", len(res.Crowds))
	for _, g := range res.AllGatherings() {
		fmt.Printf("gathering of %d ticks with %d participators\n",
			g.Lifetime(), len(g.Participators))
	}
	// Output:
	// crowds: 1
	// gathering of 30 ticks with 8 participators
}

func ExampleParticipators() {
	res, err := gatherings.Discover(plazaDB(), exampleConfig())
	if err != nil {
		panic(err)
	}
	par := gatherings.Participators(res.Crowds[0], 15)
	fmt.Println(par)
	// Output:
	// [0 1 2 3 4 5 6 7]
}

func ExampleStore() {
	cfg := exampleConfig()
	store, err := gatherings.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	// Feed the plaza scene in two 15-tick batches.
	cdb := gatherings.BuildCDB(plazaDB(), cfg)
	for _, lo := range []int{0, 15} {
		s := cdb.Slice(gatherings.Tick(lo), 15)
		store.AppendCDB(&gatherings.CDB{Domain: s.Domain, Clusters: s.Clusters})
	}
	fmt.Println("ticks:", store.Ticks())
	fmt.Println("gatherings:", len(store.AllGatherings()))
	// Output:
	// ticks: 30
	// gatherings: 1
}

func ExampleStore_Save() {
	cfg := exampleConfig()
	store, err := gatherings.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	store.Append(plazaDB())

	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		panic(err)
	}
	restored, err := gatherings.LoadStore(&buf, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("restored ticks:", restored.Ticks())
	fmt.Println("restored gatherings:", len(restored.AllGatherings()))
	// Output:
	// restored ticks: 30
	// restored gatherings: 1
}

// Example_trafficJam is the paper's §IV case study on one synthetic day
// of city traffic: GPS-equipped taxis act as traffic sensors, jams surface
// as gatherings, and taxi queues at venues (dense, durable, but every
// vehicle leaves within minutes) stay crowds without gatherings.
func Example_trafficJam() {
	// 288 ticks of 5 minutes, 600 taxis, rush-hour jams plus evening mall
	// traffic.
	gcfg := gen.Default()
	gcfg.Seed = 7
	db := gen.Generate(gcfg)

	cfg := gatherings.DefaultConfig()
	cfg.MC = 10 // ≥ 10 taxis per cluster
	cfg.KC = 10 // congestion lasting ≥ 50 simulated minutes
	cfg.KP = 8  // committed vehicles stuck ≥ 40 minutes
	cfg.MP = 8  // ≥ 8 committed vehicles throughout
	cfg.Parallelism = 4

	res, err := gatherings.Discover(db, cfg)
	if err != nil {
		panic(err)
	}
	jams := res.AllGatherings()
	sort.SliceStable(jams, func(i, j int) bool { return jams[i].Crowd.Start < jams[j].Crowd.Start })

	// clock renders a 5-minute tick index as hh:mm.
	clock := func(tick gatherings.Tick) string {
		m := int(tick) * 5
		return fmt.Sprintf("%02d:%02d", (m/60)%24, m%60)
	}
	fmt.Printf("taxis: %d   day: %d ticks of 5 min\n", db.NumObjects(), db.Domain.N)
	fmt.Printf("dense congested areas (closed crowds):  %d\n", len(res.Crowds))
	fmt.Printf("actual traffic jams (closed gatherings): %d\n", len(jams))
	fmt.Println("\njam report:")
	for k, g := range jams {
		c := g.Crowd.At(0).MBR().Center()
		fmt.Printf("  #%d  %s–%s  at (%5.0fm, %5.0fm)  stuck vehicles: %d\n",
			k+1, clock(g.Crowd.Start), clock(g.Crowd.End()), c.X, c.Y, len(g.Participators))
	}
	// Output:
	// taxis: 600   day: 288 ticks of 5 min
	// dense congested areas (closed crowds):  19
	// actual traffic jams (closed gatherings): 8
	//
	// jam report:
	//   #1  04:40–05:30  at (13591m, 15819m)  stuck vehicles: 12
	//   #2  10:15–11:40  at ( 4741m,  4981m)  stuck vehicles: 12
	//   #3  13:05–14:30  at ( 4321m, 15589m)  stuck vehicles: 12
	//   #4  17:05–18:30  at (16555m,  5369m)  stuck vehicles: 12
	//   #5  17:15–19:20  at ( 5816m, 16513m)  stuck vehicles: 26
	//   #6  17:50–19:15  at ( 7457m,  7267m)  stuck vehicles: 12
	//   #7  18:00–19:25  at ( 1954m, 12405m)  stuck vehicles: 12
	//   #8  18:20–19:45  at (12913m,  4059m)  stuck vehicles: 12
}

// Example_eventDetection is the paper's §I motivation: a celebration
// (stationary, with a committed core and churning visitors) beside a
// travelling tour group. Only the gathering captures the whole
// celebration; the swarm and convoy there are just its organiser core.
// The tour group is a swarm and a convoy but not a gathering, because it
// keeps moving.
func Example_eventDetection() {
	const ticks = 40
	r := rand.New(rand.NewSource(5))
	db := &gatherings.DB{Domain: gatherings.TimeDomain{Start: 0, Step: 1, N: ticks}}
	id := gatherings.ObjectID(0)
	addSample := func(tr *gatherings.Trajectory, t int, x, y float64) {
		tr.Samples = append(tr.Samples, gatherings.Sample{Time: float64(t), P: gatherings.Point{X: x, Y: y}})
	}

	// Celebration at the square (500, 500): 10 organisers stay the whole
	// time; 40 visitors come and go in waves of 10, each staying 8 ticks.
	for i := 0; i < 10; i++ {
		tr := gatherings.Trajectory{ID: id}
		id++
		for t := 0; t < ticks; t++ {
			addSample(&tr, t, 500+r.NormFloat64()*30, 500+r.NormFloat64()*30)
		}
		db.Trajs = append(db.Trajs, tr)
	}
	for wave := 0; wave < 4; wave++ {
		for i := 0; i < 10; i++ {
			tr := gatherings.Trajectory{ID: id}
			id++
			arrive := wave * 8
			for t := 0; t < ticks; t++ {
				if t >= arrive && t < arrive+8 {
					addSample(&tr, t, 500+r.NormFloat64()*30, 500+r.NormFloat64()*30)
				} else { // elsewhere in the city
					addSample(&tr, t, 3000+r.NormFloat64()*400, 3000+float64(t)*50)
				}
			}
			db.Trajs = append(db.Trajs, tr)
		}
	}
	// Tour group: 12 people walking together eastwards from (0, 2000).
	for i := 0; i < 12; i++ {
		tr := gatherings.Trajectory{ID: id}
		id++
		for t := 0; t < ticks; t++ {
			addSample(&tr, t, float64(t)*120+r.NormFloat64()*20, 2000+r.NormFloat64()*20)
		}
		db.Trajs = append(db.Trajs, tr)
	}

	cfg := gatherings.DefaultConfig()
	cfg.Eps, cfg.MinPts = 120, 4
	cfg.MC, cfg.KC, cfg.Delta = 10, 15, 150
	cfg.KP, cfg.MP = 20, 8
	res, err := gatherings.Discover(db, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("gatherings found: %d\n", len(res.AllGatherings()))
	for _, g := range res.AllGatherings() {
		c := g.Crowd.At(0).MBR().Center()
		fmt.Printf("  gathering at (%.0f, %.0f) for %d ticks, %d committed organisers\n",
			c.X, c.Y, g.Lifetime(), len(g.Participators))
	}

	// Baselines on the same snapshot clusters.
	sw := patterns.Swarms(res.CDB, patterns.SwarmParams{MinO: 10, MinT: 15})
	cv := patterns.Convoys(res.CDB, patterns.ConvoyParams{M: 10, K: 15})
	fmt.Printf("\nswarms (≥10 objects, ≥15 ticks): %d\n", len(sw))
	for _, s := range sw {
		fmt.Printf("  swarm of %d objects over %d ticks (ids %v...)\n",
			len(s.Objects), len(s.Ticks), s.Objects[:min(4, len(s.Objects))])
	}
	fmt.Printf("convoys (≥10 objects, ≥15 consecutive ticks): %d\n", len(cv))
	for _, c := range cv {
		fmt.Printf("  convoy of %d objects, ticks [%d,%d)\n",
			len(c.Objects), c.Start, int(c.Start)+c.Lifetime)
	}
	// Output:
	// gatherings found: 1
	//   gathering at (518, 477) for 40 ticks, 10 committed organisers
	//
	// swarms (≥10 objects, ≥15 ticks): 2
	//   swarm of 10 objects over 40 ticks (ids [0 1 2 3]...)
	//   swarm of 12 objects over 40 ticks (ids [50 51 52 53]...)
	// convoys (≥10 objects, ≥15 consecutive ticks): 2
	//   convoy of 12 objects, ticks [0,40)
	//   convoy of 10 objects, ticks [0,40)
}
