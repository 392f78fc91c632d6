// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the synthetic taxi workload. Each FigN function
// returns printable tables whose rows mirror the series the paper plots:
//
//	Fig. 5a/5b — effectiveness: pattern counts by time-of-day / weather
//	Fig. 6a–c  — crowd discovery runtime vs mc, δ, |ODB| for SR/IR/GRID
//	Fig. 7a–c  — gathering detection runtime vs mp, kp, Cr.τ for
//	             brute force / TAD / TAD*
//	Fig. 8a/8b — incremental vs re-computation for crowd extension and
//	             gathering update
//
// Absolute times differ from the paper's 2009 C# testbed; the comparisons
// of interest are the orderings and trends, which this package's
// TestFig*Shapes and TestFig6SchemeOrdering tests check.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dbscan"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/incremental"
	"repro/internal/patterns"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// Scale controls workload sizes so the full suite runs on a laptop; the
// unit tests use SmallScale, the CLI DefaultScale.
type Scale struct {
	Taxis       int
	TicksPerDay int
	Fig7Crowds  int // crowds averaged per Fig. 7 data point
	Fig8Crowds  int // crowds averaged per Fig. 8b data point
	Seed        int64
}

// DefaultScale is the CLI/bench setting: one synthetic day of 600 taxis at
// 5-minute ticks (the paper used 30,000 taxis at 1-minute ticks; shapes,
// not absolutes, are being reproduced).
func DefaultScale() Scale {
	return Scale{Taxis: 600, TicksPerDay: 288, Fig7Crowds: 40, Fig8Crowds: 60, Seed: 1}
}

// SmallScale keeps unit tests fast.
func SmallScale() Scale {
	return Scale{Taxis: 200, TicksPerDay: 96, Fig7Crowds: 8, Fig8Crowds: 10, Seed: 1}
}

// pipelineConfig scales the paper's §IV thresholds to the workload (the
// synthetic day has fewer taxis, so support thresholds shrink).
func pipelineConfig() core.Config {
	cfg := core.Default()
	cfg.MC = 10
	cfg.KC = 10
	cfg.Delta = 300
	cfg.KP = 8
	cfg.MP = 8
	return cfg
}

// Workload generates one synthetic day under the given weather.
func Workload(sc Scale, w gen.Weather) *trajectory.DB {
	cfg := gen.Default()
	cfg.Seed = sc.Seed
	cfg.NumTaxis = sc.Taxis
	cfg.TicksPerDay = sc.TicksPerDay
	cfg.Days = 1
	cfg.Weather = []gen.Weather{w}
	return gen.Generate(cfg)
}

// DenseWorkload generates a day with incident sizes proportional to the
// taxi count, yielding the large snapshot clusters (hundreds of points)
// that the paper's 30,000-taxi dataset produces. The runtime figures
// (Fig. 6) use it: index pruning quality only matters when the Hausdorff
// refinement the R-tree schemes pay is expensive.
func DenseWorkload(sc Scale) *trajectory.DB {
	cfg := gen.Default()
	cfg.Seed = sc.Seed
	cfg.NumTaxis = sc.Taxis * 2
	cfg.TicksPerDay = sc.TicksPerDay
	cfg.Days = 1
	cfg.JamCommitted = sc.Taxis / 5
	cfg.JamChurn = sc.Taxis / 10
	cfg.DropGoVisitors = sc.Taxis / 6
	cfg.PlatoonSize = sc.Taxis / 15
	return gen.Generate(cfg)
}

func buildCDB(db *trajectory.DB, cfg core.Config) *snapshot.CDB {
	return snapshot.Build(db, snapshot.Options{
		DBSCAN: dbscan.Params{Eps: cfg.Eps, MinPts: cfg.MinPts},
	})
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// ---- Fig. 5: effectiveness ------------------------------------------------

// patternCounts tallies closed crowds, closed gatherings, closed swarms
// and convoys on one day's CDB, attributed to time-of-day regimes
// (patterns crossing periods are counted in each, as in the paper).
type patternCounts struct {
	crowds, gatherings, swarms, convoys [3]int
	total                               [4]int
}

func regimesOfRange(start, end trajectory.Tick, ticksPerDay int) [3]bool {
	var out [3]bool
	for t := start; t <= end; t++ {
		out[gen.RegimeOf(int(t), ticksPerDay)] = true
	}
	return out
}

func countPatterns(cdb *snapshot.CDB, cfg core.Config, ticksPerDay int) patternCounts {
	var pc patternCounts
	res, err := core.DiscoverCDB(cdb, cfg)
	if err != nil {
		panic(err)
	}
	for i, cr := range res.Crowds {
		for reg, in := range regimesOfRange(cr.Start, cr.End(), ticksPerDay) {
			if in {
				pc.crowds[reg]++
			}
		}
		pc.total[0]++
		for _, g := range res.Gatherings[i] {
			for reg, in := range regimesOfRange(g.Crowd.Start, g.Crowd.End(), ticksPerDay) {
				if in {
					pc.gatherings[reg]++
				}
			}
			pc.total[1]++
		}
	}
	// Swarm/convoy thresholds follow the paper's comparison setting
	// (mino=15, mint=10) scaled like the crowd thresholds. MinO sits above
	// the jam-committed group size so the baseline counts are driven by
	// travel behaviour (platoons), as in the real data, not by jam cores.
	sw := patterns.Swarms(cdb, patterns.SwarmParams{MinO: 13, MinT: 8})
	for _, s := range sw {
		var in [3]bool
		for _, t := range s.Ticks {
			in[gen.RegimeOf(int(t), ticksPerDay)] = true
		}
		for reg, ok := range in {
			if ok {
				pc.swarms[reg]++
			}
		}
		pc.total[2]++
	}
	cv := patterns.Convoys(cdb, patterns.ConvoyParams{M: 15, K: 8})
	for _, c := range cv {
		end := c.Start + trajectory.Tick(c.Lifetime-1)
		for reg, ok := range regimesOfRange(c.Start, end, ticksPerDay) {
			if ok {
				pc.convoys[reg]++
			}
		}
		pc.total[3]++
	}
	return pc
}

// Fig5 reproduces the effectiveness study: pattern counts by time of day
// (clear day) and by weather condition.
func Fig5(sc Scale) (byTime, byWeather Table) {
	cfg := pipelineConfig()

	clear := countPatterns(buildCDB(Workload(sc, gen.Clear), cfg), cfg, sc.TicksPerDay)
	byTime = Table{
		Title:  "Fig 5a: pattern counts by time of day (clear day)",
		Header: []string{"period", "crowds", "gatherings", "swarms", "convoys"},
	}
	for reg := gen.Peak; reg <= gen.Casual; reg++ {
		byTime.Rows = append(byTime.Rows, []string{
			reg.String(),
			fmt.Sprint(clear.crowds[reg]),
			fmt.Sprint(clear.gatherings[reg]),
			fmt.Sprint(clear.swarms[reg]),
			fmt.Sprint(clear.convoys[reg]),
		})
	}

	byWeather = Table{
		Title:  "Fig 5b: pattern counts by weather condition",
		Header: []string{"weather", "crowds", "gatherings", "swarms", "convoys"},
	}
	for _, w := range []gen.Weather{gen.Clear, gen.Rainy, gen.Snowy} {
		pc := clear
		if w != gen.Clear {
			pc = countPatterns(buildCDB(Workload(sc, w), cfg), cfg, sc.TicksPerDay)
		}
		byWeather.Rows = append(byWeather.Rows, []string{
			w.String(),
			fmt.Sprint(pc.total[0]),
			fmt.Sprint(pc.total[1]),
			fmt.Sprint(pc.total[2]),
			fmt.Sprint(pc.total[3]),
		})
	}
	return byTime, byWeather
}

// ---- Fig. 6: crowd discovery runtime ---------------------------------------

var fig6Schemes = []string{"sr", "ir", "grid"}

// CrowdDiscoveryTime measures one Algorithm 1 sweep with the named scheme.
func CrowdDiscoveryTime(cdb *snapshot.CDB, p crowd.Params, scheme string) time.Duration {
	s, err := crowd.NewSearcher(scheme, p.Delta)
	if err != nil {
		panic(err)
	}
	return timeIt(func() { crowd.Discover(cdb, p, s) })
}

// Fig6 reproduces the crowd discovery runtime study: three tables sweeping
// mc, δ and |ODB|.
func Fig6(sc Scale) []Table {
	cfg := pipelineConfig()
	db := DenseWorkload(sc)
	cdb := buildCDB(db, cfg)

	mcT := Table{
		Title:  "Fig 6a: crowd discovery runtime (ms) vs mc",
		Header: []string{"mc", "SR", "IR", "GRID"},
	}
	for _, mc := range []int{5, 10, 15, 20, 25} {
		p := crowd.Params{MC: mc, KC: cfg.KC, Delta: cfg.Delta}
		row := []string{fmt.Sprint(mc)}
		for _, s := range fig6Schemes {
			row = append(row, ms(CrowdDiscoveryTime(cdb, p, s)))
		}
		mcT.Rows = append(mcT.Rows, row)
	}

	dT := Table{
		Title:  "Fig 6b: crowd discovery runtime (ms) vs delta (m)",
		Header: []string{"delta", "SR", "IR", "GRID"},
	}
	for _, delta := range []float64{100, 200, 300, 400, 500} {
		p := crowd.Params{MC: cfg.MC, KC: cfg.KC, Delta: delta}
		row := []string{fmt.Sprint(delta)}
		for _, s := range fig6Schemes {
			row = append(row, ms(CrowdDiscoveryTime(cdb, p, s)))
		}
		dT.Rows = append(dT.Rows, row)
	}

	oT := Table{
		Title:  "Fig 6c: crowd discovery runtime (ms) vs |ODB|",
		Header: []string{"objects", "SR", "IR", "GRID"},
	}
	for _, frac := range []float64{0.33, 0.5, 0.66, 0.83, 1.0} {
		n := int(frac * float64(db.NumObjects()))
		sub := db.Subset(n)
		subCDB := buildCDB(sub, cfg)
		p := crowd.Params{MC: cfg.MC, KC: cfg.KC, Delta: cfg.Delta}
		row := []string{fmt.Sprint(n)}
		for _, s := range fig6Schemes {
			row = append(row, ms(CrowdDiscoveryTime(subCDB, p, s)))
		}
		oT.Rows = append(oT.Rows, row)
	}
	return []Table{mcT, dT, oT}
}

// ---- Fig. 7: gathering detection runtime -----------------------------------

// SyntheticCrowd builds a crowd of the given length with a committed core
// (present with probability stay) plus per-tick churn visitors —
// membership structure matching what jams produce, with length and churn
// under direct control so Cr.τ can be swept. When gapPeriod > 0, every
// gapPeriod-th cluster is churn-only (no core members): such clusters can
// never hold enough participators, so they exercise the Divide step of
// TAD exactly like the invalid clusters of Fig. 3.
func SyntheticCrowd(r *rand.Rand, length, coreSize, churn int, stay float64, gapPeriod int) *crowd.Crowd {
	cls := make([]*snapshot.Cluster, 0, length)
	next := trajectory.ObjectID(coreSize)
	for t := 0; t < length; t++ {
		var ids []trajectory.ObjectID
		gap := gapPeriod > 0 && t%gapPeriod == gapPeriod-1
		if !gap {
			for c := 0; c < coreSize; c++ {
				if r.Float64() < stay {
					ids = append(ids, trajectory.ObjectID(c))
				}
			}
		}
		n := churn
		if gap {
			n += coreSize // keep cluster size steady through the gap
		}
		for c := 0; c < n; c++ {
			ids = append(ids, next)
			next++
		}
		pts := make([]geo.Point, len(ids))
		for i := range pts {
			pts[i] = geo.Point{X: float64(i), Y: float64(t)}
		}
		cls = append(cls, snapshot.NewCluster(trajectory.Tick(t), ids, pts))
	}
	return crowd.New(0, cls)
}

// GatheringDetectors names the Fig. 7 competitors in presentation order.
var GatheringDetectors = []string{"brute-force", "TAD", "TAD*"}

func runDetector(name string, cr *crowd.Crowd, p gathering.Params) {
	switch name {
	case "brute-force":
		gathering.BruteForce(cr, p)
	case "TAD":
		gathering.TAD(cr, p)
	default:
		gathering.TADStar(cr, p)
	}
}

// Fig7 reproduces the gathering detection runtime study. Defaults follow
// the paper (mp = 11, kp = 14) on synthetic crowds of length 35 with a
// 16-object core and 6 churn visitors per tick.
func Fig7(sc Scale) []Table {
	const (
		defMP    = 11
		defKP    = 14
		defLen   = 35
		coreSize = 16
		churn    = 6
		stayP    = 0.85
		gap      = 16 // churn-only cluster every 16 ticks
	)
	mkCrowds := func(length int, seed int64) []*crowd.Crowd {
		r := rand.New(rand.NewSource(seed))
		out := make([]*crowd.Crowd, sc.Fig7Crowds)
		for i := range out {
			out[i] = SyntheticCrowd(r, length, coreSize, churn, stayP, gap)
		}
		return out
	}
	avg := func(crowds []*crowd.Crowd, name string, p gathering.Params) time.Duration {
		total := timeIt(func() {
			for _, cr := range crowds {
				runDetector(name, cr, p)
			}
		})
		return total / time.Duration(len(crowds))
	}

	mpT := Table{
		Title:  "Fig 7a: gathering detection runtime (ms/crowd) vs mp",
		Header: []string{"mp", "brute-force", "TAD", "TAD*"},
	}
	crowds := mkCrowds(defLen, 11)
	for _, mp := range []int{7, 9, 11, 13, 15} {
		p := gathering.Params{KC: 10, KP: defKP, MP: mp}
		row := []string{fmt.Sprint(mp)}
		for _, d := range GatheringDetectors {
			row = append(row, ms(avg(crowds, d, p)))
		}
		mpT.Rows = append(mpT.Rows, row)
	}

	kpT := Table{
		Title:  "Fig 7b: gathering detection runtime (ms/crowd) vs kp",
		Header: []string{"kp", "brute-force", "TAD", "TAD*"},
	}
	for _, kp := range []int{10, 12, 14, 16, 18} {
		p := gathering.Params{KC: 10, KP: kp, MP: defMP}
		row := []string{fmt.Sprint(kp)}
		for _, d := range GatheringDetectors {
			row = append(row, ms(avg(crowds, d, p)))
		}
		kpT.Rows = append(kpT.Rows, row)
	}

	tauT := Table{
		Title:  "Fig 7c: gathering detection runtime (ms/crowd) vs crowd length",
		Header: []string{"tau", "brute-force", "TAD", "TAD*"},
	}
	for _, length := range []int{15, 25, 35, 45, 55} {
		cs := mkCrowds(length, int64(100+length))
		p := gathering.Params{KC: 10, KP: defKP, MP: defMP}
		row := []string{fmt.Sprint(length)}
		for _, d := range GatheringDetectors {
			row = append(row, ms(avg(cs, d, p)))
		}
		tauT.Rows = append(tauT.Rows, row)
	}
	return []Table{mpT, kpT, tauT}
}

// ---- Fig. 8: incremental algorithms -----------------------------------------

// Fig8 reproduces the incremental study: (a) crowd extension vs
// re-computation as days are appended; (b) gathering update vs
// re-computation as the old/new crowd length ratio r varies. Next to the
// milliseconds, each row carries a deterministic work count: (a) the
// clusters the grid searcher's index filter passes to refinement, (b)
// the TAD* Test steps run, summed over the data point's crowds.
func Fig8(sc Scale) []Table {
	cfg := pipelineConfig()
	cp := crowd.Params{MC: cfg.MC, KC: cfg.KC, Delta: cfg.Delta}
	gp := gathering.Params{KC: cfg.KC, KP: cfg.KP, MP: cfg.MP}

	// (a) five days of data, appended one at a time.
	days := 5
	genCfg := gen.Default()
	genCfg.Seed = sc.Seed
	genCfg.NumTaxis = sc.Taxis
	genCfg.TicksPerDay = sc.TicksPerDay
	genCfg.Days = days
	full := gen.Generate(genCfg)
	fullCDB := buildCDB(full, cfg)

	var extSearcher *crowd.GridSearcher
	store, err := incremental.New(cp, gp, func() crowd.Searcher {
		extSearcher = &crowd.GridSearcher{Delta: cp.Delta}
		return extSearcher
	})
	if err != nil {
		panic(err)
	}
	aT := Table{
		Title:  "Fig 8a: crowd discovery (ms, candidates) after each daily update",
		Header: []string{"days", "re-computation", "crowd extension", "re-computation candidates", "extension candidates"},
	}
	for d := 0; d < days; d++ {
		lo := d * sc.TicksPerDay
		slice := fullCDB.Slice(trajectory.Tick(lo), sc.TicksPerDay)
		batch := &snapshot.CDB{Domain: slice.Domain, Clusters: slice.Clusters}

		before := extSearcher.Candidates
		ext := timeIt(func() { store.Append(batch) })
		extSearcher.FlushStats()

		soFar := fullCDB.Slice(0, lo+sc.TicksPerDay)
		reSearcher := &crowd.GridSearcher{Delta: cp.Delta}
		re := timeIt(func() {
			crowd.Discover(soFar, cp, reSearcher)
		})
		reSearcher.FlushStats()
		aT.Rows = append(aT.Rows, []string{fmt.Sprint(d + 1), ms(re), ms(ext),
			fmt.Sprint(reSearcher.Candidates), fmt.Sprint(extSearcher.Candidates - before)})
	}

	// (b) gathering update vs ratio r on synthetic extended crowds.
	bT := Table{
		Title:  "Fig 8b: gathering detection (ms/crowd, Test steps) vs old/new ratio r",
		Header: []string{"r", "re-computation", "gathering update", "re-computation tests", "update tests"},
	}
	// The Fig. 8b crowds are long (240 ticks) with a large committed core
	// and a churn-only cluster every 6 ticks, so TAD* recursion — the part
	// the update rule skips — dominates over the one-off BVS build.
	const length = 240
	gpb := gathering.Params{KC: 4, KP: 10, MP: 20}
	for _, ratio := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		oldLen := int(ratio * length)
		r := rand.New(rand.NewSource(7))
		crowds := make([]*crowd.Crowd, sc.Fig8Crowds)
		oldGs := make([][]*gathering.Gathering, sc.Fig8Crowds)
		for i := range crowds {
			crowds[i] = SyntheticCrowd(r, length, 48, 2, 0.75, 6)
			oldCrowd := crowds[i].Sub(0, oldLen)
			oldGs[i] = gathering.TADStar(oldCrowd, gpb)
		}
		// warm up allocator and caches so rows are comparable
		for _, cr := range crowds {
			gathering.TADStar(cr, gpb)
			_ = gathering.NewDetector(cr, gpb).RunIncremental(oldLen, nil)
		}
		// The update side carries the old prefix's detector across the
		// batch boundary, exactly as the incremental store does: building
		// it belongs to the PREVIOUS batch, so it happens outside the
		// timer, and the timed region is Extend over the new region plus
		// the Theorem-2 update.
		dets := make([]*gathering.Detector, len(crowds))
		for i := range crowds {
			dets[i] = gathering.NewDetector(crowds[i].Sub(0, oldLen), gpb)
		}
		reTests := 0
		re := timeIt(func() {
			for _, cr := range crowds {
				d := gathering.NewDetector(cr, gpb) // TADStar, counted
				_ = d.Run()
				reTests += d.Tests
			}
		}) / time.Duration(len(crowds))
		up := timeIt(func() {
			for i, cr := range crowds {
				dets[i].Extend(cr)
				_ = dets[i].RunIncremental(oldLen, oldGs[i])
			}
		}) / time.Duration(len(crowds))
		upTests := 0
		for _, d := range dets {
			upTests += d.Tests
		}
		bT.Rows = append(bT.Rows, []string{fmt.Sprintf("%.1f", ratio), ms(re), ms(up),
			fmt.Sprint(reTests), fmt.Sprint(upTests)})
	}
	return []Table{aT, bT}
}

// Pruning reports the candidate/result counts of each range-search scheme
// over one full crowd-discovery sweep — an ablation beyond the paper that
// quantifies how much of Fig. 6 is pruning quality versus refinement cost.
func Pruning(sc Scale) Table {
	cfg := pipelineConfig()
	db := DenseWorkload(sc)
	cdb := buildCDB(db, cfg)
	p := crowd.Params{MC: cfg.MC, KC: cfg.KC, Delta: cfg.Delta}

	tab := Table{
		Title:  "Pruning effectiveness (candidates refined vs matches, one sweep)",
		Header: []string{"scheme", "candidates", "matches", "selectivity"},
	}
	row := func(name string, cand, res int) {
		sel := "-"
		if cand > 0 {
			sel = fmt.Sprintf("%.1f%%", 100*float64(res)/float64(cand))
		}
		tab.Rows = append(tab.Rows, []string{name, fmt.Sprint(cand), fmt.Sprint(res), sel})
	}
	sr := &crowd.SRSearcher{Delta: p.Delta}
	crowd.Discover(cdb, p, sr)
	row("SR (dmin window)", sr.Candidates, sr.Results)
	ir := &crowd.IRSearcher{Delta: p.Delta}
	crowd.Discover(cdb, p, ir)
	row("IR (dside)", ir.Candidates, ir.Results)
	gr := &crowd.GridSearcher{Delta: p.Delta}
	crowd.Discover(cdb, p, gr)
	gr.FlushStats()
	row("GRID (affect region)", gr.Candidates, gr.Results)
	return tab
}

// All runs every figure at the given scale and returns the tables in
// presentation order.
func All(sc Scale) []Table {
	t5a, t5b := Fig5(sc)
	out := []Table{t5a, t5b}
	out = append(out, Fig6(sc)...)
	out = append(out, Fig7(sc)...)
	out = append(out, Fig8(sc)...)
	out = append(out, Pruning(sc))
	return out
}
