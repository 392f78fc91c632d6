// Command gatherfind runs the full gathering-discovery pipeline on a
// trajectory CSV file ("id,time,x,y" rows) and prints the closed crowds
// and closed gatherings found.
//
// Usage:
//
//	gatherfind -in traj.csv [-ticks 288] [-step 1]
//	           [-eps 200] [-minpts 5]
//	           [-mc 15] [-kc 20] [-delta 300] [-kp 15] [-mp 10]
//	           [-searcher grid] [-parallel 0] [-v]
//
// The time domain is [start, start+ticks*step) where start is the earliest
// sample time in the file. A missing -in, a non-positive -ticks or -step
// and stray arguments are usage errors (exit 2). The threshold flags
// default to the paper's settings (gatherings.DefaultConfig).
package main

import (
	"flag"
	"fmt"
	"os"

	gatherings "repro"
	"repro/internal/geojson"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

func main() {
	cfg := gatherings.DefaultConfig()
	var (
		in      = flag.String("in", "", "input trajectory CSV (required)")
		ticks   = flag.Int("ticks", 288, "number of ticks in the analysis domain")
		step    = flag.Float64("step", 1, "tick width in input time units")
		verbose = flag.Bool("v", false, "print every crowd, not only gatherings")
		stat    = flag.Bool("stats", false, "print summary statistics")
		geoOut  = flag.String("geojson", "", "write crowds+gatherings as GeoJSON to this file")
	)
	flag.Float64Var(&cfg.Eps, "eps", cfg.Eps, "DBSCAN epsilon (metres)")
	flag.IntVar(&cfg.MinPts, "minpts", cfg.MinPts, "DBSCAN density threshold m")
	flag.IntVar(&cfg.MC, "mc", cfg.MC, "crowd support threshold mc")
	flag.IntVar(&cfg.KC, "kc", cfg.KC, "crowd lifetime threshold kc (ticks)")
	flag.Float64Var(&cfg.Delta, "delta", cfg.Delta, "variation threshold delta (metres)")
	flag.IntVar(&cfg.KP, "kp", cfg.KP, "participator lifetime threshold kp (ticks)")
	flag.IntVar(&cfg.MP, "mp", cfg.MP, "gathering support threshold mp")
	flag.StringVar(&cfg.Searcher, "searcher", cfg.Searcher, "range search scheme: brute, sr, ir or grid")
	flag.IntVar(&cfg.Parallelism, "parallel", cfg.Parallelism, "worker goroutines (0 = sequential)")
	flag.Parse()
	switch {
	case *in == "":
		usageError("-in is required")
	case *ticks <= 0:
		usageError("-ticks must be positive, got %d", *ticks)
	case !(*step > 0):
		usageError("-step must be positive, got %v", *step)
	case flag.NArg() > 0:
		usageError("unexpected arguments %q", flag.Args())
	}

	db, err := trajectory.LoadCSV(*in, *ticks, *step)
	if err != nil {
		fatal(err)
	}

	res, err := gatherings.Discover(db, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("objects: %d  ticks: %d  snapshot clusters: %d\n",
		db.NumObjects(), db.Domain.N, res.CDB.NumClusters())
	fmt.Printf("closed crowds: %d  closed gatherings: %d\n",
		len(res.Crowds), len(res.AllGatherings()))

	for i, cr := range res.Crowds {
		if *verbose || len(res.Gatherings[i]) > 0 {
			fmt.Printf("\ncrowd %s lifetime=%d ticks\n", cr, cr.Lifetime())
		}
		for _, g := range res.Gatherings[i] {
			c := g.Crowd.At(0).MBR().Center()
			fmt.Printf("  gathering ticks [%d,%d) around (%.0f, %.0f): %d participators %v\n",
				int(cr.Start)+g.Lo, int(cr.Start)+g.Hi, c.X, c.Y,
				len(g.Participators), g.Participators)
		}
	}

	if *stat {
		fmt.Println()
		stats.Build(res.Crowds, res.Gatherings).Fprint(os.Stdout)
		if top := stats.TopParticipants(res.Gatherings, 5); len(top) > 0 {
			fmt.Printf("most frequent participators: %v\n", top)
		}
	}
	if *geoOut != "" {
		f, err := os.Create(*geoOut)
		if err != nil {
			fatal(err)
		}
		if err := geojson.Export(f, res.Crowds, res.Gatherings, nil); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote GeoJSON to %s\n", *geoOut)
	}
}

func usageError(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "gatherfind: "+format+"\n", a...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gatherfind:", err)
	os.Exit(1)
}
