// Command trajgen generates a synthetic city taxi workload and writes it
// as trajectory CSV ("id,time,x,y") to stdout or a file. The workload has
// the structure the gathering-pattern experiments rely on: hot spots,
// time-of-day regimes, weather regimes, traffic jams, drop-and-go venues
// and platoons.
//
// Usage:
//
//	trajgen [-taxis 600] [-ticks 288] [-days 1] [-weather clear,snowy]
//	        [-seed 1] [-o out.csv]
//
// A non-positive -taxis, -ticks or -days and stray arguments are usage
// errors (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	gatherings "repro"
	"repro/internal/gen"
)

func main() {
	var (
		taxis   = flag.Int("taxis", 600, "number of taxis")
		ticks   = flag.Int("ticks", 288, "ticks per simulated day")
		days    = flag.Int("days", 1, "number of days")
		weather = flag.String("weather", "", "comma-separated per-day weather: clear, rainy or snowy")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "trajgen: unexpected arguments %q (write to a file with -o)\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"taxis", *taxis}, {"ticks", *ticks}, {"days", *days}} {
		if f.v <= 0 {
			fmt.Fprintf(os.Stderr, "trajgen: -%s must be positive, got %d\n", f.name, f.v)
			flag.Usage()
			os.Exit(2)
		}
	}

	cfg := gen.Default()
	cfg.NumTaxis = *taxis
	cfg.TicksPerDay = *ticks
	cfg.Days = *days
	cfg.Seed = *seed
	if *weather != "" {
		for _, w := range strings.Split(*weather, ",") {
			switch strings.TrimSpace(w) {
			case "clear":
				cfg.Weather = append(cfg.Weather, gen.Clear)
			case "rainy":
				cfg.Weather = append(cfg.Weather, gen.Rainy)
			case "snowy":
				cfg.Weather = append(cfg.Weather, gen.Snowy)
			default:
				fmt.Fprintf(os.Stderr, "trajgen: unknown weather %q\n", w)
				os.Exit(2)
			}
		}
	}

	db := gen.Generate(cfg)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trajgen:", err)
			os.Exit(1)
		}
		w = f
	}
	err := gatherings.WriteTrajectoriesCSV(w, db.Trajs)
	if w != os.Stdout {
		// A failed close can lose the final write-back: report it rather
		// than exit 0 over a truncated CSV.
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "trajgen: wrote %d trajectories x %d ticks\n",
		db.NumObjects(), db.Domain.N)
}
