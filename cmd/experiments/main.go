// Command experiments regenerates the paper's evaluation tables (§IV) on
// the synthetic taxi workload and prints them.
//
// Usage:
//
//	experiments [fig5|fig6|fig7|fig8|pruning|all] [-taxis 600] [-ticks 288]
//	            [-crowds 40] [-seed 1]
//
// Every table corresponds to one figure of the paper (pruning to the
// pruning-effect discussion of §IV); the TestFig*Shapes tests of
// internal/experiments check each table's shape against the published one.
// A non-positive -taxis, -ticks or -crowds, or an unknown subcommand, is a
// usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		taxis  = flag.Int("taxis", 600, "taxis in the synthetic workload")
		ticks  = flag.Int("ticks", 288, "ticks per synthetic day")
		crowds = flag.Int("crowds", 40, "crowds averaged per Fig 7/8b data point")
		seed   = flag.Int64("seed", 1, "workload seed")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [fig5|fig6|fig7|fig8|pruning|all] [flags]\n")
		flag.PrintDefaults()
	}
	usageError := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", a...)
		flag.Usage()
		os.Exit(2)
	}
	// Allow the subcommand before or after flags.
	which, named := "all", false
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		which, args, named = args[0], args[1:], true
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		if named || flag.NArg() > 1 {
			usageError("unexpected arguments %q", flag.Args())
		}
		which = flag.Arg(0)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"taxis", *taxis}, {"ticks", *ticks}, {"crowds", *crowds}} {
		if f.v <= 0 {
			usageError("-%s must be positive, got %d", f.name, f.v)
		}
	}

	sc := experiments.DefaultScale()
	sc.Taxis = *taxis
	sc.TicksPerDay = *ticks
	sc.Fig7Crowds = *crowds
	sc.Fig8Crowds = *crowds
	sc.Seed = *seed

	var tables []experiments.Table
	switch which {
	case "fig5":
		a, b := experiments.Fig5(sc)
		tables = []experiments.Table{a, b}
	case "fig6":
		tables = experiments.Fig6(sc)
	case "fig7":
		tables = experiments.Fig7(sc)
	case "fig8":
		tables = experiments.Fig8(sc)
	case "pruning":
		tables = []experiments.Table{experiments.Pruning(sc)}
	case "all":
		tables = experiments.All(sc)
	default:
		usageError("unknown subcommand %q", which)
	}
	for i := range tables {
		tables[i].Fprint(os.Stdout)
	}
}
