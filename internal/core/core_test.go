package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// smallConfig scales the paper's defaults down to the test workload (fewer
// taxis, 5-minute ticks).
func smallConfig() Config {
	cfg := Default()
	cfg.MC = 8
	cfg.KC = 6
	cfg.KP = 4
	cfg.MP = 5
	return cfg
}

func smallDB() *trajectory.DB {
	g := gen.Default()
	g.NumTaxis = 250
	g.TicksPerDay = 96
	g.JamsPerRegime = [3]int{3, 1, 1}
	return gen.Generate(g)
}

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Eps = 0 },
		func(c *Config) { c.MinPts = 0 },
		func(c *Config) { c.MC = 0 },
		func(c *Config) { c.KC = 0 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.KP = 0 },
		func(c *Config) { c.MP = 0 },
		func(c *Config) { c.Searcher = "bogus" },
	}
	for i, mut := range bad {
		c := Default()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDiscoverEndToEnd(t *testing.T) {
	db := smallDB()
	cfg := smallConfig()
	res, err := Discover(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CDB == nil || res.CDB.Domain.N != db.Domain.N {
		t.Fatal("CDB missing or wrong domain")
	}
	if len(res.Crowds) == 0 {
		t.Fatal("no crowds found on a workload with injected jams")
	}
	if len(res.Gatherings) != len(res.Crowds) {
		t.Fatalf("gathering groups %d != crowds %d", len(res.Gatherings), len(res.Crowds))
	}
	if len(res.AllGatherings()) == 0 {
		t.Fatal("no gatherings found on a workload with injected jams")
	}
	// every gathering satisfies the thresholds
	for _, g := range res.AllGatherings() {
		if g.Lifetime() < cfg.KC {
			t.Fatalf("gathering shorter than kc: %d", g.Lifetime())
		}
		if len(g.Participators) < cfg.MP {
			t.Fatalf("gathering with %d participators < mp", len(g.Participators))
		}
	}
}

// crowdSigs renders crowds as comparable strings.
func crowdSigs(res *Discovery) []string {
	var out []string
	for i, cr := range res.Crowds {
		s := cr.String()
		for _, g := range res.Gatherings[i] {
			s += "|" + g.Crowd.String()
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestSearchersAgreeEndToEnd(t *testing.T) {
	db := smallDB()
	cdb := BuildCDB(db, smallConfig())
	var ref []string
	for _, s := range []string{"brute", "sr", "ir", "grid"} {
		cfg := smallConfig()
		cfg.Searcher = s
		res, err := DiscoverCDB(cdb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sig := crowdSigs(res)
		if ref == nil {
			ref = sig
			continue
		}
		if !reflect.DeepEqual(sig, ref) {
			t.Fatalf("searcher %s disagrees with brute force", s)
		}
	}
}

// TestDetectorsAgreeEndToEnd: on DiscoverCDB's crowds, the brute-force
// and TAD detectors find exactly the gatherings DiscoverCDB's TAD* found.
func TestDetectorsAgreeEndToEnd(t *testing.T) {
	cfg := smallConfig()
	res, err := DiscoverCDB(BuildCDB(smallDB(), cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllGatherings()) == 0 {
		t.Fatal("TAD* found no gatherings; the comparison would be vacuous")
	}
	want := crowdSigs(res)
	for name, detect := range map[string]func(*crowd.Crowd, gathering.Params) []*gathering.Gathering{
		"bruteforce": gathering.BruteForce,
		"tad":        gathering.TAD,
	} {
		other := &Discovery{Crowds: res.Crowds, Gatherings: make([][]*gathering.Gathering, len(res.Crowds))}
		for i, cr := range res.Crowds {
			other.Gatherings[i] = detect(cr, cfg.gatherParams())
		}
		if got := crowdSigs(other); !reflect.DeepEqual(got, want) {
			t.Errorf("detector %s disagrees with TAD*", name)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	db := smallDB()
	cfg := smallConfig()
	seq, err := Discover(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	par, err := Discover(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crowdSigs(seq), crowdSigs(par)) {
		t.Fatal("parallel pipeline disagrees with sequential")
	}
}

func TestDiscoverRejectsInvalidConfig(t *testing.T) {
	db := smallDB()
	cfg := smallConfig()
	cfg.MC = 0
	if _, err := Discover(db, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := DiscoverCDB(&snapshot.CDB{}, cfg); err == nil {
		t.Fatal("invalid config accepted by DiscoverCDB")
	}
}
