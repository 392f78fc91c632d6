// Package core wires the three phases of the paper's framework (§III)
// into one pipeline: snapshot clustering (DBSCAN per tick), closed crowd
// discovery (Algorithm 1 with a pluggable range-search scheme) and closed
// gathering detection (TAD* with bit vector signatures). It is the engine
// behind the public gatherings package, the CLI tools and the experiment
// harness.
package core

import (
	"fmt"
	"sync"

	"repro/internal/crowd"
	"repro/internal/dbscan"
	"repro/internal/gathering"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// Config carries every threshold of the pipeline. The field names follow
// the paper's notation (Table I).
type Config struct {
	// Snapshot clustering (Definition 1): DBSCAN ε in metres and density
	// threshold m.
	Eps    float64
	MinPts int

	// Crowd discovery (Definition 2): support threshold mc, lifetime
	// threshold kc (ticks), variation threshold δ (metres).
	MC    int
	KC    int
	Delta float64

	// Gathering detection (Definitions 3–4): participator lifetime kp
	// (ticks) and support threshold mp.
	KP int
	MP int

	// Searcher selects the RangeSearch scheme: "brute", "sr", "ir" or
	// "grid" (default).
	Searcher string

	// Parallelism fans snapshot clustering and per-crowd gathering
	// detection across this many goroutines. Values < 2 run sequentially.
	Parallelism int
}

// Default returns the paper's default parameter setting (§IV) with the
// grid searcher and TAD*.
func Default() Config {
	return Config{
		Eps: 200, MinPts: 5,
		MC: 15, KC: 20, Delta: 300,
		KP: 15, MP: 10,
		Searcher: "grid",
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Eps <= 0 || c.MinPts < 1 {
		return fmt.Errorf("core: bad DBSCAN params eps=%v minpts=%d", c.Eps, c.MinPts)
	}
	if err := c.crowdParams().Validate(); err != nil {
		return err
	}
	if err := c.gatherParams().Validate(); err != nil {
		return err
	}
	_, err := c.newSearcher()
	return err
}

func (c Config) crowdParams() crowd.Params {
	return crowd.Params{MC: c.MC, KC: c.KC, Delta: c.Delta}
}

func (c Config) gatherParams() gathering.Params {
	return gathering.Params{KC: c.KC, KP: c.KP, MP: c.MP}
}

// SearcherName returns the effective range-search scheme, applying the
// "grid" default for an empty Searcher field. It is the single owner of
// that fallback; callers must not re-implement it.
func (c Config) SearcherName() string {
	if c.Searcher == "" {
		return "grid"
	}
	return c.Searcher
}

func (c Config) newSearcher() (crowd.Searcher, error) {
	return crowd.NewSearcher(c.SearcherName(), c.Delta)
}

// SearcherFactory returns a constructor for fresh searchers of the
// configured scheme (searchers carry per-sweep state, so the incremental
// and streaming layers need a new one per Append). It panics on an
// unknown scheme; call Validate first.
func (c Config) SearcherFactory() func() crowd.Searcher {
	return func() crowd.Searcher {
		s, err := c.newSearcher()
		if err != nil {
			panic(err) // callers validate the config up front
		}
		return s
	}
}

// Discovery is the output of a pipeline run.
type Discovery struct {
	// CDB is the snapshot-cluster database produced by phase 1.
	CDB *snapshot.CDB
	// Crowds are the closed crowds of phase 2.
	Crowds []*crowd.Crowd
	// Gatherings holds, for each closed crowd (parallel to Crowds), its
	// closed gatherings.
	Gatherings [][]*gathering.Gathering
}

// AllGatherings flattens the per-crowd gathering lists.
func (d *Discovery) AllGatherings() []*gathering.Gathering {
	var out []*gathering.Gathering
	for _, gs := range d.Gatherings {
		out = append(out, gs...)
	}
	return out
}

// Discover runs the full pipeline on a trajectory database.
func Discover(db *trajectory.DB, cfg Config) (*Discovery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cdb := BuildCDB(db, cfg)
	return DiscoverCDB(cdb, cfg)
}

// BuildCDB runs phase 1 only: per-tick DBSCAN.
func BuildCDB(db *trajectory.DB, cfg Config) *snapshot.CDB {
	return snapshot.Build(db, cfg.SnapshotOptions(0))
}

// SnapshotOptions returns the phase-1 clustering options implied by the
// config. A positive parallelism overrides cfg.Parallelism — the streaming
// engine passes its worker count so a per-batch global build uses the
// whole pool.
func (c Config) SnapshotOptions(parallelism int) snapshot.Options {
	if parallelism <= 0 {
		parallelism = c.Parallelism
	}
	return snapshot.Options{
		DBSCAN:      dbscan.Params{Eps: c.Eps, MinPts: c.MinPts},
		Parallelism: parallelism,
	}
}

// DiscoverCDB runs phases 2 and 3 on an existing cluster database.
func DiscoverCDB(cdb *snapshot.CDB, cfg Config) (*Discovery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := cfg.newSearcher()
	if err != nil {
		return nil, err
	}
	res := crowd.Discover(cdb, cfg.crowdParams(), s)

	d := &Discovery{
		CDB:        cdb,
		Crowds:     res.Crowds,
		Gatherings: make([][]*gathering.Gathering, len(res.Crowds)),
	}
	gp := cfg.gatherParams()
	if cfg.Parallelism < 2 || len(res.Crowds) < 2 {
		for i, cr := range res.Crowds {
			d.Gatherings[i] = gathering.TADStar(cr, gp)
		}
		return d, nil
	}

	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				d.Gatherings[i] = gathering.TADStar(res.Crowds[i], gp)
			}
		}()
	}
	for i := range res.Crowds {
		work <- i
	}
	close(work)
	wg.Wait()
	return d, nil
}
