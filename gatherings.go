// Package gatherings discovers gathering patterns from moving-object
// trajectories, reproducing Zheng, Zheng, Yuan and Shang: "On Discovery of
// Gathering Patterns from Trajectories", ICDE 2013.
//
// A gathering models a durable group incident — a celebration, parade,
// traffic jam — as a crowd (a sequence of density-based snapshot clusters
// at consecutive time ticks whose shape and location stay stable under the
// Hausdorff distance) that additionally keeps, at every tick, at least mp
// participators: objects committed to the event for at least kp (possibly
// non-consecutive) ticks.
//
// # Quick start
//
//	db := ...              // *gatherings.DB with trajectories + time domain
//	cfg := gatherings.DefaultConfig()
//	res, err := gatherings.Discover(db, cfg)
//	for i, cr := range res.Crowds {
//		for _, g := range res.Gatherings[i] {
//			fmt.Println(cr, g.Lo, g.Hi, g.Participators)
//		}
//	}
//
// For streaming arrivals, use Store: it keeps the saved candidate state of
// §III-C and extends crowds and gatherings incrementally as batches are
// appended. For concurrent serving — many writers and readers at once —
// use Engine, which keeps one incremental store behind a two-stage ingest
// pipeline with a bounded queue, and answers snapshot queries filtered by
// time window and bounding box.
package gatherings

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/incremental"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// Re-exported data model types.
type (
	// Point is a planar location in metres.
	Point = geo.Point
	// Rect is an axis-aligned rectangle (MBR).
	Rect = geo.Rect
	// ObjectID identifies a moving object.
	ObjectID = trajectory.ObjectID
	// Tick indexes the discrete time domain.
	Tick = trajectory.Tick
	// Sample is one timestamped location of a trajectory.
	Sample = trajectory.Sample
	// Trajectory is a moving object's polyline.
	Trajectory = trajectory.Trajectory
	// TimeDomain is the uniform discrete time domain TDB.
	TimeDomain = trajectory.TimeDomain
	// DB is a moving-object database.
	DB = trajectory.DB

	// Cluster is a snapshot cluster (Definition 1).
	Cluster = snapshot.Cluster
	// CDB is the per-tick snapshot cluster database.
	CDB = snapshot.CDB
	// Crowd is a sequence of snapshot clusters at consecutive ticks
	// (Definition 2).
	Crowd = crowd.Crowd
	// Gathering is a closed gathering inside a crowd (Definition 4).
	Gathering = gathering.Gathering

	// Config carries all pipeline thresholds; see DefaultConfig.
	Config = core.Config
	// Result is a full discovery outcome.
	Result = core.Discovery
)

// DefaultConfig returns the paper's §IV defaults: DBSCAN ε = 200 m, m = 5;
// mc = 15, kc = 20 ticks, δ = 300 m; kp = 15, mp = 10; grid searcher and
// TAD* detector.
func DefaultConfig() Config { return core.Default() }

// Discover runs the full three-phase pipeline: snapshot clustering, closed
// crowd discovery, closed gathering detection.
func Discover(db *DB, cfg Config) (*Result, error) {
	return core.Discover(db, cfg)
}

// BuildCDB runs only the snapshot-clustering phase. Use with DiscoverCDB
// to reuse a cluster database across parameter sweeps.
func BuildCDB(db *DB, cfg Config) *CDB {
	return core.BuildCDB(db, cfg)
}

// DiscoverCDB runs crowd discovery and gathering detection on an existing
// cluster database.
func DiscoverCDB(cdb *CDB, cfg Config) (*Result, error) {
	return core.DiscoverCDB(cdb, cfg)
}

// Participators returns the objects appearing in at least kp clusters of
// the crowd (Definition 3).
func Participators(cr *Crowd, kp int) []ObjectID {
	return gathering.Participators(cr, kp)
}

// NewCrowd builds a crowd over a cluster run. Crowds are persistent
// (immutable, prefix-sharing) structures; the slice is handed over to the
// crowd and must not be mutated afterwards. Read it back with
// Crowd.Clusters, Crowd.At and Crowd.Lifetime.
func NewCrowd(start Tick, clusters []*Cluster) *Crowd {
	return crowd.New(start, clusters)
}

// Store maintains closed crowds and gatherings incrementally as batches of
// new trajectory data arrive (§III-C): crowd candidates ending at the most
// recent tick are saved and resumed, and gathering detection on extended
// crowds reuses previously found gatherings (Theorem 2).
//
// A Store is not safe for concurrent use: it is the single-goroutine
// facade over the incremental pipeline. For concurrent ingest and
// queries use engine.Engine, which owns the lock guarding the underlying
// state.
type Store struct {
	cfg   Config
	inner *incremental.Store
}

// NewStore creates an empty incremental store with the given pipeline
// configuration.
func NewStore(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := incremental.New(
		crowd.Params{MC: cfg.MC, KC: cfg.KC, Delta: cfg.Delta},
		gathering.Params{KC: cfg.KC, KP: cfg.KP, MP: cfg.MP},
		cfg.SearcherFactory(),
	)
	if err != nil {
		return nil, err
	}
	return &Store{cfg: cfg, inner: inner}, nil
}

// Append ingests one batch of trajectories covering the next
// batch.Domain.N ticks and brings crowds and gatherings up to date.
func (s *Store) Append(batch *DB) {
	cdb := core.BuildCDB(batch, s.cfg)
	s.inner.Append(cdb)
}

// AppendCDB ingests a pre-clustered batch.
func (s *Store) AppendCDB(batch *CDB) { s.inner.Append(batch) }

// Ticks returns the number of ticks ingested so far.
func (s *Store) Ticks() int { return s.inner.Ticks() }

// Crowds returns the current closed crowds. The slice is shared with the
// store and valid until the next Append; copy it to retain it across
// appends. (Crowds themselves are immutable.)
func (s *Store) Crowds() []*Crowd { return s.inner.Crowds() }

// Gatherings returns the closed gatherings per closed crowd, parallel to
// Crowds. Like Crowds, the top-level slice is shared with the store and
// valid until the next Append.
func (s *Store) Gatherings() [][]*Gathering { return s.inner.Gatherings() }

// AllGatherings returns every current closed gathering.
func (s *Store) AllGatherings() []*Gathering { return s.inner.FlatGatherings() }

// Save serialises the store's incremental state (closed crowds,
// gatherings, the resumable candidate set and the snapshot clusters they
// reference) so discovery can continue in a later process via LoadStore.
// The output is one versioned, checksummed section (version 2); see
// internal/incremental for its layout.
func (s *Store) Save(w io.Writer) error { return s.inner.Save(w) }

// LoadStore restores a store saved with Save, reading r to its end. The
// configuration supplies the searcher; the thresholds are restored from
// the snapshot itself. A corrupt section, or one saved in another format
// version (version 1 was encoding/gob), is refused with an error.
func LoadStore(r io.Reader, cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gatherings: reading store: %w", err)
	}
	inner, err := incremental.Load(data, cfg.SearcherFactory())
	if err != nil {
		return nil, err
	}
	return &Store{cfg: cfg, inner: inner}, nil
}

// ReadTrajectoriesCSV parses trajectories from CSV rows "id,time,x,y"
// (header optional, any row order).
func ReadTrajectoriesCSV(r io.Reader) ([]Trajectory, error) {
	return trajectory.ReadCSV(r)
}

// WriteTrajectoriesCSV writes trajectories in the format accepted by
// ReadTrajectoriesCSV.
func WriteTrajectoriesCSV(w io.Writer, trajs []Trajectory) error {
	return trajectory.WriteCSV(w, trajs)
}
