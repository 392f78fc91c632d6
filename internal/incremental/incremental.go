// Package incremental maintains closed crowds and closed gatherings under
// periodic batch arrivals of new trajectory data (§III-C). Instead of
// re-running discovery from scratch after each batch, a Store keeps
//
//   - the closed crowds found so far and their gatherings,
//   - the saved candidate set CS: every cluster sequence that ends at the
//     most recent tick — the only sequences a new batch can extend
//     (Lemma 4),
//   - for each live closed crowd in CS, its gathering Detector: the bit
//     vector signatures and participation counts, grown in place by each
//     batch's new ticks.
//
// Appending a batch resumes Algorithm 1 from the saved candidates (crowd
// extension is O(1) per cluster — crowds are persistent structures sharing
// their prefix), and gathering detection on extended crowds extends the
// cached detector and reuses the old crowd's gatherings through the update
// rule of Theorem 2. Per-batch cost is therefore proportional to the batch
// rather than to the stream age.
//
// The store keeps no cluster database. Lemma 4 says a batch can only
// extend candidates that end at the last tick, and a resumed sweep reads
// nothing of the past but those candidates' last clusters; an answer
// reads only the clusters its crowds and gatherings hold. So after each
// Append the store retains its time domain and the snapshot clusters
// reachable from its interior crowds, gatherings and tail candidates, and
// nothing else: every other cluster of the batch is garbage once Append
// returns. The cut is lossless, since no later Append or read can reach
// the clusters it drops, and it makes retained memory and checkpoint
// size grow with the crowds found rather than with the stream age.
package incremental

import (
	"fmt"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// Store is the incremental discovery state. Create one with New, feed it
// cluster batches with Append, and read the current answer from Crowds and
// Gatherings. It retains the time domain and the clusters its crowds and
// gatherings reference, never a per-tick cluster list (the package doc
// says why that loses nothing). A Store is not safe for concurrent use:
// inside the engine the engine's lock guards searcher, interior,
// interiorGathers, tail, tailGathers, tailDetectors and the three read
// caches.
type Store struct {
	crowdParams  crowd.Params
	gatherParams gathering.Params
	// searcher is reused across Appends: searchers carry per-sweep state
	// keyed to the previous Prepare, and for a resumed sweep the previous
	// Prepare was the last tick of the previous batch — exactly the tick
	// the saved candidates’ last clusters live at, so cross-batch reuse is
	// both safe and what the grid scheme's decomposition cache wants.
	searcher crowd.Searcher

	// domain is the time domain ingested so far. It is all the store
	// keeps of past ticks besides the clusters its crowds reference.
	domain trajectory.TimeDomain

	// closed crowds whose last cluster is strictly before the most recent
	// tick; they can never be extended again (Lemma 4).
	interior        []*crowd.Crowd
	interiorGathers [][]*gathering.Gathering

	// candidates ending at the most recent tick (the set CS), including
	// those long enough to currently count as closed crowds. They are
	// immutable like every crowd: the next Append extends them into new
	// nodes, so Crowds hands them out as they are.
	tail []*crowd.Crowd
	// gatherings of tail members that are closed crowds, reused by the
	// gathering update when the crowd is extended.
	tailGathers map[*crowd.Crowd][]*gathering.Gathering
	// detectors of tail members that are closed crowds, extended in place
	// (or cloned, when a candidate branches) by the next Append.
	tailDetectors map[*crowd.Crowd]*gathering.Detector

	// crowdsCache/gathersCache memoize the Crowds()/Gatherings() answers:
	// the interior prefix is append-only, so only the tail suffix is
	// rebuilt per Append and steady-state reads allocate nothing.
	crowdsCache    []*crowd.Crowd
	gathersCache   [][]*gathering.Gathering
	cachedInterior int
}

// New creates an empty store. newSearcher constructs the store's range
// searcher, reused across every Append.
func New(cp crowd.Params, gp gathering.Params, newSearcher func() crowd.Searcher) (*Store, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if err := gp.Validate(); err != nil {
		return nil, err
	}
	if newSearcher == nil {
		return nil, fmt.Errorf("incremental: nil searcher factory")
	}
	return &Store{
		crowdParams:   cp,
		gatherParams:  gp,
		searcher:      newSearcher(),
		tailGathers:   map[*crowd.Crowd][]*gathering.Gathering{},
		tailDetectors: map[*crowd.Crowd]*gathering.Detector{},
	}, nil
}

// Ticks returns the number of ticks ingested so far.
func (s *Store) Ticks() int { return s.domain.N }

// Params returns the crowd and gathering parameter sets the store was
// created (or Loaded) with. Recovery uses them to refuse restoring a
// checkpoint into an engine configured with different thresholds.
func (s *Store) Params() (crowd.Params, gathering.Params) {
	return s.crowdParams, s.gatherParams
}

// Append ingests one batch of snapshot clusters (batch tick 0 becomes the
// tick after the current domain) and brings crowds and gatherings up to
// date. The store keeps only the batch clusters its crowds take up; it
// does not retain batch itself.
func (s *Store) Append(batch *snapshot.CDB) {
	oldN := trajectory.Tick(s.domain.N)
	if s.domain.N == 0 {
		s.domain = trajectory.TimeDomain{Start: batch.Domain.Start, Step: batch.Domain.Step}
	}
	s.domain = s.domain.Extend(batch.Domain.N)

	res := crowd.DiscoverFrom(batch, oldN, s.tail, s.crowdParams, s.searcher)

	// A cached detector is extended destructively, so when an old
	// candidate branched into several closed crowds every claimant but the
	// last must clone it first. Count the claims up front.
	var claims map[*crowd.Crowd]int
	for _, cr := range res.Crowds {
		if o := originOf(cr, oldN); o != nil && o != cr {
			if _, ok := s.tailDetectors[o]; ok {
				if claims == nil {
					claims = make(map[*crowd.Crowd]int)
				}
				claims[o]++
			}
		}
	}

	// Crowds that closed during this sweep before the new last tick become
	// interior: they are final. Crowds still ending at the last tick stay
	// in the tail and may be extended by the next batch; their gatherings
	// and detectors are cached for the update rule.
	lastTick := trajectory.Tick(s.domain.N - 1)
	newTailGathers := make(map[*crowd.Crowd][]*gathering.Gathering, len(res.Tail))
	newTailDetectors := make(map[*crowd.Crowd]*gathering.Detector, len(res.Tail))
	for _, cr := range res.Crowds {
		gs, det := s.detect(cr, originOf(cr, oldN), claims)
		if cr.End() < lastTick {
			s.interior = append(s.interior, cr)
			s.interiorGathers = append(s.interiorGathers, gs)
		} else {
			newTailGathers[cr] = gs
			if det != nil {
				newTailDetectors[cr] = det
			}
		}
	}
	s.tail = res.Tail
	s.tailGathers = newTailGathers
	s.tailDetectors = newTailDetectors
	s.refreshCaches()
}

// originOf returns the old tail candidate that cr grew from when
// discovery resumed at tick from: cr's prefix of lifetime from − Start,
// which is cr itself when the batch did not extend it. A crowd started at
// or after from has none.
func originOf(cr *crowd.Crowd, from trajectory.Tick) *crowd.Crowd {
	if cr.Start >= from {
		return nil
	}
	return cr.Prefix(int(from - cr.Start))
}

// detect finds the closed gatherings of cr and the detector that now
// covers it, using the gathering update of Theorem 2 when cr extends the
// old candidate origin and it has cached gatherings, and the cached
// extendable detector when one exists.
func (s *Store) detect(cr, origin *crowd.Crowd, claims map[*crowd.Crowd]int) ([]*gathering.Gathering, *gathering.Detector) {
	if origin != nil && origin != cr {
		if oldGs, ok := s.tailGathers[origin]; ok {
			det := s.tailDetectors[origin]
			if det != nil {
				if claims[origin] > 1 {
					claims[origin]--
					det = det.Clone()
				}
				det.Extend(cr)
			} else {
				det = gathering.NewDetector(cr, s.gatherParams)
			}
			return det.RunIncremental(origin.Lifetime(), oldGs), det
		}
	}
	if origin == cr {
		// Unextended old candidate (an empty batch): its gatherings and
		// detector are unchanged.
		if oldGs, ok := s.tailGathers[origin]; ok {
			return oldGs, s.tailDetectors[origin]
		}
	}
	det := gathering.NewDetector(cr, s.gatherParams)
	return det.Run(), det
}

// refreshCaches rebuilds the memoized Crowds/Gatherings answers. The
// interior prefix is stable — only entries added by this Append are
// appended — and the tail suffix is recomputed.
func (s *Store) refreshCaches() {
	s.crowdsCache = s.crowdsCache[:s.cachedInterior]
	s.gathersCache = s.gathersCache[:s.cachedInterior]
	for i := s.cachedInterior; i < len(s.interior); i++ {
		s.crowdsCache = append(s.crowdsCache, s.interior[i])
		s.gathersCache = append(s.gathersCache, s.interiorGathers[i])
	}
	s.cachedInterior = len(s.interior)
	for _, c := range s.tail {
		if c.Lifetime() >= s.crowdParams.KC {
			s.crowdsCache = append(s.crowdsCache, c)
			s.gathersCache = append(s.gathersCache, s.tailGathers[c])
		}
	}
}

// Crowds returns the current closed crowds: the interior ones plus every
// tail candidate long enough to be a crowd. The returned slice is shared
// with the store and valid until the next Append; callers that retain it
// across appends must copy it. The crowds themselves are immutable.
func (s *Store) Crowds() []*crowd.Crowd { return s.crowdsCache }

// Gatherings returns the closed gatherings of every current closed crowd,
// in the same order as Crowds. As with Crowds, the top-level slice is
// shared and valid until the next Append (the per-crowd gathering lists
// themselves are immutable).
func (s *Store) Gatherings() [][]*gathering.Gathering { return s.gathersCache }

// FlatGatherings returns all current closed gatherings as one slice.
func (s *Store) FlatGatherings() []*gathering.Gathering {
	var out []*gathering.Gathering
	for _, gs := range s.Gatherings() {
		out = append(out, gs...)
	}
	return out
}
