package gatherings_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	gatherings "repro"
)

// TestEnginePublicAPI drives the exported Engine end to end: configure,
// ingest concurrently with queries, flush, snapshot, close.
func TestEnginePublicAPI(t *testing.T) {
	db := testWorkload()

	cfg := gatherings.DefaultEngineConfig()
	cfg.Pipeline = testConfig()
	cfg.Shards = 2
	cfg.Workers = 2
	eng, err := gatherings.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reader alongside the ingest
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				res := eng.Snapshot(gatherings.EngineQuery{GatheringsOnly: true})
				if len(res.Crowds) != len(res.Gatherings) {
					t.Error("ragged snapshot")
					return
				}
			}
		}
	}()

	for _, b := range db.Batches(db.Domain.N / 4) {
		if err := eng.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	close(stop)
	wg.Wait()

	if eng.Ticks() != db.Domain.N {
		t.Fatalf("engine ingested %d ticks, want %d", eng.Ticks(), db.Domain.N)
	}

	// The engine must find the planted jam, like Store does.
	res := eng.Snapshot(gatherings.EngineQuery{GatheringsOnly: true})
	if len(res.AllGatherings()) == 0 {
		t.Fatal("engine found no gatherings in a workload with a planted jam")
	}
	snap := eng.Counters().Snapshot()
	if snap.BatchesEnqueued != 4 || snap.TicksIngested != uint64(db.Domain.N) {
		t.Fatalf("counters off: %+v", snap)
	}
}

// TestDefaultEngineIsOneStore: an engine at DefaultEngineConfig is one
// incremental store. Fed several batches, it answers the same closed
// crowds and gatherings as a Store given the same cluster databases, and
// its checkpoint holds exactly one store section, byte-equal to that
// Store's Save.
func TestDefaultEngineIsOneStore(t *testing.T) {
	db := testWorkload()
	cfg := gatherings.DefaultEngineConfig()
	if cfg.Shards != 1 {
		t.Fatalf("DefaultEngineConfig().Shards = %d, want 1", cfg.Shards)
	}
	cfg.Pipeline = testConfig()
	eng, err := gatherings.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := gatherings.NewStore(cfg.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	batches := db.Batches(db.Domain.N / 6)
	for _, b := range batches {
		if err := eng.Append(b); err != nil {
			t.Fatal(err)
		}
		st.AppendCDB(gatherings.BuildCDB(b, cfg.Pipeline))
	}
	eng.Flush()

	res := eng.Snapshot(gatherings.EngineQuery{})
	got := crowdSigs(res.Crowds, res.Gatherings)
	want := crowdSigs(st.Crowds(), st.Gatherings())
	if len(res.AllGatherings()) == 0 {
		t.Fatal("no gatherings over a workload with planted jams; the comparison is vacuous")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("engine after %d batches:\n%s\nstore:\n%s", len(batches), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	var ckpt, saved bytes.Buffer
	if err := eng.SaveState(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var head struct {
		Sections uint32
		Len      uint64
	}
	if err := binary.Read(&ckpt, binary.LittleEndian, &head); err != nil {
		t.Fatal(err)
	}
	if head.Sections != 1 || head.Len != uint64(ckpt.Len()) || !bytes.Equal(ckpt.Bytes(), saved.Bytes()) {
		t.Fatalf("checkpoint: %d sections, first %d of %d remaining bytes; want 1 section equal to the store's %d-byte Save",
			head.Sections, head.Len, ckpt.Len(), saved.Len())
	}
}

// crowdSigs renders each closed crowd (its start and per-tick members)
// with its gatherings, sorted, so answers compare regardless of order.
func crowdSigs(crowds []*gatherings.Crowd, gs [][]*gatherings.Gathering) []string {
	out := make([]string, len(crowds))
	for i, cr := range crowds {
		var b strings.Builder
		fmt.Fprintf(&b, "crowd@%d", cr.Start)
		for _, cl := range cr.Clusters() {
			fmt.Fprintf(&b, " %v", cl.Objects)
		}
		for _, g := range gs[i] {
			fmt.Fprintf(&b, " | gathering [%d,%d) %v", g.Lo, g.Hi, g.Participators)
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}
