package recovery

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

func testPipeline() core.Config {
	return core.Config{
		Eps: 200, MinPts: 5,
		MC: 8, KC: 8, Delta: 300,
		KP: 6, MP: 6,
		Searcher: "grid",
	}
}

func newEngine(t *testing.T, shards int) *engine.Engine {
	t.Helper()
	pipe := testPipeline()
	e, err := engine.New(engine.Config{
		Pipeline:    pipe,
		Shards:      shards,
		Partitioner: engine.GridCell{CellSize: 3000, Halo: 4 * pipe.Delta},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func workload(t *testing.T) []*trajectory.DB {
	t.Helper()
	db := experiments.Workload(experiments.Scale{Taxis: 200, TicksPerDay: 96, Seed: 1}, gen.Clear)
	return db.Batches(12)
}

func sigs(e *engine.Engine) []string {
	gs := e.Snapshot(engine.Query{}).AllGatherings()
	out := make([]string, 0, len(gs))
	for _, g := range gs {
		out = append(out, fmt.Sprintf("%d-%d:%v", g.Crowd.Start, g.Crowd.End(), g.Participators))
	}
	sort.Strings(out)
	return out
}

func sameSigs(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d gatherings, want %d", what, len(got), len(want))
	}
	w := make(map[string]bool, len(want))
	for _, s := range want {
		w[s] = true
	}
	for _, s := range got {
		if !w[s] {
			t.Errorf("%s: extra gathering %s", what, s)
		}
	}
	g := make(map[string]bool, len(got))
	for _, s := range got {
		g[s] = true
	}
	for _, s := range want {
		if !g[s] {
			t.Errorf("%s: missing gathering %s", what, s)
		}
	}
}

// feed pushes batches [from, to) through the Log → Append → Applied
// protocol, the same sequence gatherserve's ingest loop runs per admitted
// batch.
func feed(t *testing.T, m *Manager, e *engine.Engine, batches []*trajectory.DB, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := m.Log(uint64(i), batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := e.Append(batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.Applied(); err != nil {
			t.Fatal(err)
		}
	}
}

var _ = gathering.Gathering{} // keep the import tied to the sig format

// TestCrashRecoveryParity is the ISSUE's kill-and-restore test: a process
// killed mid-stream (checkpoint behind, tail of the stream only in the
// WAL, one batch logged but never applied) restores, finishes the stream,
// and lands on the identical gathering set as an uninterrupted run.
func TestCrashRecoveryParity(t *testing.T) {
	batches := workload(t)
	if len(batches) != 8 {
		t.Fatalf("workload sliced into %d batches, the test plan expects 8", len(batches))
	}

	base := newEngine(t, 4)
	defer base.Close()
	for _, b := range batches {
		if err := base.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	base.Flush()
	want := sigs(base)
	if len(want) == 0 {
		t.Fatal("baseline run found no gatherings; parity would be vacuous")
	}

	dir := t.TempDir()
	rc := &stats.ResilienceCounters{}
	opts := Options{
		CheckpointPath: filepath.Join(dir, "ckpt"),
		WALPath:        filepath.Join(dir, "wal"),
		Every:          3,
		Counters:       rc,
	}

	// First incarnation: 5 batches applied (checkpoint lands at 3), then
	// batch 5 is logged but the process "dies" before applying it — the
	// worst-case crash window of the write-ahead protocol. No Close: a
	// crash never closes.
	e1 := newEngine(t, 4)
	m1, err := Open(e1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m1.NextSeq() != 0 {
		t.Fatalf("fresh Open: NextSeq = %d, want 0", m1.NextSeq())
	}
	feed(t, m1, e1, batches, 0, 5)
	if err := m1.Log(5, batches[5]); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Second incarnation: restore + replay (batches 3, 4 from the WAL and
	// the orphaned 5), then finish the stream and shut down cleanly.
	e2 := newEngine(t, 4)
	m2, err := Open(e2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NextSeq() != 6 {
		t.Fatalf("recovered NextSeq = %d, want 6 (checkpoint 3 + WAL 3,4,5)", m2.NextSeq())
	}
	if n := rc.WALReplayed.Load(); n != 3 {
		t.Errorf("WALReplayed = %d, want 3", n)
	}
	feed(t, m2, e2, batches, 6, 8)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	e2.Flush()
	sameSigs(t, sigs(e2), want, "recovered run")
	e2.Close()

	if rc.CheckpointsWritten.Load() < 2 {
		t.Errorf("CheckpointsWritten = %d, want at least 2 (periodic + post-replay/final)",
			rc.CheckpointsWritten.Load())
	}

	// Third incarnation: everything is in the final checkpoint, nothing in
	// the WAL; the state comes back without a single append.
	e3 := newEngine(t, 4)
	m3, err := Open(e3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m3.NextSeq() != 8 {
		t.Fatalf("post-close NextSeq = %d, want 8", m3.NextSeq())
	}
	sameSigs(t, sigs(e3), want, "checkpoint-only restart")
	if err := m3.Close(); err != nil {
		t.Fatal(err)
	}
	e3.Close()
}

// TestNoPathsIsPassThrough: a Manager with neither checkpoint nor WAL
// configured is a no-op — gatherserve runs exactly as before when the
// durability flags are off.
func TestNoPathsIsPassThrough(t *testing.T) {
	e := newEngine(t, 2)
	defer e.Close()
	m, err := Open(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := workload(t)
	feed(t, m, e, batches, 0, 2)
	if m.NextSeq() != 2 {
		t.Fatalf("NextSeq = %d, want 2", m.NextSeq())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardCountMismatch: restoring a checkpoint into an engine with a
// different -shards must fail loudly instead of guessing.
func TestShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CheckpointPath: filepath.Join(dir, "ckpt")}
	batches := workload(t)

	e1 := newEngine(t, 2)
	m1, err := Open(e1, opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m1, e1, batches, 0, 2)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := newEngine(t, 4)
	defer e2.Close()
	if _, err := Open(e2, opts); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("Open with mismatched shard count: err = %v, want a -shards complaint", err)
	}
}

// TestLogOutOfOrder: the WAL protocol is ordered by contract; a sequence
// skip is a caller bug and must error, not corrupt the log.
func TestLogOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, 2)
	defer e.Close()
	m, err := Open(e, Options{WALPath: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	batches := workload(t)
	if err := m.Log(1, batches[1]); err == nil {
		t.Fatal("Log accepted sequence 1 before sequence 0")
	}
}

// TestWALPredatingCheckpoint: a WAL whose records jump past the restored
// frontier signals mismatched files; Open must refuse rather than leave a
// silent gap in the stream.
func TestWALPredatingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		CheckpointPath: filepath.Join(dir, "ckpt"),
		WALPath:        filepath.Join(dir, "wal"),
	}
	batches := workload(t)

	e1 := newEngine(t, 2)
	m1, err := Open(e1, opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m1, e1, batches, 0, 3)
	if err := m1.Close(); err != nil { // checkpoint at 3, WAL reset
		t.Fatal(err)
	}
	e1.Close()

	// Sneak a far-future record into the (now empty) WAL, as if the
	// checkpoint belonged to some other run.
	w, err := wal.Open(opts.WALPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(10, batches[3]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t, 2)
	defer e2.Close()
	if _, err := Open(e2, opts); err == nil || !strings.Contains(err.Error(), "jumps") {
		t.Fatalf("Open over a mismatched WAL: err = %v, want a sequence-jump complaint", err)
	}
}

// writeCheckpoint feeds a 2-shard engine two sites in different grid
// cells, each parking 8 objects for 12 ticks, in two batches, and returns
// the small checkpoint its Close writes: a gathering on each site.
func writeCheckpoint(t *testing.T) []byte {
	t.Helper()
	db := &trajectory.DB{Domain: trajectory.TimeDomain{Step: 1, N: 12}}
	for _, x := range []float64{1000, 5000} {
		for k := 0; k < 8; k++ {
			tr := trajectory.Trajectory{ID: trajectory.ObjectID(len(db.Trajs))}
			for tick := 0; tick < 12; tick++ {
				tr.Samples = append(tr.Samples, trajectory.Sample{Time: float64(tick), P: geo.Point{X: x + 3*float64(k), Y: 1000}})
			}
			db.Trajs = append(db.Trajs, tr)
		}
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	e := newEngine(t, 2)
	defer e.Close()
	m, err := Open(e, Options{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, e, db.Batches(6), 0, 2)
	e.Flush()
	if n := len(sigs(e)); n != 2 {
		t.Fatalf("the checkpointed state has %d gatherings, want one per site", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointByteFlips: every byte of a checkpoint is covered by a
// checksum or checked against the engine, so a checkpoint with any one
// byte corrupted is refused with an error, never restored and never a
// panic.
func TestCheckpointByteFlips(t *testing.T) {
	good := writeCheckpoint(t)
	path := filepath.Join(t.TempDir(), "ckpt")
	// A refused Open leaves the engine as it was (LoadState installs
	// nothing until every shard decodes), so one fresh engine serves every
	// flip until the first one Open accepts, which fails the test.
	e := newEngine(t, 2)
	defer e.Close()
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xff
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			_, err = Open(e, Options{CheckpointPath: path})
			return err
		}()
		if err == nil || strings.HasPrefix(err.Error(), "panic") {
			t.Fatalf("byte %d of %d flipped: Open returned %v, want an error", i, len(good), err)
		}
	}
}

// TestVersion1CheckpointRefused: a checkpoint in the version-1 layout
// (16-byte header, gob shards) is refused with an error naming both
// versions.
func TestVersion1CheckpointRefused(t *testing.T) {
	v1 := []byte(ckptMagic)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 2)
	v1 = append(v1, writeCheckpoint(t)[headerSize:]...)
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, 2)
	defer e.Close()
	_, err := Open(e, Options{CheckpointPath: path})
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("Open of a version-1 checkpoint: %v, want an error naming versions 1 and 2", err)
	}
}
