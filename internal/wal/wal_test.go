package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// testDB builds a deterministic batch with real samples, so the roundtrip
// covers the full encoding: domain, IDs, sample times and coordinates.
func testDB(seq, ticks, trajs int) *trajectory.DB {
	db := &trajectory.DB{Domain: trajectory.TimeDomain{
		Start: float64(seq * ticks), Step: 1, N: ticks,
	}}
	for i := 0; i < trajs; i++ {
		tr := trajectory.Trajectory{
			ID:      trajectory.ObjectID(i),
			Samples: make([]trajectory.Sample, ticks),
		}
		for t := 0; t < ticks; t++ {
			tr.Samples[t] = trajectory.Sample{
				Time: db.Domain.Start + float64(t),
				P:    geo.Point{X: float64(seq*1000 + i*10 + t), Y: float64(i - t)},
			}
		}
		db.Trajs = append(db.Trajs, tr)
	}
	return db
}

type rec struct {
	seq uint64
	db  *trajectory.DB
}

// replayAll reopens the log at path, collecting every intact record, and
// closes it again.
func replayAll(t *testing.T, path string) []rec {
	t.Helper()
	var out []rec
	w, err := Open(path, func(seq uint64, db *trajectory.DB) error {
		out = append(out, rec{seq, db})
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{
		{0, testDB(0, 4, 3)},
		{1, testDB(1, 4, 2)},
		{2, testDB(2, 4, 5)},
	}
	for _, r := range want {
		if err := w.Append(r.seq, r.db); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].seq != want[i].seq {
			t.Errorf("record %d: seq %d, want %d", i, got[i].seq, want[i].seq)
		}
		if !reflect.DeepEqual(got[i].db, want[i].db) {
			t.Errorf("record %d decoded differently:\ngot  %+v\nwant %+v",
				i, got[i].db, want[i].db)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 3; seq++ {
		if err := w.Append(seq, testDB(int(seq), 4, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: the last record loses its final 5 bytes, as if the
	// process died mid-write.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, path)
	if len(got) != 2 || got[0].seq != 0 || got[1].seq != 1 {
		t.Fatalf("torn log replayed %+v records, want intact prefix [0 1]", len(got))
	}
	intact := fi.Size() - int64(frameSize+len(EncodePayload(nil, 2, testDB(2, 4, 2))))
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != intact {
		t.Fatalf("opening the torn log left %d bytes, want the %d-byte intact prefix",
			after.Size(), intact)
	}

	// Reopening truncates the torn bytes and appends cleanly after them.
	w, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, testDB(5, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got = replayAll(t, path)
	if len(got) != 3 || got[2].seq != 5 {
		t.Fatalf("post-repair log replayed %d records (last seq %d), want 3 ending in 5",
			len(got), got[len(got)-1].seq)
	}
}

func TestResetEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, testDB(0, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(7, testDB(7, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 1 || got[0].seq != 7 {
		t.Fatalf("post-reset log replayed %+v, want just seq 7", got)
	}
}

func TestReplayMissingFile(t *testing.T) {
	w, err := Open(filepath.Join(t.TempDir(), "nope"), func(uint64, *trajectory.DB) error {
		t.Fatal("callback fired for a missing log")
		return nil
	})
	if err != nil {
		t.Fatalf("missing log: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	junk := []byte("XXXXXXXXXXXX")
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad header replay error = %v, want ErrCorrupt", err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(junk) {
		t.Fatalf("failed Open rewrote the file: %q", got)
	}
}

// TestAppendAllocs is the ISSUE's hot-path guard: steady-state WAL appends
// reuse the encode buffer and must not allocate per batch.
func TestAppendAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	db := testDB(0, 4, 8)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.Append(seq, db); err != nil {
			t.Fatal(err)
		}
		seq++
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f times per batch, want 0", allocs)
	}
}

// TestRecordCarriesOnlyWindow: feed batches are views over trajectories
// that extend far on both sides of their tick window. The record must
// weigh what the window's own samples do (plus at most the two
// interpolation neighbours per trajectory when the window's ends fall
// between samples), and decode into a batch that snapshots identically.
func TestRecordCarriesOnlyWindow(t *testing.T) {
	const life = 1000
	var trajs []trajectory.Trajectory
	add := func(offset float64, from, to int) {
		tr := trajectory.Trajectory{ID: trajectory.ObjectID(len(trajs))}
		for k := from; k < to; k++ {
			tm := float64(k) + offset
			tr.Samples = append(tr.Samples, trajectory.Sample{
				Time: tm, P: geo.Point{X: float64(k%7) * 3, Y: float64(len(trajs)) + tm/100},
			})
		}
		trajs = append(trajs, tr)
	}
	for i := 0; i < 6; i++ {
		add(0, 0, life) // sampled on every tick
	}
	for i := 0; i < 6; i++ {
		add(0.5, 0, life) // sampled between ticks
	}
	add(0, 0, 400)      // ends before the window
	add(0, 600, life)   // starts after it
	add(0, 0, 502)      // ends inside it
	add(0.5, 501, life) // starts inside it
	full := &trajectory.DB{Trajs: trajs, Domain: trajectory.TimeDomain{Step: 1, N: life}}
	batch := full.SliceTicks(500, 4) // ticks 500..503

	rec := EncodePayload(nil, 9, batch)
	t0, t1 := batch.Domain.Start, batch.Domain.End()
	bound := 8 + 8 + 8 + 4 + 4 // seq, domain, trajectory count
	for i := range batch.Trajs {
		inside, between := 0, false
		for _, s := range batch.Trajs[i].Samples {
			if s.Time >= t0 && s.Time <= t1 {
				inside++
			}
			between = between || s.Time != float64(int(s.Time))
		}
		if inside > 0 {
			bound += 8 + 4 + 24*inside // id, count, samples
			if between {
				bound += 2 * 24
			}
		}
	}
	if len(rec) > bound {
		t.Fatalf("record is %d bytes, window bound %d", len(rec), bound)
	}
	whole := 8 + 8 + 8 + 4 + 4
	for i := range batch.Trajs {
		whole += 8 + 4 + 24*len(batch.Trajs[i].Samples)
	}
	if len(rec)*100 > whole {
		t.Fatalf("record is %d bytes, more than 1%% of the whole trajectories' %d", len(rec), whole)
	}

	seq, got, err := DecodePayload(rec)
	if err != nil || seq != 9 {
		t.Fatalf("DecodePayload: seq %d, err %v", seq, err)
	}
	opt := snapshot.Options{DBSCAN: dbscan.Params{Eps: 5, MinPts: 2}}
	want, have := snapshot.Build(batch, opt), snapshot.Build(got, opt)
	if want.NumClusters() == 0 {
		t.Fatal("workload forms no clusters; the snapshot comparison would be vacuous")
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("decoded batch snapshots differently:\ngot  %v\nwant %v", have.Clusters, want.Clusters)
	}
	if again := EncodePayload(nil, 9, got); !bytes.Equal(again, rec) {
		t.Fatal("re-encoding a decoded record changed it")
	}
	if n := len(got.Trajs); n != 14 {
		t.Fatalf("record carries %d trajectories, want the 14 alive in the window", n)
	}
}

// TestAppendRefusesOversizedRecord: a frame replay would read as a torn
// tail must never be written, or it would hide every later record.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	if err := checkRecordSize(maxRecordSize); err != nil {
		t.Fatalf("limit-sized record refused: %v", err)
	}
	if err := checkRecordSize(maxRecordSize + 1); err == nil {
		t.Fatal("oversized record accepted")
	}
}

// TestDecodedTrajectoriesDoNotAlias: decode puts a record's samples in one
// arena, but each trajectory's window of it has cap == len, so appending
// to a decoded trajectory, as trajectory.DB.Append does when it merges
// the next batch, reallocates instead of overwriting its neighbour.
func TestDecodedTrajectoriesDoNotAlias(t *testing.T) {
	const batches, ticks, trajs = 3, 4, 5
	var dbs []*trajectory.DB
	for seq := 0; seq < batches; seq++ {
		_, db, err := DecodePayload(EncodePayload(nil, uint64(seq), testDB(seq, ticks, trajs)))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range db.Trajs {
			if cap(tr.Samples) != len(tr.Samples) {
				t.Fatalf("batch %d, trajectory %d: %d samples with capacity %d", seq, tr.ID, len(tr.Samples), cap(tr.Samples))
			}
		}
		dbs = append(dbs, db)
	}
	merged := dbs[0]
	for _, db := range dbs[1:] {
		if err := merged.Append(db); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range merged.Trajs {
		var want []trajectory.Sample
		for seq := 0; seq < batches; seq++ {
			want = append(want, testDB(seq, ticks, trajs).Trajs[i].Samples...)
		}
		if !reflect.DeepEqual(tr.Samples, want) {
			t.Fatalf("merged trajectory %d:\n got %v\nwant %v", tr.ID, tr.Samples, want)
		}
	}
	for seq := 1; seq < batches; seq++ {
		if want := testDB(seq, ticks, trajs); !reflect.DeepEqual(dbs[seq].Trajs, want.Trajs) {
			t.Fatalf("merging changed decoded batch %d", seq)
		}
	}
}
