package wal

import (
	"path/filepath"
	"testing"
)

// String renders the mode as its canonical flag value, naming the
// subtests below.
func (m SyncMode) String() string {
	switch m {
	case SyncCheckpoint:
		return "checkpoint"
	case SyncOff:
		return "off"
	}
	return "always"
}

func TestParseSyncMode(t *testing.T) {
	good := map[string]SyncMode{
		"always": SyncAppend, "append": SyncAppend,
		"checkpoint": SyncCheckpoint,
		"off":        SyncOff, "never": SyncOff,
	}
	for s, want := range good {
		m, err := ParseSyncMode(s)
		if err != nil || m != want {
			t.Errorf("ParseSyncMode(%q) = %v, %v; want %v", s, m, err, want)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Error("ParseSyncMode accepted an unknown mode")
	}
	for _, m := range []SyncMode{SyncAppend, SyncCheckpoint, SyncOff} {
		if m.String() == "" {
			t.Errorf("SyncMode(%d) has no name", m)
		}
	}
}

// TestRelaxedModesStillReplay: the sync mode moves the fsync point, never
// the record format — a log written under checkpoint or off durability
// replays identically after a clean close.
func TestRelaxedModesStillReplay(t *testing.T) {
	for _, mode := range []SyncMode{SyncAppend, SyncCheckpoint, SyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			w, err := Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.SetSync(mode)
			if w.mode != mode {
				t.Fatalf("mode = %v, want %v", w.mode, mode)
			}
			for seq := 0; seq < 3; seq++ {
				if err := w.Append(uint64(seq), testDB(seq, 4, 3)); err != nil {
					t.Fatal(err)
				}
				if err := w.Sync(); err != nil { // no-op except under always
					t.Fatal(err)
				}
			}
			// ForceSync is the checkpoint-time barrier: it must sync under
			// always and checkpoint, and stay a no-op under off.
			if err := w.ForceSync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs := replayAll(t, path)
			if len(recs) != 3 {
				t.Fatalf("replayed %d records, want 3", len(recs))
			}
			for i, r := range recs {
				if r.seq != uint64(i) {
					t.Fatalf("record %d has seq %d", i, r.seq)
				}
			}
		})
	}
}
