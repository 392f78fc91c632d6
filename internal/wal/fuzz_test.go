package wal

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/trajectory"
)

// FuzzDecodePayload asserts the record decoder — the reader of every WAL
// record and every forwarded batch — never panics on arbitrary bytes,
// and that anything it accepts re-encodes to its clip: decoding the
// re-encoding yields each trajectory's Window over the batch's ticks.
// When the samples are time-sorted, as every trajectory is meant to be,
// encoding that again changes nothing.
func FuzzDecodePayload(f *testing.F) {
	f.Add(EncodePayload(nil, 0, testDB(0, 4, 3)))
	f.Add(EncodePayload(nil, 7, testDB(7, 2, 1)))
	f.Add(EncodePayload(nil, 1, &trajectory.DB{Domain: trajectory.TimeDomain{Start: 4, Step: 1, N: 2}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		seq, db, err := DecodePayload(p)
		if err != nil {
			return
		}
		enc := EncodePayload(nil, seq, db)
		seq2, db2, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if seq2 != seq || !sameBits(db2, clipped(db)) {
			t.Fatalf("round trip changed the record:\ngot  %d %+v\nwant %d %+v", seq2, db2, seq, clipped(db))
		}
		if !timeSorted(db2) {
			return // Window's search presumes sorted samples
		}
		if again := EncodePayload(nil, seq2, db2); !bytes.Equal(again, enc) {
			t.Fatal("encoding is not a fixpoint of decode")
		}
	})
}

// clipped is what EncodePayload keeps of db: each trajectory's Window over
// the batch's ticks, empty ones dropped.
func clipped(db *trajectory.DB) *trajectory.DB {
	out := &trajectory.DB{Domain: db.Domain}
	if db.Domain.N == 0 {
		return out
	}
	for i := range db.Trajs {
		if ss := db.Trajs[i].Window(db.Domain.Start, db.Domain.End()); len(ss) > 0 {
			out.Trajs = append(out.Trajs, trajectory.Trajectory{ID: db.Trajs[i].ID, Samples: ss})
		}
	}
	return out
}

// sameBits compares two batches float-bit for float-bit, so NaNs compare
// equal to themselves.
func sameBits(a, b *trajectory.DB) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Domain.Start, b.Domain.Start) || !eq(a.Domain.Step, b.Domain.Step) ||
		a.Domain.N != b.Domain.N || len(a.Trajs) != len(b.Trajs) {
		return false
	}
	for i := range a.Trajs {
		sa, sb := a.Trajs[i].Samples, b.Trajs[i].Samples
		if a.Trajs[i].ID != b.Trajs[i].ID || len(sa) != len(sb) {
			return false
		}
		for j := range sa {
			if !eq(sa[j].Time, sb[j].Time) || !eq(sa[j].P.X, sb[j].P.X) || !eq(sa[j].P.Y, sb[j].P.Y) {
				return false
			}
		}
	}
	return true
}

// timeSorted reports whether every trajectory's sample times are
// non-decreasing (and not NaN).
func timeSorted(db *trajectory.DB) bool {
	for i := range db.Trajs {
		ss := db.Trajs[i].Samples
		for j := range ss {
			if ss[j].Time != ss[j].Time || (j > 0 && !(ss[j-1].Time <= ss[j].Time)) {
				return false
			}
		}
	}
	return true
}
