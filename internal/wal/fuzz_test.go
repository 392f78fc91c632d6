package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// FuzzOpen writes k valid records (k < 4), then arbitrary bytes, as a
// crash or a disk fault can leave after them, and opens the log. Open
// must replay those k records, and beyond them exactly what scanBytes,
// the byte-slice scan Open used before it streamed the file, replays
// (only bytes that frame-check and decode as records themselves), and
// truncate the file to the end of the last record it replayed.
func FuzzOpen(f *testing.F) {
	whole := frame(EncodePayload(nil, 9, testDB(9, 2, 2)))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(2), []byte{1, 2, 3})
	f.Add(uint8(1), []byte{0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0, 9}) // a length past the end of the file
	f.Add(uint8(1), []byte{0, 0, 0, 0x40, 0, 0, 0, 0})             // a length past the record limit
	f.Add(uint8(3), whole[:len(whole)-1])                          // a record torn by one byte
	f.Add(uint8(1), whole)                                         // a whole record: replayed too
	f.Fuzz(func(t *testing.T, k uint8, junk []byte) {
		k %= 4
		path := filepath.Join(t.TempDir(), "wal")
		w, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < int(k); seq++ {
			if err := w.Append(uint64(seq), testDB(seq, 3, 2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		written := int64(len(data))
		data = append(data, junk...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want []rec
		wantValid, err := scanBytes(path, data, func(seq uint64, db *trajectory.DB) error {
			want = append(want, rec{seq, db})
			return nil
		})
		if err != nil {
			t.Fatalf("reference scan: %v", err)
		}
		got := replayAll(t, path)
		if len(got) < int(k) {
			t.Fatalf("replayed %d records, want at least the %d written", len(got), k)
		}
		for i := 0; i < int(k); i++ {
			if got[i].seq != uint64(i) || !reflect.DeepEqual(got[i].db, testDB(i, 3, 2)) {
				t.Fatalf("record %d replayed as seq %d %+v", i, got[i].seq, got[i].db)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed %d records, the reference scan %d", len(got), len(want))
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != wantValid {
			t.Fatalf("Open left %d bytes, the reference's valid prefix is %d", fi.Size(), wantValid)
		}
		if len(got) == int(k) && fi.Size() != written {
			t.Fatalf("Open left %d bytes, want the %d of the %d records written", fi.Size(), written, k)
		}
	})
}

// frame prefixes a payload with its record frame: length and CRC.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// scanBytes is the scan Open ran over the whole log read into memory,
// kept as FuzzOpen's reference: it validates the frames of data (read
// from path), decoding each payload; fn (when non-nil) receives each
// record. It returns the byte offset of the valid prefix: the end of the
// last record that decoded, or 0 for an empty log.
func scanBytes(path string, data []byte, fn func(seq uint64, db *trajectory.DB) error) (valid int64, err error) {
	if len(data) == 0 {
		return 0, nil
	}
	if len(data) < headerSize || string(data[:4]) != magic {
		return 0, fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return 0, fmt.Errorf("%w: %s is log version %d, this build reads %d", ErrCorrupt, path, v, version)
	}
	at := int64(headerSize)
	rest := data[headerSize:]
	for len(rest) >= frameSize {
		plen := binary.LittleEndian.Uint32(rest[0:4])
		if plen > maxRecordSize || int(plen) > len(rest)-frameSize {
			break // torn tail
		}
		payload := rest[frameSize : frameSize+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			break // torn or corrupt tail
		}
		seq, db, derr := decode(payload)
		if derr != nil {
			break // frame intact but payload malformed: treat as tail
		}
		if fn != nil {
			if err := fn(seq, db); err != nil {
				return at, err
			}
		}
		at += frameSize + int64(plen)
		rest = rest[frameSize+int(plen):]
	}
	return at, nil
}
