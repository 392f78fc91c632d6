// Package wal is the engine's write-ahead log: an append-only file of
// admitted trajectory batches, logged in admission order before they are
// applied, so a crashed process can replay everything since its last
// checkpoint and resume with an identical gathering set.
//
// The format is deliberately dumb. A fixed file header, then one framed
// record per batch:
//
//	header:  magic "GWAL" | uint32 version
//	record:  uint32 payloadLen | uint32 crc32(payload) | payload
//	payload: uint64 seq | domain (start, step float64 bits; uint32 n)
//	         | uint32 ntrajs | per trajectory:
//	           uint64 id | uint32 nsamples | per sample: time, x, y float64 bits
//
// All integers are little-endian. A record carries only the samples its
// batch's ticks interpolate from (see EncodePayload). The length/CRC frame
// makes a torn tail — the half-written record of the write that crashed —
// detectable: Open replays up to the first frame that does not check out
// and truncates the file there. Open reads the log record by record, into
// one payload buffer reused across records, so replay memory is bounded by
// the largest record, not by the log. Records are encoded into a buffer
// reused across appends, so steady-state logging does not allocate
// (guarded by TestAppendAllocs).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

const (
	magic      = "GWAL"
	version    = 1
	headerSize = 8 // magic + uint32 version
	frameSize  = 8 // uint32 len + uint32 crc
)

// maxRecordSize bounds a single record so a corrupt length field cannot
// drive a multi-gigabyte allocation during replay.
const maxRecordSize = 1 << 30

// ErrCorrupt is wrapped by Open errors describing an unreadable log.
var ErrCorrupt = errors.New("wal: corrupt")

// SyncMode decides when the log is fsynced to stable storage — the
// durability/throughput dial of the crash-recovery window.
//
// SyncAppend is the strict default: every appended batch reaches the disk
// before it is applied, so a crash (process or machine) loses nothing the
// admission stage released. SyncCheckpoint and SyncOff leave appends in
// the page cache: a process crash still replays them (the kernel holds the
// bytes), but a machine crash can lose every batch since the last fsync —
// the "durable" window then silently depends on the page cache, which is
// exactly the tradeoff to buy back fsync latency on ingest-bound nodes.
// See docs/INVARIANTS.md ("WAL sync modes").
type SyncMode int

const (
	// SyncAppend fsyncs after every Append (strict durability).
	SyncAppend SyncMode = iota
	// SyncCheckpoint fsyncs only at checkpoint boundaries and Close.
	SyncCheckpoint
	// SyncOff never fsyncs; durability rides the page cache entirely.
	SyncOff
)

// ParseSyncMode maps the gatherserve -wal-sync flag values onto modes.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "append":
		return SyncAppend, nil
	case "checkpoint":
		return SyncCheckpoint, nil
	case "off", "never":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want always, checkpoint or off)", s)
}

// Writer appends batches to a write-ahead log file. Methods are not safe
// for concurrent use: the log belongs to the single admission goroutine
// (gatherserve's ingest loop), which is also what keeps record order
// equal to admission order.
type Writer struct {
	f    *os.File
	buf  []byte // reused encode buffer
	mode SyncMode
}

// Open replays every intact record of the log at path, in order, through
// fn (nil only validates them), truncates the torn or corrupt tail a crash
// left behind, and returns a Writer positioned after the last intact
// record. The file is read record by record, each frame straight into
// one reused payload buffer, so memory is bounded by the largest record,
// not by the log. A missing or empty file is started fresh. The tail ends
// the replay silently — those bytes never finished being written, so they
// hold at most a batch the producer will re-deliver — but a corrupt
// header, an unreadable file or an error from fn fails the open and
// leaves the file as it was. The writer syncs on every append
// (SyncAppend); use SetSync to relax it.
func Open(path string, fn func(seq uint64, db *trajectory.DB) error) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f}
	var valid int64
	fi, err := f.Stat()
	if err == nil {
		valid, err = scan(path, f, fi.Size(), fn)
	}
	switch {
	case err != nil:
	case valid == 0:
		err = w.reset() // new or empty file: start it fresh
	default:
		if err = f.Truncate(valid); err == nil {
			_, err = f.Seek(valid, io.SeekStart)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// SetSync sets when the writer fsyncs (see SyncMode). Call it before the
// first Append; it is not safe to change concurrently with writes.
func (w *Writer) SetSync(m SyncMode) { w.mode = m }

// Append logs one admitted batch under its admission sequence number. The
// record is written in a single Write call; Sync decides durability per
// the writer's SyncMode. A record larger than replay accepts is refused,
// not written: replay would take it for a torn tail and drop it together
// with every record after it.
func (w *Writer) Append(seq uint64, db *trajectory.DB) error {
	buf := w.buf[:0]
	// Frame placeholder, patched below.
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = EncodePayload(buf, seq, db)
	payload := buf[frameSize:]
	if err := checkRecordSize(len(payload)); err != nil {
		w.buf = nil // do not keep an oversized buffer alive
		return fmt.Errorf("wal: batch %d: %w", seq, err)
	}
	w.buf = buf
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	_, err := w.f.Write(buf)
	return err
}

// checkRecordSize refuses a payload length that scan would read as a
// torn tail.
func checkRecordSize(n int) error {
	if n > maxRecordSize {
		return fmt.Errorf("record of %d bytes exceeds the %d-byte limit", n, maxRecordSize)
	}
	return nil
}

// EncodePayload appends the wire encoding of one (sequence, batch) record
// to buf and returns it. The format is the WAL record payload — uint64 seq,
// the batch domain, then each trajectory — and is shared with the cluster
// forwarding data plane (internal/cluster/rpc), so a forwarded batch and a
// logged batch are byte-identical and either side can decode the other.
//
// A record carries only the samples that fix the batch's positions: per
// trajectory, Window over the batch's first to last tick. Trajectories with
// no sample there are left out, and a batch with no ticks carries none.
// Feed batches are views sharing whole trajectories (DB.Batches), so
// without the clip a record would grow with the stream's age, not with
// its window; the engine reads positions only at the batch's ticks, so a
// decoded record yields the same snapshots as the batch it came from.
func EncodePayload(buf []byte, seq uint64, db *trajectory.DB) []byte {
	buf = putUint64(buf, seq)
	buf = putFloat(buf, db.Domain.Start)
	buf = putFloat(buf, db.Domain.Step)
	buf = putUint32(buf, uint32(db.Domain.N))
	at := len(buf)
	buf = putUint32(buf, 0) // trajectory count, patched below
	ntr := 0
	if db.Domain.N > 0 {
		t0, t1 := db.Domain.Start, db.Domain.End()
		for i := range db.Trajs {
			tr := &db.Trajs[i]
			ss := tr.Window(t0, t1)
			if len(ss) == 0 {
				continue
			}
			ntr++
			buf = putUint64(buf, uint64(tr.ID))
			buf = putUint32(buf, uint32(len(ss)))
			for _, s := range ss {
				buf = putFloat(buf, s.Time)
				buf = putFloat(buf, s.P.X)
				buf = putFloat(buf, s.P.Y)
			}
		}
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(ntr))
	return buf
}

// DecodePayload unmarshals a payload produced by EncodePayload.
func DecodePayload(p []byte) (uint64, *trajectory.DB, error) { return decode(p) }

// Sync flushes the log to stable storage when the writer's mode is
// SyncAppend; under the relaxed modes it is a no-op (use ForceSync at
// checkpoint boundaries).
func (w *Writer) Sync() error {
	if w.mode != SyncAppend {
		return nil
	}
	return w.f.Sync()
}

// ForceSync flushes the log regardless of the sync mode — the checkpoint
// and shutdown barrier for SyncCheckpoint.
func (w *Writer) ForceSync() error {
	if w.mode == SyncOff {
		return nil
	}
	return w.f.Sync()
}

// Reset truncates the log back to an empty header — the checkpoint has
// made everything in it redundant.
func (w *Writer) Reset() error { return w.reset() }

func (w *Writer) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the underlying file (without an implicit Sync).
func (w *Writer) Close() error { return w.f.Close() }

// scan reads the size-byte log r (the file at path, positioned at its
// start) frame by frame, validating each and decoding its payload; fn
// (when non-nil) receives each record. A frame whose length field claims
// more bytes than the file has left is a torn tail, refused before its
// payload is allocated. It returns the byte offset of the valid prefix:
// the end of the last record that decoded, or 0 for an empty log.
func scan(path string, r io.Reader, size int64, fn func(seq uint64, db *trajectory.DB) error) (valid int64, err error) {
	if size == 0 {
		return 0, nil
	}
	if size < headerSize {
		return 0, fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	if string(hdr[:4]) != magic {
		return 0, fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		return 0, fmt.Errorf("%w: %s is log version %d, this build reads %d", ErrCorrupt, path, v, version)
	}
	at := int64(headerSize)
	var frame [frameSize]byte
	var payload []byte
	for size-at >= frameSize {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return at, err
		}
		plen := int64(binary.LittleEndian.Uint32(frame[0:4]))
		if plen > maxRecordSize || plen > size-at-frameSize {
			break // torn tail
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return at, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
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
		at += frameSize + plen
	}
	return at, nil
}

// decode unmarshals one record payload.
func decode(p []byte) (uint64, *trajectory.DB, error) {
	r := reader{p: p}
	seq := r.uint64()
	db := &trajectory.DB{}
	db.Domain.Start = r.float()
	db.Domain.Step = r.float()
	db.Domain.N = int(r.uint32())
	ntr := int(r.uint32())
	if r.bad || ntr < 0 || ntr > len(r.p)/12 { // id + count per trajectory
		return 0, nil, fmt.Errorf("%w: record shape", ErrCorrupt)
	}
	// Every byte after the trajectory headers is a sample (time, x, y), so
	// one arena sized from the payload holds a well-formed record's
	// samples exactly. Each trajectory gets a capacity-capped window of it,
	// so appending to one reallocates instead of overwriting the next.
	arena := make([]trajectory.Sample, (len(r.p)-12*ntr)/24)
	db.Trajs = make([]trajectory.Trajectory, 0, ntr)
	a := 0
	for i := 0; i < ntr; i++ {
		id := trajectory.ObjectID(r.uint64())
		ns := int(r.uint32())
		if r.bad || ns < 0 || ns > len(arena)-a {
			return 0, nil, fmt.Errorf("%w: record shape", ErrCorrupt)
		}
		samples := arena[a : a+ns : a+ns]
		a += ns
		for j := range samples {
			samples[j].Time = r.float()
			samples[j].P = geo.Point{X: r.float(), Y: r.float()}
		}
		db.Trajs = append(db.Trajs, trajectory.Trajectory{ID: id, Samples: samples})
	}
	if r.bad || len(r.p) != 0 {
		return 0, nil, fmt.Errorf("%w: record shape", ErrCorrupt)
	}
	return seq, db, nil
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	p   []byte
	bad bool
}

func (r *reader) uint32() uint32 {
	if r.bad || len(r.p) < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p)
	r.p = r.p[4:]
	return v
}

func (r *reader) uint64() uint64 {
	if r.bad || len(r.p) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}

func (r *reader) float() float64 { return math.Float64frombits(r.uint64()) }

func putUint32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putUint64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func putFloat(b []byte, f float64) []byte { return putUint64(b, math.Float64bits(f)) }
