// Package recovery makes the streaming engine durable: it composes the
// write-ahead log (internal/wal) and the engine's per-shard checkpoints
// (engine.SaveState/LoadState) into a crash-recovery protocol with one
// invariant — a batch the admission stage released is either in the
// current checkpoint or in the WAL, so a killed process restores an
// identical gathering set.
//
// The protocol, per admitted batch, on the single ingest goroutine:
//
//	Log(seq, batch)     // append to the WAL and sync — write-ahead
//	engine.Append(batch)
//	Applied()           // advance the frontier; maybe checkpoint
//
// A checkpoint flushes the engine, writes header+SaveState to a temp
// file, syncs, renames over the checkpoint path (atomic on POSIX), and
// only then resets the WAL. Every crash window is covered: before the
// rename the old checkpoint + full WAL recover; between rename and WAL
// reset the new checkpoint simply skips WAL records below its frontier.
//
// Open runs the other direction: restore the checkpoint if one exists,
// replay WAL records from the restored frontier into the engine, and
// hand back the next sequence number — which seeds the admitter
// (admit.Config.Start), so a producer that restarts its feed from the
// beginning has its already-applied batches classified as duplicates and
// dropped instead of double-applied.
//
// A Manager is confined to the ingest goroutine; it has no locks. The
// engine it drives is the concurrency boundary.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// A checkpoint file is a 20-byte header — magic "GCKP", uint32 version,
// uint64 next sequence, uint32 crc32 (IEEE) of those 16 bytes, all
// little-endian — followed by engine.SaveState's shard sections, each of
// which carries its own checksum. Version 1 held gob-encoded shards and
// no header checksum; it is refused, not read.
const (
	ckptMagic   = "GCKP"
	ckptVersion = 2
	headerSize  = 20
)

// Options configure a Manager. Zero-value paths disable the respective
// mechanism (a Manager with neither is a no-op pass-through).
type Options struct {
	// CheckpointPath is the checkpoint file; "" disables checkpoints.
	CheckpointPath string
	// WALPath is the write-ahead log file; "" disables the WAL.
	WALPath string
	// Every is the number of applied batches between automatic
	// checkpoints; 0 checkpoints only on Close.
	Every int
	// Sync decides when the WAL is fsynced: on every append (the zero
	// value, strict durability), at checkpoint boundaries, or never. The
	// relaxed modes trade the machine-crash window for append latency —
	// see wal.SyncMode and docs/INVARIANTS.md.
	Sync wal.SyncMode
	// Counters receives CheckpointsWritten/WALReplayed. Nil counts into a
	// private sink.
	Counters *stats.ResilienceCounters
}

// Manager is the durability side of the ingest path. Create one with
// Open; call Log/Applied around each engine append, Close on shutdown.
type Manager struct {
	eng       *engine.Engine
	w         *wal.Writer
	opts      Options
	counters  *stats.ResilienceCounters
	next      uint64 // next admission sequence expected
	sinceCkpt int
}

// Open restores eng from the checkpoint (if one exists), replays the WAL
// from the restored frontier, writes a post-replay checkpoint when
// anything was replayed (so a crash loop does not regrow the log), and
// returns the manager. The engine must be fresh — no appends yet.
func Open(eng *engine.Engine, opts Options) (*Manager, error) {
	c := opts.Counters
	if c == nil {
		c = &stats.ResilienceCounters{}
	}
	m := &Manager{eng: eng, opts: opts, counters: c}

	if opts.CheckpointPath != "" {
		if err := m.restore(); err != nil {
			return nil, err
		}
	}

	replayed := 0
	if opts.WALPath != "" {
		w, err := wal.Open(opts.WALPath, func(seq uint64, db *trajectory.DB) error {
			switch {
			case seq < m.next:
				return nil // covered by the checkpoint
			case seq > m.next:
				return fmt.Errorf("recovery: WAL jumps from sequence %d to %d — log predates the checkpoint at %s; remove one of them",
					m.next, seq, opts.CheckpointPath)
			}
			if err := eng.Append(db); err != nil {
				return fmt.Errorf("recovery: replaying batch %d: %w", seq, err)
			}
			m.next++
			replayed++
			c.WALReplayed.Add(1)
			return nil
		})
		if err != nil {
			return nil, err
		}
		eng.Flush()
		w.SetSync(opts.Sync)
		m.w = w
	}

	if replayed > 0 && opts.CheckpointPath != "" {
		if err := m.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// NextSeq returns the next admission sequence the manager expects — the
// restored frontier after Open, advancing with each Applied. Seed the
// admitter with it (admit.Config.Start).
func (m *Manager) NextSeq() uint64 { return m.next }

// Log appends one admitted batch to the WAL — call it before the engine
// append, in admission order. Under the default SyncAppend mode the record
// is fsynced before Log returns; the relaxed modes leave it in the page
// cache (Writer.Sync is then a no-op).
func (m *Manager) Log(seq uint64, db *trajectory.DB) error {
	if m.w == nil {
		return nil
	}
	if seq != m.next {
		return fmt.Errorf("recovery: batch sequence %d logged out of order, expected %d", seq, m.next)
	}
	if err := m.w.Append(seq, db); err != nil {
		return err
	}
	return m.w.Sync()
}

// Applied records that the batch last logged reached the engine, and
// checkpoints when the configured interval is due.
func (m *Manager) Applied() error {
	m.next++
	m.sinceCkpt++
	if m.opts.CheckpointPath != "" && m.opts.Every > 0 && m.sinceCkpt >= m.opts.Every {
		return m.Checkpoint()
	}
	return nil
}

// Checkpoint flushes the engine, atomically replaces the checkpoint file
// with the current state, and resets the WAL. Failures leave the previous
// checkpoint (and the WAL) intact.
func (m *Manager) Checkpoint() error {
	if m.opts.CheckpointPath == "" {
		return nil
	}
	m.eng.Flush()
	tmp := m.opts.CheckpointPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = writeHeader(f, m.next)
	if err == nil {
		err = m.eng.SaveState(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("recovery: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, m.opts.CheckpointPath); err != nil {
		os.Remove(tmp)
		return err
	}
	m.counters.CheckpointsWritten.Add(1)
	m.sinceCkpt = 0
	if m.w != nil {
		return m.w.Reset()
	}
	return nil
}

// Close writes a final checkpoint (when configured) and closes the WAL.
// Under SyncCheckpoint with no checkpoint configured, the log is force-
// synced here so a clean shutdown is durable even though no append was.
// A crash skips Close by definition; that is what the WAL is for.
func (m *Manager) Close() error {
	err := m.Checkpoint()
	if m.w != nil {
		if m.opts.CheckpointPath == "" {
			if serr := m.w.ForceSync(); err == nil {
				err = serr
			}
		}
		if cerr := m.w.Close(); err == nil {
			err = cerr
		}
		m.w = nil
	}
	return err
}

// restore loads the checkpoint into the engine; a missing file is a
// fresh start, not an error.
func (m *Manager) restore() error {
	f, err := os.Open(m.opts.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	next, err := readHeader(f)
	if err != nil {
		return fmt.Errorf("recovery: checkpoint %s: %w", m.opts.CheckpointPath, err)
	}
	if err := m.eng.LoadState(f); err != nil {
		return fmt.Errorf("recovery: checkpoint %s: %w", m.opts.CheckpointPath, err)
	}
	m.next = next
	return nil
}

func writeHeader(w io.Writer, next uint64) error {
	var hdr [headerSize]byte
	copy(hdr[:4], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], next)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(hdr[:16]))
	_, err := w.Write(hdr[:])
	return err
}

func readHeader(r io.Reader) (next uint64, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return 0, err
	}
	if string(hdr[:4]) != ckptMagic {
		return 0, errors.New("not a checkpoint file (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != ckptVersion {
		return 0, fmt.Errorf("checkpoint version %d, this build reads version %d", v, ckptVersion)
	}
	if _, err := io.ReadFull(r, hdr[8:]); err != nil {
		return 0, err
	}
	if crc32.ChecksumIEEE(hdr[:16]) != binary.LittleEndian.Uint32(hdr[16:]) {
		return 0, errors.New("checkpoint header checksum mismatch")
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}
