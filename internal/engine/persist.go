// Checkpointing: SaveState/LoadState serialise the engine's incremental
// store through incremental.Store.Save/Load, so a killed process restores
// the exact gathering state it had and resumes the stream from its WAL
// (see internal/recovery for the file-level protocol around these).
//
// A checkpoint is a little-endian uint32 section count, always 1, then the
// store as one length-prefixed section, which LoadState hands to Load as
// bytes. Older sharded builds wrote one section per shard; LoadState
// refuses those with an error naming the count.

package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/incremental"
)

// SaveState writes the engine's store to w. Call it on a quiescent engine
// — Flush first, no concurrent appends — so the state matches the
// frontier; concurrent queries are fine (the store is read-locked). A
// quarantined store has no trustworthy state to save: SaveState refuses
// rather than persist it.
func (e *Engine) SaveState(w io.Writer) error {
	var blob bytes.Buffer
	e.mu.RLock()
	quarantined := e.quarantined
	var err error
	if !quarantined {
		err = e.store.Save(&blob)
	}
	e.mu.RUnlock()
	if quarantined {
		return errors.New("engine: the store is quarantined; refusing to checkpoint a poisoned store")
	}
	if err != nil {
		return fmt.Errorf("engine: saving the store: %w", err)
	}
	var head [12]byte
	binary.LittleEndian.PutUint32(head[:4], 1)
	binary.LittleEndian.PutUint64(head[4:], uint64(blob.Len()))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err = w.Write(blob.Bytes())
	return err
}

// LoadState restores a store written by SaveState, replacing the engine's
// current store and clearing any quarantine. The pipeline parameters must
// match the saving engine's — recall depends on identical thresholds, so
// a mismatch is an error, not a guess. A refused checkpoint leaves the
// engine unchanged. Call it before ingestion starts (it is how a
// restarted server resumes); loading over a store that already took
// appends loses those appends.
func (e *Engine) LoadState(r io.Reader) error {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("engine: reading checkpoint section count: %w", err)
	}
	if n != 1 {
		return fmt.Errorf("engine: checkpoint holds %d store sections: it was written with -shards %d, and this engine is one store", n, n)
	}
	var blen uint64
	if err := binary.Read(r, binary.LittleEndian, &blen); err != nil {
		return fmt.Errorf("engine: reading store section size: %w", err)
	}
	blob, err := readBlob(r, blen)
	if err != nil {
		return fmt.Errorf("engine: reading store section of %d bytes: %w", blen, err)
	}
	st, err := incremental.Load(blob, e.cfg.Pipeline.SearcherFactory())
	if err != nil {
		return fmt.Errorf("engine: loading the store: %w", err)
	}
	cp, gp := e.cfg.crowdParams(), e.cfg.gatherParams()
	if scp, sgp := st.Params(); scp != cp || sgp != gp {
		return fmt.Errorf("engine: checkpoint was built with params %+v/%+v, engine wants %+v/%+v — restore with the same thresholds",
			scp, sgp, cp, gp)
	}
	e.mu.Lock()
	e.store = st
	e.quarantined = false
	e.ticks.Store(int64(st.Ticks()))
	e.version++
	e.mu.Unlock()
	return nil
}

// blobChunk caps how far readBlob allocates ahead of the bytes it has
// read, so a corrupt size prefix fails at the end of the input instead of
// driving an allocation of that size.
const blobChunk = 16 << 20

// readBlob reads exactly n bytes of r. A blob up to blobChunk bytes is
// read with one exactly-sized allocation and one ReadFull.
func readBlob(r io.Reader, n uint64) ([]byte, error) {
	var buf []byte
	for n > 0 {
		step := int(min(n, blobChunk))
		at := len(buf)
		buf = slices.Grow(buf, step)[:at+step]
		if _, err := io.ReadFull(r, buf[at:]); err != nil {
			return buf, err
		}
		n -= uint64(step)
	}
	return buf, nil
}
