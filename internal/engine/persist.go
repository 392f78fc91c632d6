// Checkpointing: SaveState/LoadState serialise every shard's incremental
// store through incremental.Store.Save/Load, so a killed process restores
// the exact gathering state it had and resumes the stream from its WAL
// (see internal/recovery for the file-level protocol around these).
//
// Each store is written as its own length-prefixed section, so LoadState
// reads exactly one section per shard and hands it to Load as bytes.

package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/incremental"
)

// SaveState writes every shard's incremental store to w, in shard order.
// Call it on a quiescent engine — Flush first, no concurrent appends —
// so the shards share one consistent frontier; concurrent queries are
// fine (shards are read-locked). A quarantined shard has no trustworthy
// state to save: SaveState refuses rather than persist a poisoned store.
func (e *Engine) SaveState(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(e.shards))); err != nil {
		return err
	}
	var blob bytes.Buffer
	for i, sh := range e.shards {
		blob.Reset()
		sh.mu.RLock()
		if sh.quarantined {
			sh.mu.RUnlock()
			return fmt.Errorf("engine: shard %d is quarantined; refusing to checkpoint a poisoned store", i)
		}
		err := sh.store.Save(&blob)
		sh.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("engine: saving shard %d: %w", i, err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(blob.Len())); err != nil {
			return err
		}
		if _, err := w.Write(blob.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores shard stores written by SaveState, replacing the
// engine's current stores and clearing any quarantine. The shard count
// and pipeline parameters must match the saving engine's — recall depends
// on identical thresholds, so a mismatch is an error, not a guess. Call
// it before ingestion starts (it is how a restarted server resumes);
// loading over shards that already took appends loses those appends.
func (e *Engine) LoadState(r io.Reader) error {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("engine: reading checkpoint shard count: %w", err)
	}
	if int(n) != len(e.shards) {
		return fmt.Errorf("engine: checkpoint has %d shards, engine has %d — restore with the same -shards", n, len(e.shards))
	}
	cp := crowd.Params{MC: e.cfg.Pipeline.MC, KC: e.cfg.Pipeline.KC, Delta: e.cfg.Pipeline.Delta}
	gp := gathering.Params{KC: e.cfg.Pipeline.KC, KP: e.cfg.Pipeline.KP, MP: e.cfg.Pipeline.MP}
	factory := e.cfg.Pipeline.SearcherFactory()

	// Decode every blob before touching any shard, so a truncated or
	// mismatched checkpoint leaves the engine unchanged. Load keeps no
	// reference to its input, so one buffer serves every shard.
	stores := make([]*incremental.Store, n)
	var blob []byte
	for i := range stores {
		var blen uint64
		if err := binary.Read(r, binary.LittleEndian, &blen); err != nil {
			return fmt.Errorf("engine: reading shard %d blob size: %w", i, err)
		}
		var err error
		if blob, err = readBlob(r, blob[:0], blen); err != nil {
			return fmt.Errorf("engine: reading shard %d blob of %d bytes: %w", i, blen, err)
		}
		st, err := incremental.Load(blob, factory)
		if err != nil {
			return fmt.Errorf("engine: loading shard %d: %w", i, err)
		}
		scp, sgp := st.Params()
		if scp != cp || sgp != gp {
			return fmt.Errorf("engine: checkpoint shard %d was built with params %+v/%+v, engine wants %+v/%+v — restore with the same thresholds",
				i, scp, sgp, cp, gp)
		}
		stores[i] = st
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		sh.store = stores[i]
		sh.quarantined = false
		sh.appliedTicks = stores[i].Ticks()
		sh.ticks.Store(int64(sh.appliedTicks))
		sh.mu.Unlock()
	}
	e.loads.Add(1)
	e.advanceFrontier()
	return nil
}

// blobChunk caps how far readBlob allocates ahead of the bytes it has
// read, so a corrupt size prefix fails at the end of the input instead of
// driving an allocation of that size.
const blobChunk = 16 << 20

// readBlob appends exactly n bytes of r to buf. A blob up to blobChunk
// bytes is read with one exactly-sized allocation and one ReadFull.
func readBlob(r io.Reader, buf []byte, n uint64) ([]byte, error) {
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
