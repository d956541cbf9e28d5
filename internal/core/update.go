package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/chunk"
	"repro/internal/tensor"
)

// SetAt replaces sample idx in place (§3.5 random-access writes: annotators
// writing labels, models storing predictions). The containing chunk is
// rewritten copy-on-write under a fresh id into the current head version,
// so committed versions and published roots keep the original bytes (§4.2).
//
// When Strict is disabled on the dataset and idx is beyond the current
// length, the tensor is padded with empty samples up to idx first (§3.5
// sparse tensors).
func (t *Tensor) SetAt(ctx context.Context, idx uint64, arr *tensor.NDArray) error {
	if err := t.ds.writableNow(); err != nil {
		return err
	}
	if t.spec.Sequence {
		return fmt.Errorf("core: SetAt on sequence tensors is not supported")
	}
	// Encode outside the locks; only setStored's index/chunk surgery needs
	// exclusive access.
	s, err := t.encodeSample(arr)
	if err != nil {
		return err
	}
	return t.setStored(ctx, idx, s)
}

// setStored is SetAt's stored half: it writes storage-ready sample s at idx
// under the write locks. Merge writes a source row's stored sample through it.
func (t *Tensor) setStored(ctx context.Context, idx uint64, s chunk.Sample) error {
	if err := t.beginWrite(); err != nil {
		return err
	}
	defer t.ds.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Deferred flush errors (parked, redrivable uploads) do not abort the
	// update mid-way: the index state is fully adjusted and the error is
	// surfaced afterwards.
	var dc deferredCollector
	if idx >= t.meta.Length {
		if t.ds.strict {
			return fmt.Errorf("core: index %d out of bounds for tensor %q (len %d, strict mode)", idx, t.name, t.meta.Length)
		}
		if err := dc.note(t.padToLocked(ctx, idx+1)); err != nil {
			return err
		}
	}
	if err := dc.note(t.replaceStored(ctx, idx, s)); err != nil {
		return err
	}
	if err := t.shapeEnc.Set(idx, s.Shape); err != nil {
		return err
	}
	t.recordUpdate(idx)
	return dc.err()
}

// replaceStored swaps the stored bytes of flat sample idx. Caller holds
// the tensor write lock. A deferred flush error from sealing or rewriting
// (bytes parked, redrivable) is carried through — the replacement still
// completes — so the caller's index state never diverges from the data.
func (t *Tensor) replaceStored(ctx context.Context, idx uint64, s chunk.Sample) error {
	if _, tiled := t.tileEnc.Get(idx); tiled {
		// Re-tile from scratch; the row's placeholder moves to the new first tile.
		arr, err := t.decode(s, nil)
		if err != nil {
			return err
		}
		var dc deferredCollector
		first, err := t.writeTiles(ctx, idx, arr, dc.note)
		if err != nil {
			return err
		}
		if err := t.chunkEnc.Rebind(idx, first); err != nil {
			return err
		}
		t.layoutGen.Add(1)
		return dc.err()
	}
	chunkID, local, err := t.chunkEnc.Lookup(idx)
	if err != nil {
		return err
	}
	if t.builder.Len() > 0 && chunkID == t.pendingID {
		if local >= t.builder.Len() {
			return fmt.Errorf("core: pending sample %d out of range", local)
		}
		t.builder.Set(local, s)
		if t.builder.PayloadBytes() <= t.meta.Bounds.Max || t.builder.Len() == 1 {
			return nil
		}
		// Overflowing the buffered chunk: seal it, replacement included, under
		// its id; chunks may exceed the bound (Rechunk repairs layout, §3.5).
		return t.flushPending(ctx)
	}
	samples, err := t.chunkSamples(ctx, chunkID)
	if err != nil {
		return err
	}
	if local >= len(samples) {
		return fmt.Errorf("core: sample %d beyond chunk %d", local, chunkID)
	}
	samples[local] = s
	blob, err := t.codec.Encode(samples)
	if err != nil {
		return err
	}
	// Copy-on-write into the head version, under a fresh id.
	id := t.allocChunkID()
	if err := t.chunkEnc.Rebind(idx, id); err != nil {
		return err
	}
	t.layoutGen.Add(1)
	return t.writeChunk(ctx, id, blob)
}

// recordUpdate notes idx in the commit diff, whose updated rows ascend
// without repeats. A seal or a load clips the list it shares, so an insert
// copies it rather than move rows a recorded state holds.
func (t *Tensor) recordUpdate(idx uint64) {
	if i, found := slices.BinarySearch(t.diff.Updated, idx); !found {
		t.diff.Updated = slices.Insert(t.diff.Updated, i, idx)
	}
}

// PadTo extends the tensor with empty samples until it has n rows,
// supporting sparse out-of-bounds assignment (§3.5).
func (t *Tensor) PadTo(ctx context.Context, n uint64) error {
	if err := t.beginWrite(); err != nil {
		return err
	}
	defer t.ds.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.padToLocked(ctx, n)
}

func (t *Tensor) padToLocked(ctx context.Context, n uint64) error {
	var dc deferredCollector
	for t.meta.Length < n {
		if err := dc.note(t.appendLocked(ctx, []chunk.Sample{{Shape: []int{0}}}, nil)); err != nil {
			return err
		}
	}
	return dc.err()
}

// Rechunk rewrites the tensor's chunks at the optimal layout (§3.5: "we
// implement an on-the-fly re-chunking algorithm to fix the data layout"
// after random assignment degrades it). All samples are re-packed into
// fresh bounded chunks in the current head version; the chunk encoder is
// replaced wholesale. Tiled samples are left untouched.
func (t *Tensor) Rechunk(ctx context.Context) error {
	if err := t.beginWrite(); err != nil {
		return err
	}
	defer t.ds.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Deferred flush errors must not abort a rechunk midway: collect them,
	// finish the swap, surface them afterwards.
	var dc deferredCollector
	note := dc.note
	if err := note(t.flushPending(ctx)); err != nil {
		return err
	}
	total := t.chunkEnc.NumSamples()
	var (
		newIDs    []uint64
		newCounts []int
		builder   = chunk.NewBuilder(t.meta.Bounds, t.codec)
		curID     uint64
		// The last source chunk read: rows ascend, so each is read once.
		srcID  uint64
		source []chunk.Sample
	)
	flush := func() error {
		if builder.Len() == 0 {
			return nil
		}
		blob, n, err := builder.Flush()
		if err != nil {
			return err
		}
		if err := note(t.writeChunk(ctx, curID, blob)); err != nil {
			return err
		}
		newIDs = append(newIDs, curID)
		newCounts = append(newCounts, n)
		return nil
	}
	for idx := uint64(0); idx < total; idx++ {
		if entry, tiled := t.tileEnc.Get(idx); tiled {
			if err := flush(); err != nil {
				return err
			}
			// Keep the tile chunks; re-register the index slot.
			newIDs = append(newIDs, entry.ChunkIDs[0])
			newCounts = append(newCounts, 1)
			continue
		}
		id, local, err := t.chunkEnc.Lookup(idx)
		if err != nil {
			return err
		}
		if source == nil || id != srcID {
			if source, err = t.chunkSamples(ctx, id); err != nil {
				return err
			}
			srcID = id
		}
		if local >= len(source) {
			return fmt.Errorf("core: sample %d beyond chunk %d (%d samples)", local, id, len(source))
		}
		// The builder keeps the read-only source sample until flush
		// encodes it into the new chunk's own bytes.
		s := source[local]
		if builder.ShouldFlushBefore(len(s.Data)) {
			if err := flush(); err != nil {
				return err
			}
		}
		if builder.Len() == 0 {
			curID = t.allocChunkID()
		}
		if err := builder.Append(s); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := t.chunkEnc.ReplaceAll(newIDs, newCounts); err != nil {
		return err
	}
	t.layoutGen.Add(1)
	return dc.err()
}
