package core

import (
	"context"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/encoder"
	"repro/internal/tensor"
)

// At returns sample idx as an array. Sequence rows come back stacked when
// items share a shape (use SequenceAt otherwise); link samples come back as
// the stored URL bytes (use view.Resolve to fetch the target).
func (t *Tensor) At(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.atLocked(ctx, idx)
}

func (t *Tensor) atLocked(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	if t.spec.Sequence {
		items, err := t.sequenceAtLocked(ctx, int(idx))
		if err != nil {
			return nil, err
		}
		return tensor.Stack(items)
	}
	return t.itemAt(ctx, idx)
}

// itemAt reads one flat stored sample (for sequence tensors, one item).
func (t *Tensor) itemAt(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	if entry, tiled := t.tileEnc.Get(idx); tiled {
		return t.readTiled(ctx, entry, nil)
	}
	s, err := t.storedSample(ctx, idx)
	if err != nil {
		return nil, err
	}
	return t.decodeSample(s)
}

// storedSample fetches the encoded bytes + shape of flat sample idx, from
// the pending write buffer or from its chunk.
func (t *Tensor) storedSample(ctx context.Context, idx uint64) (chunk.Sample, error) {
	chunkID, local, err := t.chunkEnc.Lookup(idx)
	if err != nil {
		return chunk.Sample{}, err
	}
	if t.builder.Len() > 0 && chunkID == t.pendingID {
		if local >= len(t.pendingSamples) {
			return chunk.Sample{}, fmt.Errorf("core: pending sample %d out of range", local)
		}
		return t.pendingSamples[local], nil
	}
	raw, err := t.readChunk(ctx, chunkID)
	if err != nil {
		return chunk.Sample{}, err
	}
	samples, err := chunk.Decode(raw)
	if err != nil {
		return chunk.Sample{}, err
	}
	if local >= len(samples) {
		return chunk.Sample{}, fmt.Errorf("core: sample %d beyond chunk %d (%d samples)", local, chunkID, len(samples))
	}
	return samples[local], nil
}

// decodeSample turns a stored sample into an array.
func (t *Tensor) decodeSample(s chunk.Sample) (*tensor.NDArray, error) {
	return t.decodeSampleArena(s, nil)
}

// decodeSampleArena is decodeSample with the raw-payload copy drawn from an
// arena (nil falls back to the heap): the per-sample make+copy the hot scan
// path would otherwise pay becomes a bump allocation in a pooled slab.
// Media decodes draw their flattened HWC pixel buffer from the arena too
// when the codec supports DecodeInto; only the codec's internal decode
// state still allocates where the codec puts it.
func (t *Tensor) decodeSampleArena(s chunk.Sample, a *chunk.Arena) (*tensor.NDArray, error) {
	if t.sampleCodec != nil {
		var (
			pixels  []byte
			h, w, c int
			err     error
		)
		if di, ok := t.sampleCodec.(compress.DecoderInto); ok && a != nil {
			pixels, h, w, c, err = di.DecodeInto(s.Data, a.Alloc)
		} else {
			pixels, h, w, c, err = t.sampleCodec.Decode(s.Data)
		}
		if err != nil {
			return nil, err
		}
		shape := []int{h, w, c}
		if c == 1 {
			shape = []int{h, w}
		}
		arr, err := tensor.FromBytes(tensor.UInt8, shape, pixels)
		if err != nil {
			return nil, err
		}
		// Honor the recorded logical shape when compatible (e.g. a
		// stored [H,W,1] vs decoded [H,W]).
		if prod(s.Shape) == arr.Len() && len(s.Shape) > 0 {
			return arr.Reshape(s.Shape...)
		}
		return arr, nil
	}
	var data []byte
	if a != nil {
		data = a.Copy(s.Data)
	} else {
		data = make([]byte, len(s.Data))
		copy(data, s.Data)
	}
	return tensor.FromBytes(t.Dtype(), s.Shape, data)
}

// readTiled assembles a tiled sample, fetching only the tiles overlapping
// region (nil = whole sample).
func (t *Tensor) readTiled(ctx context.Context, entry encoder.TileEntry, region []tensor.Range) (*tensor.NDArray, error) {
	needed := entry.Layout.TilesOverlapping(region)
	tiles := make(map[int]*tensor.NDArray, len(needed))
	for _, ti := range needed {
		raw, err := t.readChunk(ctx, entry.ChunkIDs[ti])
		if err != nil {
			return nil, err
		}
		samples, err := chunk.Decode(raw)
		if err != nil {
			return nil, err
		}
		if len(samples) != 1 {
			return nil, fmt.Errorf("core: tile chunk holds %d samples, want 1", len(samples))
		}
		arr, err := t.decodeSample(samples[0])
		if err != nil {
			return nil, err
		}
		tiles[ti] = arr
	}
	return entry.Layout.Assemble(t.Dtype(), tiles, region)
}

// Slice reads a sub-region of sample idx (TQL's images[a:b, c:d]). Tiled
// samples fetch only overlapping tiles; raw uncompressed samples whose
// region constrains only the first axis are read with a sub-chunk byte
// range request (§3.5), never transferring the rest of the sample.
func (t *Tensor) Slice(ctx context.Context, idx uint64, region []tensor.Range) (*tensor.NDArray, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.spec.Sequence {
		return nil, fmt.Errorf("core: Slice of sequence tensors is not supported; slice items individually")
	}
	if entry, tiled := t.tileEnc.Get(idx); tiled {
		return t.readTiled(ctx, entry, region)
	}
	// Range-read fast path: uncompressed chunk + raw sample + region
	// constraining only axis 0.
	if t.chunkCodec == nil && t.sampleCodec == nil && len(region) == 1 {
		if arr, ok, err := t.rangeReadFirstAxis(ctx, idx, region[0]); err != nil {
			return nil, err
		} else if ok {
			return arr, nil
		}
	}
	arr, err := t.itemAt(ctx, idx)
	if err != nil {
		return nil, err
	}
	return arr.Slice(region...)
}

// rangeReadFirstAxis serves Slice(idx, [lo:hi]) with one byte-range request
// when the sample is raw and its chunk is uncompressed. ok=false means the
// fast path does not apply (e.g. the sample sits in the write buffer or in
// a chunk still in flight).
func (t *Tensor) rangeReadFirstAxis(ctx context.Context, idx uint64, r tensor.Range) (*tensor.NDArray, bool, error) {
	chunkID, local, err := t.chunkEnc.Lookup(idx)
	if err != nil {
		return nil, false, err
	}
	if t.builder.Len() > 0 && chunkID == t.pendingID {
		return nil, false, nil
	}
	vid, ok := t.chunkVersion[chunkID]
	if !ok {
		return nil, false, fmt.Errorf("core: chunk %d not found in any version", chunkID)
	}
	key := chunkKey(vid, t.name, chunkID)
	// A sealed chunk whose upload has not landed lives only in the
	// pipeline's pending map; itemAt reads it from there.
	if _, inflight := t.ds.flusher.lookup(key); inflight {
		return nil, false, nil
	}

	shape, err := t.shapeEnc.Get(idx)
	if err != nil {
		return nil, false, err
	}
	if len(shape) == 0 {
		return nil, false, nil
	}
	// Fetch the directory with a header read tightly bounded by the
	// chunk's actual sample count (known from the chunk encoder row) and
	// this sample's rank.
	row := 0
	for ; row < t.chunkEnc.NumChunks(); row++ {
		if _, _, id, _ := t.chunkEnc.ChunkRange(row); id == chunkID {
			break
		}
	}
	first, last, _, err := t.chunkEnc.ChunkRange(row)
	if err != nil {
		return nil, false, err
	}
	headerLen := chunk.HeaderRange(int(last-first+1), maxRankHint)
	head, err := t.ds.store.GetRange(ctx, key, 0, headerLen)
	if err != nil {
		return nil, false, err
	}
	dir, err := chunk.DecodeDirectory(head)
	if err != nil {
		return nil, false, err
	}
	sampleOff, _, sampleShape, err := dir.SampleRange(head, local)
	if err != nil {
		return nil, false, err
	}
	lo, hi, err := resolveAxis(r, sampleShape[0])
	if err != nil {
		return nil, false, err
	}
	rowElems := 1
	for _, d := range sampleShape[1:] {
		rowElems *= d
	}
	elem := t.Dtype().Size()
	off := sampleOff + int64(lo*rowElems*elem)
	length := int64((hi - lo) * rowElems * elem)
	data, err := t.ds.store.GetRange(ctx, key, off, length)
	if err != nil {
		return nil, false, err
	}
	outShape := append([]int{hi - lo}, sampleShape[1:]...)
	arr, err := tensor.FromBytes(t.Dtype(), outShape, data)
	if err != nil {
		return nil, false, err
	}
	return arr, true, nil
}

// maxRankHint bounds the per-sample shape entries assumed when sizing the
// directory prefetch for range reads.
const maxRankHint = 8

// SequenceAt returns the items of sequence row i.
func (t *Tensor) SequenceAt(ctx context.Context, row int) ([]*tensor.NDArray, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sequenceAtLocked(ctx, row)
}

func (t *Tensor) sequenceAtLocked(ctx context.Context, row int) ([]*tensor.NDArray, error) {
	if !t.spec.Sequence {
		return nil, fmt.Errorf("core: tensor %q is not a sequence tensor", t.name)
	}
	start, end, err := t.seqEnc.RowRange(row)
	if err != nil {
		return nil, err
	}
	items := make([]*tensor.NDArray, 0, end-start)
	for i := start; i < end; i++ {
		item, err := t.itemAt(ctx, i)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	return items, nil
}

// SequenceLen returns the item count of sequence row i.
func (t *Tensor) SequenceLen(row int) (int, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	start, end, err := t.seqEnc.RowRange(row)
	if err != nil {
		return 0, err
	}
	return int(end - start), nil
}

// LinkAt returns the URL stored at idx of a link tensor.
func (t *Tensor) LinkAt(ctx context.Context, idx uint64) (string, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.spec.Link {
		return "", fmt.Errorf("core: tensor %q is not a link tensor", t.name)
	}
	s, err := t.storedSample(ctx, idx)
	if err != nil {
		return "", err
	}
	return string(s.Data), nil
}

// RawAt returns a copy of the stored (still media-encoded) bytes and the
// logical shape of sample idx. The streaming dataloader reads stored
// samples through a ScanReader instead, which reuses the decoded chunk.
func (t *Tensor) RawAt(ctx context.Context, idx uint64) ([]byte, []int, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	s, err := t.storedSample(ctx, idx)
	if err != nil {
		return nil, nil, err
	}
	data := make([]byte, len(s.Data))
	copy(data, s.Data)
	return data, append([]int(nil), s.Shape...), nil
}

// Shape returns the logical shape of sample idx from the shape encoder —
// no chunk data is touched (§3.4 hidden shape metadata).
func (t *Tensor) Shape(idx uint64) ([]int, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.shapeEnc.Get(idx)
}

// DecodeStored decodes a stored sample (RawAt's bytes, or a ScanReader
// sample's Data and Shape) into an array; safe for concurrent use.
func (t *Tensor) DecodeStored(data []byte, shape []int) (*tensor.NDArray, error) {
	return t.decodeSample(chunk.Sample{Shape: shape, Data: data})
}

// ChunkOf exposes the chunk id and local index of a sample; the chunk-aware
// dataloader scheduler groups requests by chunk with it.
func (t *Tensor) ChunkOf(idx uint64) (uint64, int, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chunkEnc.Lookup(idx)
}

// ReadChunkSamples fetches a whole chunk and returns its stored samples;
// the dataloader fetches each chunk once for all samples it needs.
func (t *Tensor) ReadChunkSamples(ctx context.Context, chunkID uint64) ([]chunk.Sample, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.builder.Len() > 0 && chunkID == t.pendingID {
		out := make([]chunk.Sample, len(t.pendingSamples))
		copy(out, t.pendingSamples)
		return out, nil
	}
	raw, err := t.readChunk(ctx, chunkID)
	if err != nil {
		return nil, err
	}
	return chunk.Decode(raw)
}

func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func resolveAxis(r tensor.Range, n int) (int, int, error) {
	lo, hi := r.Start, r.Stop
	if lo < 0 {
		lo += n
	}
	if hi != tensor.End && hi < 0 {
		hi += n
	}
	if hi == tensor.End || hi > n {
		hi = n
	}
	if lo < 0 || lo > n || hi < lo {
		return 0, 0, fmt.Errorf("core: invalid range [%d:%d) for axis of size %d", r.Start, r.Stop, n)
	}
	return lo, hi, nil
}
