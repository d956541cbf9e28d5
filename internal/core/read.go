package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/tensor"
)

// At returns sample idx as an array. Sequence rows come back stacked when
// items share a shape (use SequenceAt otherwise); link samples come back as
// the stored URL bytes (use view.Resolve to fetch the target). It is a
// one-shot ScanReader, so it reads the row's chunk through the handle's
// decoded-chunk cache: only the first read of a chunk fetches and decodes
// it.
func (t *Tensor) At(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	return t.NewScanReader().At(ctx, idx)
}

// decode turns a stored sample into an array. The raw-payload copy, and
// the decoded pixels of a codec that supports DecodeInto, come from a (nil
// means the heap): the per-sample make+copy the hot scan path would
// otherwise pay becomes a bump allocation in a pooled slab. Only the
// codec's internal decode state still allocates where the codec puts it.
func (t *Tensor) decode(s chunk.Sample, a *chunk.Arena) (*tensor.NDArray, error) {
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

// Slice reads a sub-region of sample idx (TQL's images[a:b, c:d]). Tiled
// samples fetch only overlapping tiles; raw uncompressed samples whose
// region constrains only the first axis are read with checked sub-chunk
// byte range requests (§3.5), never transferring the rest of the sample. Any
// other sample is read whole by a one-shot ScanReader and then sliced.
func (t *Tensor) Slice(ctx context.Context, idx uint64, region []tensor.Range) (*tensor.NDArray, error) {
	if t.spec.Sequence {
		return nil, fmt.Errorf("core: Slice of sequence tensors is not supported; slice items individually")
	}
	r := t.NewScanReader()
	loc, err := r.locate(idx)
	if err != nil {
		return nil, err
	}
	if loc.tile != nil {
		return r.tiled(ctx, *loc.tile, region)
	}
	// Range-read fast path: uncompressed chunk + raw sample + region
	// constraining only axis 0.
	if t.codec == chunk.None && t.sampleCodec == nil && len(region) == 1 {
		if arr, ok, err := t.rangeReadFirstAxis(ctx, idx, region[0]); err != nil {
			return nil, err
		} else if ok {
			return arr, nil
		}
	}
	arr, err := r.At(ctx, idx)
	if err != nil {
		return nil, err
	}
	return arr.Slice(region...)
}

// rangeReadFirstAxis serves Slice(idx, [lo:hi]) with the sparse read of a
// chunk (readRanges): its block table, its directory and the blocks holding
// the slice's bytes, each checked. ok=false means the fast path does not
// apply (the sample sits in the write buffer or in a chunk still in flight,
// or is a scalar).
func (t *Tensor) rangeReadFirstAxis(ctx context.Context, idx uint64, r tensor.Range) (*tensor.NDArray, bool, error) {
	t.ds.mu.RLock()
	t.mu.RLock()
	sp, ok, err := t.planSlice(idx, r)
	t.mu.RUnlock()
	t.ds.mu.RUnlock()
	if !ok || err != nil {
		return nil, false, err
	}
	parts, err := t.readRanges(ctx, sp.key, sp.plan, getEach(t.ds.store))
	if err != nil {
		return nil, false, err
	}
	// The range may be a sub-slice of a cached object (storage.Provider's
	// bytes are read-only), and the array is the caller's to write.
	data := slices.Clone(sp.plan.SampleBytes(parts, sp.local, sp.start, sp.end))
	arr, err := tensor.FromBytes(t.Dtype(), sp.shape, data)
	if err != nil {
		return nil, false, err
	}
	return arr, true, nil
}

// slicePlan is the sparse read of a first-axis slice of one sample: bytes
// [start, end) of sample local of the chunk under key, which form an array
// of the given shape.
type slicePlan struct {
	plan       *chunk.Sparse
	key        string
	local      int
	start, end uint64
	shape      []int
}

// planSlice plans the read of region r of sample idx's first axis. The
// caller holds the tensor's read locks.
func (t *Tensor) planSlice(idx uint64, r tensor.Range) (sp slicePlan, ok bool, err error) {
	first, last, id, err := t.chunkEnc.Span(idx)
	if err != nil {
		return sp, false, err
	}
	if sp.key, ok = t.landedKey(id); !ok {
		return sp, false, nil
	}
	shape, err := t.shapeEnc.Get(idx)
	if err != nil || len(shape) == 0 {
		return sp, false, err
	}
	lo, hi, err := resolveAxis(r, shape[0])
	if err != nil {
		return sp, false, err
	}
	layout, err := t.layout(first, last)
	if err != nil {
		return sp, false, err
	}
	rowBytes := uint64(prod(shape[1:]) * t.dtype.Size())
	sp.local, sp.start, sp.end = int(idx-first), uint64(lo)*rowBytes, uint64(hi)*rowBytes
	sp.shape = append([]int{hi - lo}, shape[1:]...)
	sp.plan = layout.Bytes(sp.local, sp.start, sp.end)
	return sp, true, nil
}

// SequenceAt returns the items of sequence row i through a one-shot
// ScanReader.
func (t *Tensor) SequenceAt(ctx context.Context, row int) ([]*tensor.NDArray, error) {
	return t.NewScanReader().SequenceAt(ctx, row)
}

// SequenceLen returns the item count of sequence row i.
func (t *Tensor) SequenceLen(row int) (int, error) {
	start, end, err := t.itemRange(row)
	return int(end - start), err
}

// itemRange returns the flat item range [start, end) of sequence row i.
func (t *Tensor) itemRange(row int) (start, end uint64, err error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.seqEnc.RowRange(row)
}

// LinkAt returns the URL stored at idx of a link tensor, read by a one-shot
// ScanReader.
func (t *Tensor) LinkAt(ctx context.Context, idx uint64) (string, error) {
	if !t.spec.Link {
		return "", fmt.Errorf("core: tensor %q is not a link tensor", t.name)
	}
	r := t.NewScanReader()
	loc, err := r.locate(idx)
	if err != nil {
		return "", err
	}
	s, err := r.sample(ctx, loc)
	return string(s.Data), err
}

// RawAt returns a copy of the stored (still media-encoded) bytes and the
// logical shape of row idx, read by a one-shot ScanReader. A tiled sample is
// raw, so its bytes are those of the assembled array. A sequence row has no
// one stored sample, so RawAt refuses a sequence tensor (ScanReader.StoredRow
// reads a row's stored items).
func (t *Tensor) RawAt(ctx context.Context, idx uint64) ([]byte, []int, error) {
	if t.spec.Sequence {
		return nil, nil, fmt.Errorf("core: RawAt of sequence tensor %q: a row holds several stored items; use SequenceAt or ScanReader.StoredRow", t.name)
	}
	r := t.NewScanReader()
	loc, err := r.locate(idx)
	if err != nil {
		return nil, nil, err
	}
	if loc.tile != nil {
		arr, err := r.tiled(ctx, *loc.tile, nil)
		if err != nil {
			return nil, nil, err
		}
		return arr.Bytes(), arr.Shape(), nil
	}
	s, err := r.sample(ctx, loc)
	if err != nil {
		return nil, nil, err
	}
	return slices.Clone(s.Data), slices.Clone(s.Shape), nil
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

// RowShape returns the logical shape of row idx from the shape encoder, with
// no chunk IO. A sequence row's shape is the stacked shape At returns, its
// item count and then its items' shape, when every item has one shape; ok
// is false, with no error, for a row with no items or with items of
// differing shapes, which only a read can answer (At fails on both).
func (t *Tensor) RowShape(idx uint64) (shape []int, ok bool, err error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.spec.Sequence {
		shape, err = t.shapeEnc.Get(idx)
		return shape, err == nil, err
	}
	start, end, err := t.seqEnc.RowRange(int(idx))
	if err != nil || start == end {
		return nil, false, err
	}
	last, item, err := t.shapeEnc.Run(start)
	if err != nil || last < end-1 {
		return nil, false, err
	}
	return append([]int{int(end - start)}, item...), true, nil
}

// ShapeRunEnds returns, in sample order, the index of the last sample of
// each run of samples the shape encoder records one shape for, with no
// chunk IO. A sequence tensor's samples are its items.
func (t *Tensor) ShapeRunEnds() []uint64 {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.shapeEnc.RunEnds()
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

// ReadChunk fetches a whole chunk and opens it; the dataloader fetches each
// chunk once for all samples it needs. Each sample's Data and Shape are
// storage-owned and read-only: for an uncompressed chunk, Data aliases the
// bytes the provider chain returned, which a byte cache shares with every
// reader; a compressed chunk inflates the blocks a read touches into a
// buffer of its own. It reads past the lineage's decoded-chunk cache: it is
// the load the dataloader's NodeCache runs on its own misses.
func (t *Tensor) ReadChunk(ctx context.Context, chunkID uint64) (*chunk.Chunk, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.loadChunk(ctx, chunkID)
}

// loadChunk is ReadChunk under the caller's tensor locks, read or write. The
// write buffer's chunk comes back over a copy of the builder's sample list.
func (t *Tensor) loadChunk(ctx context.Context, chunkID uint64) (*chunk.Chunk, error) {
	if t.builder.Len() > 0 && chunkID == t.pendingID {
		return chunk.FromSamples(slices.Clone(t.builder.Samples())), nil
	}
	return t.readChunk(ctx, chunkID)
}

// chunkSamples is every sample of chunk id, in a list of the caller's own,
// read through the lineage's cache (chunkLocked) under the caller's tensor
// locks: Rechunk and SetAt, which hold the write lock, read whole chunks
// through it.
func (t *Tensor) chunkSamples(ctx context.Context, chunkID uint64) ([]chunk.Sample, error) {
	obj := func(id uint64) string { return chunkKey(t.chunkVersion[id], t.name, id) }
	samples, err := t.samplesOf(ctx, chunkID, t.chunkLocked, obj)
	return slices.Clone(samples), err
}

// samplesOf is every sample of chunk id as fetch loads it, read whole, a
// damaged block healed (Tensor.healed; obj names the chunk's object). The
// list is shared and read-only, as ReadChunk says.
func (t *Tensor) samplesOf(ctx context.Context, id uint64, fetch ChunkFetch, obj func(uint64) string) ([]chunk.Sample, error) {
	c, err := fetch(ctx, id)
	if err != nil {
		return nil, err
	}
	var samples []chunk.Sample
	read := func(c *chunk.Chunk) (err error) {
		samples, err = c.Samples()
		return err
	}
	if _, err = t.healed(ctx, c, id, read(c), fetch, obj, read); err != nil {
		return nil, err
	}
	return samples, nil
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
