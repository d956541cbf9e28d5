package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/chunk"
	"repro/internal/storage"
)

// SparseChunk is a planned read of some samples of one stored chunk: the
// checked byte ranges that hold them (chunk.Sparse) under the chunk's object
// key. Tensor.PlanSparse makes one, a StripPlan prefetches its ranges in the
// strip's batched request, and Tensor.ReadSparse reads it.
type SparseChunk struct {
	key  string
	plan *chunk.Sparse
}

// Blocks reports how many of the chunk's data blocks the read fetches, and
// how many it has.
func (s *SparseChunk) Blocks() (read, total int64) { return s.plan.Blocks() }

// Size is the bytes the read fetches.
func (s *SparseChunk) Size() int64 { return s.plan.Size() }

// requests returns the read's ranges as storage requests, each carrying its
// check against one fresh checker, so a batch that carries them all is
// checked in full by a Verify layer below.
func (s *SparseChunk) requests() []storage.RangeReq {
	return rangeRequests(s.key, s.plan)
}

func rangeRequests(key string, plan *chunk.Sparse) []storage.RangeReq {
	c := plan.Checker()
	reqs := make([]storage.RangeReq, len(plan.Ranges()))
	for i, r := range plan.Ranges() {
		reqs[i] = storage.RangeReq{Key: key, Offset: r.Offset, Length: r.Length,
			Check: func(b []byte) (bool, error) { return c.Check(i, b) }}
	}
	return reqs
}

// ReadsInPart reports whether PlanSparse can read any chunk of t in part:
// t has neither sample nor chunk compression and is no sequence or link.
func (t *Tensor) ReadsInPart() bool {
	return t.codec == chunk.None && t.sampleCodec == nil && !t.spec.Sequence && !t.spec.Link
}

// PlanSparse plans the read of only the given rows (flat sample indices,
// all in one chunk) of a landed, untiled chunk of a tensor that ReadsInPart:
// from the chunk and shape encoders it computes where the chunk's
// directory, block table and the rows' blocks lie. ok is false when the
// chunk cannot be read in part, or the rows are all of it.
func (t *Tensor) PlanSparse(rows []uint64) (s *SparseChunk, ok bool) {
	if len(rows) == 0 || !t.ReadsInPart() {
		return nil, false
	}
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	first, last, id, err := t.chunkEnc.Span(rows[0])
	if err != nil || uint64(len(rows)) == last-first+1 {
		return nil, false
	}
	key, ok := t.landedKey(id)
	if !ok {
		return nil, false
	}
	sel := make([]int, len(rows))
	for i, r := range rows {
		if _, tiled := t.tileEnc.Get(r); tiled || r < first || r > last {
			return nil, false
		}
		sel[i] = int(r - first)
	}
	layout, err := t.layout(first, last)
	if err != nil {
		return nil, false
	}
	return &SparseChunk{key: key, plan: layout.Samples(sel)}, true
}

// landedKey returns the object key of chunk id when its bytes are in
// storage: neither in the write buffer nor still in the flush pipeline.
// The caller holds the tensor's read locks.
func (t *Tensor) landedKey(id uint64) (string, bool) {
	if t.builder.Len() > 0 && id == t.pendingID {
		return "", false
	}
	vid, ok := t.chunkVersion[id]
	if !ok {
		return "", false
	}
	key := chunkKey(vid, t.name, id)
	if _, inflight := t.ds.flusher.lookup(key); inflight {
		return "", false
	}
	return key, true
}

// layout computes the layout of the raw chunk holding samples [first,
// last]. The caller holds the tensor's read locks.
func (t *Tensor) layout(first, last uint64) (chunk.Layout, error) {
	n := last - first + 1
	shapes := make([][]int, n)
	sizes := make([]int64, n)
	for i := range shapes {
		shape, err := t.shapeEnc.Get(first + uint64(i))
		if err != nil {
			return chunk.Layout{}, err
		}
		shapes[i], sizes[i] = shape, int64(prod(shape)*t.dtype.Size())
	}
	return chunk.NewLayout(shapes, sizes), nil
}

// ReadSparse reads a planned sparse chunk: the chunk's samples, each with
// its shape and only the planned ones with their payload, which aliases the
// bytes the provider chain returned (storage-owned and read-only, as
// ReadChunk says). The ranges go to the chain in one batch, so they join a
// strip's prefetch of them, and every one is checked here whatever the chain
// below checked.
func (t *Tensor) ReadSparse(ctx context.Context, s *SparseChunk) (*chunk.Chunk, error) {
	parts, err := t.readRanges(ctx, s.key, s.plan, func(ctx context.Context, reqs []storage.RangeReq) ([][]byte, error) {
		return storage.GetRanges(ctx, t.ds.store, reqs)
	})
	if err != nil {
		return nil, err
	}
	return chunk.FromSamples(s.plan.Decode(parts)), nil
}

// readRanges fetches plan's ranges of object key with get and checks them
// all, as readChunk checks a whole chunk: a failed check evicts the
// object's cached bytes from the chain and fetches once more, and bytes still
// bad after that are an error naming the object that wraps chunk.ErrCorrupt.
func (t *Tensor) readRanges(ctx context.Context, key string, plan *chunk.Sparse, get func(context.Context, []storage.RangeReq) ([][]byte, error)) ([][]byte, error) {
	parts, err := get(ctx, rangeRequests(key, plan))
	if err != nil {
		if storage.IsNotFound(err) {
			return nil, fmt.Errorf("core: chunk object %q of tensor %q is referenced by the manifest but missing from storage: %w", key, t.name, err)
		}
		return nil, err
	}
	if err := plan.Check(parts); err == nil {
		return parts, nil
	}
	storage.Evict(t.ds.store, key)
	if parts, err = get(ctx, rangeRequests(key, plan)); err != nil {
		return nil, fmt.Errorf("core: re-fetch of corrupt chunk %q of tensor %q failed: %w", key, t.name, err)
	}
	if err := plan.Check(parts); err != nil {
		return nil, fmt.Errorf("core: chunk object %q of tensor %q is corrupt after re-fetch: %w", key, t.name, err)
	}
	return parts, nil
}

// getEach fetches each request with its own GetRange, all at once: a
// one-off read has no strip to join.
func getEach(store storage.Provider) func(context.Context, []storage.RangeReq) ([][]byte, error) {
	return func(ctx context.Context, reqs []storage.RangeReq) ([][]byte, error) {
		out := make([][]byte, len(reqs))
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for i, r := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i], errs[i] = store.GetRange(ctx, r.Key, r.Offset, r.Length)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}
