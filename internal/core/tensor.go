package core

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/encoder"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Tensor is one typed column of a dataset (§3.2). Appends accumulate in a
// bounded chunk builder; reads consult the chunk encoder and fetch chunks
// (or sub-chunk byte ranges) from the storage provider.
//
// Locking: mu guards the tensor's mutable write state (meta counters,
// builder, encoders, chunk maps, diff). Writers hold it exclusively under a
// shared ds.mu, so appends to different tensors of one dataset run
// concurrently; readers hold both shared. Fields set at construction (ds,
// name, spec, codecs) are immutable and read lock-free — sample encoding
// only touches those, which is why it happens outside every lock.
type Tensor struct {
	ds   *Dataset
	name string
	meta TensorMeta
	spec tensor.HtypeSpec
	// dtype is meta.Dtype resolved once, when the handle is built.
	dtype tensor.Dtype

	mu sync.RWMutex

	codec       chunk.Codec          // the block codec of its chunks
	sampleCodec compress.SampleCodec // nil means raw samples

	chunkEnc *encoder.ChunkEncoder
	shapeEnc *encoder.ShapeEncoder
	tileEnc  *encoder.TileEncoder
	seqEnc   *encoder.SequenceEncoder

	builder   *chunk.Builder
	pendingID uint64
	// layoutGen is the generation of the chunk encoder's map of landed rows:
	// every remap of rows in a landed chunk (ChunkEncoder.Rebind, ReplaceAll)
	// moves it, under mu held exclusively. Appends do not: a sealed chunk
	// never grows, since the next append opens a fresh pendingID. A
	// ScanReader serves the rows of the chunk in its slot with no lock while
	// it reads the generation it resolved them at.
	layoutGen atomic.Uint64

	// chunkVersion maps chunk id -> version directory holding it (§4.2):
	// writeChunk binds an id to the head it writes into, and the map rides
	// the version's state. The ids bound to ds.head are this version's
	// chunk set.
	chunkVersion map[uint64]string
	// sums is the live checksum manifest; see chunkSums for how it is
	// shared with savedState.
	sums chunkSums

	diff diffRecord

	// savedState is the tensor state as of the last seal (or as loaded or
	// created), i.e. the durable state whose chunks are all in storage.
	// Root snapshots embed this rather than the live state, so a generation
	// published between flushes (e.g. by CreateTensor) never references
	// pending chunks. Written under ds.mu held exclusively.
	savedState tensorRootState
}

// newTensor builds an empty tensor from a spec and resolves codecs.
func newTensor(ds *Dataset, spec TensorSpec) (*Tensor, error) {
	hspec, err := tensor.ParseHtype(spec.Htype)
	if err != nil {
		return nil, err
	}
	dtype := cmp.Or(spec.Dtype, hspec.Base.DefaultDtype, tensor.Float64) // Float64: the generic fallback
	sampleComp := cmp.Or(spec.SampleCompression, hspec.Base.DefaultSampleCompression)
	if hspec.Link {
		// Linked tensors store URL strings; media codecs do not apply.
		sampleComp = "none"
	}
	chunkComp := cmp.Or(spec.ChunkCompression, hspec.Base.DefaultChunkCompression)
	bounds := spec.Bounds
	if bounds.Validate() != nil {
		bounds = chunk.DefaultBounds()
	}
	meta := TensorMeta{
		Htype:             hspec.String(),
		Dtype:             dtype.String(),
		SampleCompression: normalizeCodecName(sampleComp),
		ChunkCompression:  normalizeCodecName(chunkComp),
		Hidden:            spec.Hidden,
		Bounds:            bounds,
		NextChunkID:       ds.deleted[spec.Name], // past a deleted namesake's ids
	}
	t, err := newTensorShell(ds, spec.Name, meta, hspec)
	if err != nil {
		return nil, err
	}
	// An empty tensor references no chunk, so its state is durable as is.
	if t.savedState, err = t.snapshotState(); err != nil {
		return nil, err
	}
	return t, nil
}

// newTensorShell builds the common in-memory skeleton of a tensor handle:
// its codecs, fresh encoders, an empty builder sized from meta.Bounds, an
// empty chunk map. Callers loading a tensor still hydrate encoder/diff/chunk
// state.
func newTensorShell(ds *Dataset, name string, meta TensorMeta, hspec tensor.HtypeSpec) (*Tensor, error) {
	dtype, _ := tensor.ParseDtype(meta.Dtype)
	codec, err := chunk.CodecNamed(meta.ChunkCompression)
	if err != nil {
		return nil, err
	}
	t := &Tensor{
		ds:           ds,
		name:         name,
		meta:         meta,
		spec:         hspec,
		dtype:        dtype,
		codec:        codec,
		chunkEnc:     encoder.NewChunkEncoder(),
		shapeEnc:     encoder.NewShapeEncoder(),
		tileEnc:      encoder.NewTileEncoder(),
		seqEnc:       encoder.NewSequenceEncoder(),
		builder:      chunk.NewBuilder(meta.Bounds, codec),
		chunkVersion: map[uint64]string{},
	}
	if meta.SampleCompression != "none" {
		if t.sampleCodec, err = compress.SampleByName(meta.SampleCompression); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func normalizeCodecName(name string) string {
	if name == "" {
		return "none"
	}
	return name
}

// Name returns the tensor name.
func (t *Tensor) Name() string { return t.name }

// ChunkIdentity returns the storage object key of a chunk —
// versions/<vid>/tensors/<name>/chunks/<id> — which is the chunk's
// commit-scoped identity: vid is the version directory that owns the bytes,
// so the same chunk id on two branches (NextChunkID rides versioned meta
// and can collide across them) yields two distinct identities, and a
// checkout that rebinds the id to another version's bytes changes the
// identity with it. An object key is written once (writeChunk), so the
// identity names one byte string for life, and a decoded-chunk cache key
// (ChunkKey) carries it. A chunk not yet resolved to a version — a pending
// chunk still in the writer — is attributed to the current head.
func (t *Tensor) ChunkIdentity(chunkID uint64) string { return t.ChunkKey(chunkID, nil).obj }

// Meta returns a copy of the tensor metadata.
func (t *Tensor) Meta() TensorMeta {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.meta
}

// Htype returns the parsed htype spec.
func (t *Tensor) Htype() tensor.HtypeSpec { return t.spec }

// Dtype returns the element type.
func (t *Tensor) Dtype() tensor.Dtype { return t.dtype }

// Len returns the logical row count.
func (t *Tensor) Len() uint64 {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	return t.lengthShared()
}

// lengthShared reads the row count under the tensor lock only; the caller
// already holds ds.mu (shared or exclusive).
func (t *Tensor) lengthShared() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.meta.Length
}

// NumChunks returns the number of chunks indexed by the chunk encoder.
func (t *Tensor) NumChunks() int {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chunkEnc.NumChunks()
}

// allocChunkID hands out the next chunk id. Caller holds the tensor write
// lock (or ds.mu exclusively).
func (t *Tensor) allocChunkID() uint64 {
	id := t.meta.NextChunkID
	t.meta.NextChunkID++
	return id
}

// snapshotState captures the tensor's live state as a state record. The
// manifest is shared, clipped to its length: the live run only appends past
// it or is replaced by a copy, so the snapshot stays frozen at seal time;
// so do the diff's updated rows (recordUpdate).
func (t *Tensor) snapshotState() (tensorRootState, error) {
	t.diff.Updated = slices.Clip(t.diff.Updated)
	st := tensorRootState{Meta: t.meta, Diff: t.diff, Sums: t.sums[:len(t.sums):len(t.sums)]}
	var err error
	if st.ChunkEnc, err = t.chunkEnc.MarshalBinary(); err != nil {
		return st, err
	}
	if st.ShapeEnc, err = t.shapeEnc.MarshalBinary(); err != nil {
		return st, err
	}
	if st.TileEnc, err = t.tileEnc.MarshalBinary(); err != nil {
		return st, err
	}
	if st.SeqEnc, err = t.seqEnc.MarshalBinary(); err != nil {
		return st, err
	}
	st.ChunkVersions = groupChunkVersions(t.chunkVersion)
	return st, nil
}

// flushPending seals the buffered chunk and hands it to the flush pipeline.
// Caller holds the tensor write lock (or ds.mu exclusively). From the seal
// on, the blob, held in the pipeline's pending map until its upload lands,
// is the copy those rows are read from.
func (t *Tensor) flushPending(ctx context.Context) error {
	if t.builder.Len() == 0 {
		return nil
	}
	blob, _, err := t.builder.Flush()
	if err != nil {
		return err
	}
	return t.writeChunk(ctx, t.pendingID, blob)
}

// writeChunk stores one chunk blob, encoded with the tensor's codec (which
// compresses each block on its own), binds its id to the head version and
// enqueues it on the flush pipeline; the call returns once the chunk is
// queued, and readers see it through the pipeline's pending map until the
// upload lands. Each id is written once. Caller holds the tensor write lock
// (or ds.mu exclusively); ds.head is stable because every writer also holds
// ds.mu shared.
//
// An lz4 tensor's chunk object is its chunk in the lz4 codec's stored frame
// (compress.LZ4Stored, a few bytes of prefix): inflated whole with the
// codec, as lakebench's layer replay inflates the chunk objects of lz4
// tensors, the object yields the chunk. The frame compresses nothing; the
// chunk's blocks carry the compression.
func (t *Tensor) writeChunk(ctx context.Context, id uint64, blob []byte) error {
	if t.codec == chunk.LZ4 {
		blob = compress.LZ4Stored(blob)
	}
	// Record the stored object's CRC32C in the checksum manifest before the
	// bytes go out: the digest describes the blob we hand to storage, so
	// even a parked-and-redriven upload lands bytes matching the manifest.
	t.sums = t.sums.with(id, storage.Checksum(blob))
	// The pipeline records the blob even when enqueue errors (sticky
	// failure or cancelled backpressure wait): the bytes stay readable and a
	// later flush redrives them. Bind the id regardless so tensor state stays
	// consistent with the rows the chunk encoder already references, then
	// surface the error as deferred — append paths finish recording their
	// row before reporting it, keeping multi-tensor rows aligned.
	key := chunkKey(t.ds.head, t.name, id)
	err := t.ds.flusher.enqueue(ctx, key, blob)
	t.chunkVersion[id] = t.ds.head
	if err != nil {
		return &DeferredFlushError{Cause: err}
	}
	return nil
}

// namedChunks lists the chunk ids a tensor's chunk and tile encoders name.
func namedChunks(chunks *encoder.ChunkEncoder, tiles *encoder.TileEncoder) []uint64 {
	ids := chunks.ChunkIDs()
	for _, idx := range tiles.Indices() {
		entry, _ := tiles.Get(idx)
		ids = append(ids, entry.ChunkIDs...)
	}
	return ids
}

// unbindDropped drops the chunks the encoders no longer name (replaced by
// SetAt, Merge, Rechunk or a re-tile) from the chunk map and the checksum
// manifest at the seal, so a reader that resolved one before the update
// finds it until then, and retires them. Caller holds ds.mu exclusively.
func (t *Tensor) unbindDropped() {
	named := make(map[uint64]bool, len(t.chunkVersion))
	for _, id := range namedChunks(t.chunkEnc, t.tileEnc) {
		named[id] = true
	}
	var gone map[uint64]bool
	for id, vid := range t.chunkVersion {
		if named[id] {
			continue
		}
		key := chunkKey(vid, t.name, id)
		delete(t.chunkVersion, id)
		if gone == nil {
			gone = map[uint64]bool{}
		}
		gone[id] = true
		t.retire(id, vid, key, t.savedState.Meta.NextChunkID)
	}
	if gone != nil {
		// A copy: snapshots and twins share the live run's records.
		t.sums = t.sums.without(gone)
	}
}

// retire drops chunk id, stored in version vid under key, from the handle
// cache as it leaves the head's state, and hands a head chunk to collection
// (an ancestor version keeps its own). One whose id is below named may be in
// the published root, or in a tensor a failed publish restores, so the next
// root lists it as superseded; publish deletes any other beside its root Put.
// Caller holds ds.mu exclusively.
func (t *Tensor) retire(id uint64, vid, key string, named uint64) {
	if cache := t.ds.chunks.Load(); cache != nil {
		cache.table.Remove(ChunkKey{scope: t.ds.scope, obj: key})
	}
	switch {
	case vid != t.ds.head:
	case id < named:
		t.ds.superseded = append(t.ds.superseded, key)
	default:
		t.ds.collect = append(t.ds.collect, key)
	}
}

// readChunk fetches and opens chunk id (openStored), resolving the owning
// version directory through the version map. Chunks whose upload is still in
// flight are served from the pipeline's pending map, so same-process readers
// never race the background uploaders.
//
// Corruption Open detects above the storage chain (a bad frame, header,
// directory or table) is healed once: the poisoned copy is evicted from any
// cache in the chain and the chunk re-fetched through the verifying
// providers. Bytes that are still bad after that surface as an error naming
// the exact object, wrapping chunk.ErrCorrupt. A chunk's data blocks are
// checked as reads first touch them (chunk.Chunk); the read that finds one
// bad heals it the same way (Tensor.healed).
func (t *Tensor) readChunk(ctx context.Context, id uint64) (*chunk.Chunk, error) {
	vid, ok := t.chunkVersion[id]
	if !ok {
		return nil, fmt.Errorf("core: chunk %d of tensor %q not found in any version", id, t.name)
	}
	key := chunkKey(vid, t.name, id)
	raw, inflight := t.ds.flusher.lookup(key)
	if !inflight {
		var err error
		raw, err = t.ds.store.Get(ctx, key)
		if err != nil {
			if storage.IsNotFound(err) {
				return nil, fmt.Errorf("core: chunk object %q of tensor %q is referenced by the manifest but missing from storage: %w", key, t.name, err)
			}
			return nil, err
		}
	}
	c, err := openStored(t.codec, raw)
	if err == nil {
		return c, nil
	}
	if inflight {
		// In-memory pending bytes never involve a cache or transport;
		// corruption here is a real bug, not a heal candidate.
		return nil, fmt.Errorf("core: in-flight chunk %q of tensor %q: %w", key, t.name, err)
	}
	storage.Evict(t.ds.store, key)
	raw, ferr := t.ds.store.Get(ctx, key)
	if ferr != nil {
		return nil, fmt.Errorf("core: re-fetch of corrupt chunk %q of tensor %q failed: %w", key, t.name, ferr)
	}
	c, err = openStored(t.codec, raw)
	if err != nil {
		return nil, fmt.Errorf("core: chunk object %q of tensor %q is corrupt after re-fetch: %w", key, t.name, err)
	}
	return c, nil
}

// openStored opens the stored chunk object of a tensor whose block codec is
// codec (chunk.Open), out of the lz4 tensor's stored frame (writeChunk).
// Every failure wraps chunk.ErrCorrupt: an object that is no frame is by
// definition not the bytes the writer produced.
func openStored(codec chunk.Codec, obj []byte) (*chunk.Chunk, error) {
	if codec == chunk.LZ4 {
		var err error
		if obj, err = compress.LZ4StoredPayload(obj); err != nil {
			return nil, fmt.Errorf("%w: %w", chunk.ErrCorrupt, err)
		}
	}
	return chunk.Open(obj)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func unmarshalJSON(data []byte, v any) error { return json.Unmarshal(data, v) }
