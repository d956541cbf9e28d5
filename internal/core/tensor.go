package core

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"sync"

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

	mu sync.RWMutex

	chunkCodec  compress.Codec       // nil means uncompressed chunks
	sampleCodec compress.SampleCodec // nil means raw samples

	chunkEnc *encoder.ChunkEncoder
	shapeEnc *encoder.ShapeEncoder
	tileEnc  *encoder.TileEncoder
	seqEnc   *encoder.SequenceEncoder

	builder        *chunk.Builder
	pendingID      uint64
	pendingSamples []chunk.Sample

	// chunkVersion maps chunk id -> version directory holding it (§4.2):
	// writeChunk binds an id to the head it writes into, and the map rides
	// the version's state. The ids bound to ds.head are this version's
	// chunk set.
	chunkVersion map[uint64]string

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
	dtype := spec.Dtype
	if dtype == tensor.InvalidDtype {
		dtype = hspec.Base.DefaultDtype
		if dtype == tensor.InvalidDtype {
			dtype = tensor.Float64 // generic fallback
		}
	}
	sampleComp := spec.SampleCompression
	if sampleComp == "" {
		sampleComp = hspec.Base.DefaultSampleCompression
	}
	if hspec.Link {
		// Linked tensors store URL strings; media codecs do not apply.
		sampleComp = "none"
	}
	chunkComp := spec.ChunkCompression
	if chunkComp == "" {
		chunkComp = hspec.Base.DefaultChunkCompression
	}
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
	}
	t := newTensorShell(ds, spec.Name, meta, hspec)
	if err := t.resolveCodecs(); err != nil {
		return nil, err
	}
	// An empty tensor references no chunk, so its state is durable as is.
	if t.savedState, err = t.snapshotState(); err != nil {
		return nil, err
	}
	return t, nil
}

// newTensorShell builds the common in-memory skeleton of a tensor handle:
// fresh encoders, an empty builder sized from meta.Bounds, an empty chunk
// map. Callers still resolve codecs and (when loading) hydrate
// encoder/diff/chunk state.
func newTensorShell(ds *Dataset, name string, meta TensorMeta, hspec tensor.HtypeSpec) *Tensor {
	t := &Tensor{
		ds:           ds,
		name:         name,
		meta:         meta,
		spec:         hspec,
		chunkEnc:     encoder.NewChunkEncoder(),
		shapeEnc:     encoder.NewShapeEncoder(),
		tileEnc:      encoder.NewTileEncoder(),
		seqEnc:       encoder.NewSequenceEncoder(),
		builder:      chunk.NewBuilder(meta.Bounds),
		chunkVersion: map[uint64]string{},
	}
	t.builder.SetAutotune(int(ds.writeOpts.AutotuneChunkBytes))
	if meta.Autotune != nil {
		t.builder.RestoreAutotune(*meta.Autotune)
	}
	return t
}

func normalizeCodecName(name string) string {
	if name == "" {
		return "none"
	}
	return name
}

func (t *Tensor) resolveCodecs() error {
	if t.meta.ChunkCompression != "none" {
		c, err := compress.ByName(t.meta.ChunkCompression)
		if err != nil {
			return err
		}
		t.chunkCodec = c
	}
	if t.meta.SampleCompression != "none" {
		c, err := compress.SampleByName(t.meta.SampleCompression)
		if err != nil {
			return err
		}
		t.sampleCodec = c
	}
	return nil
}

// Name returns the tensor name.
func (t *Tensor) Name() string { return t.name }

// ChunkIdentity returns the storage object key of a chunk —
// versions/<vid>/tensors/<name>/chunks/<id> — which is the chunk's
// commit-scoped identity: vid is the version directory that owns the bytes,
// so the same chunk id on two branches (NextChunkID rides versioned meta
// and can collide across them) yields two distinct identities, and a
// checkout that rebinds the id to another version's bytes changes the
// identity with it. Shared decoded-chunk caches use this (plus the
// dataset's ScopeID) as their key. A chunk not yet resolved to a version —
// a pending chunk still in the writer — is attributed to the current head.
func (t *Tensor) ChunkIdentity(chunkID uint64) string {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	vid, ok := t.chunkVersion[chunkID]
	if !ok {
		vid = t.ds.head
	}
	return chunkKey(vid, t.name, chunkID)
}

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
func (t *Tensor) Dtype() tensor.Dtype {
	d, _ := tensor.ParseDtype(t.meta.Dtype)
	return d
}

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

// EffectiveBounds returns the chunk builder's current working bounds: the
// static spec bounds reshaped by the autotune schedule (doubling toward the
// cap, shrink-on-regret after oversized seals, the mean-sample floor).
// Observability for ingest tooling; the schedule itself persists in the
// tensor metadata so reopened writers resume it.
func (t *Tensor) EffectiveBounds() chunk.Bounds {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.builder.EffectiveBounds()
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
// Checksums map is deep-copied: the live map keeps growing as chunks are
// written, while the snapshot must stay frozen at seal time.
func (t *Tensor) snapshotState() (tensorRootState, error) {
	st := tensorRootState{Meta: t.meta, Diff: t.diff}
	st.Meta.Checksums = maps.Clone(t.meta.Checksums)
	// Freeze the autotuner's schedule position into the snapshot (fresh
	// pointer: the live builder keeps moving after save).
	at := t.builder.AutotuneState()
	st.Meta.Autotune = &at
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

// flushPending seals the buffered chunk and writes it to storage. Caller
// holds the tensor write lock (or ds.mu exclusively). pendingSamples is
// cleared as soon as the builder is consumed — from that point the sealed
// blob (inline-stored, or held in the pipeline's pending map) is the
// authoritative copy those rows are read from.
func (t *Tensor) flushPending(ctx context.Context) error {
	if t.builder.Len() == 0 {
		return nil
	}
	blob, _, err := t.builder.Flush()
	if err != nil {
		return err
	}
	t.pendingSamples = nil
	return t.writeChunk(ctx, t.pendingID, blob)
}

// writeChunk compresses and stores one chunk blob in the head version,
// binding its id to that version. With a flush pipeline configured
// the sealed blob is handed to the background uploaders and the call
// returns once the chunk is queued (readers see it through the pipeline's
// pending map until the upload lands); otherwise the Put happens inline.
// Caller holds the tensor write lock (or ds.mu exclusively); ds.head is
// stable because every writer also holds ds.mu shared.
func (t *Tensor) writeChunk(ctx context.Context, id uint64, blob []byte) error {
	if t.chunkCodec != nil {
		var err error
		blob, err = t.chunkCodec.Compress(blob)
		if err != nil {
			return err
		}
	}
	// Record the stored object's CRC32C in the checksum manifest before the
	// bytes go out: the digest describes the blob we hand to storage, so
	// even a parked-and-redriven upload lands bytes matching the manifest.
	if t.meta.Checksums == nil {
		t.meta.Checksums = map[string]uint32{}
	}
	t.meta.Checksums[chunkName(id)] = storage.Checksum(blob)
	key := chunkKey(t.ds.head, t.name, id)
	if fp := t.ds.flusher; fp != nil {
		// The pipeline records the blob even when enqueue errors (sticky
		// failure or cancelled backpressure wait): the bytes stay readable
		// and a later flush redrives them. Register the chunk in the index
		// maps regardless so tensor state stays consistent with the rows
		// the chunk encoder already references, then surface the error as
		// deferred — append paths finish recording their row before
		// reporting it, keeping multi-tensor rows aligned.
		err := fp.enqueue(ctx, key, blob)
		t.chunkVersion[id] = t.ds.head
		if err != nil {
			return &DeferredFlushError{Cause: err}
		}
		return nil
	}
	if err := t.ds.store.Put(ctx, key, blob); err != nil {
		return err
	}
	t.chunkVersion[id] = t.ds.head
	return nil
}

// readChunk fetches, decompresses and integrity-checks chunk id, resolving
// the owning version directory through the version map. Chunks whose upload
// is still in flight are served from the pipeline's pending map, so
// same-process readers never race the background uploaders.
//
// Corruption detected above the storage chain (a decompression failure or a
// failed chunk-footer CRC) is healed once: the poisoned copy is evicted from
// any cache in the chain and the chunk re-fetched through the verifying
// providers. Bytes that are still bad after that surface as an error naming
// the exact object, wrapping chunk.ErrCorrupt.
func (t *Tensor) readChunk(ctx context.Context, id uint64) ([]byte, error) {
	vid, ok := t.chunkVersion[id]
	if !ok {
		return nil, fmt.Errorf("core: chunk %d of tensor %q not found in any version", id, t.name)
	}
	key := chunkKey(vid, t.name, id)
	raw, inflight := []byte(nil), false
	if fp := t.ds.flusher; fp != nil {
		raw, inflight = fp.lookup(key)
	}
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
	blob, err := t.decodeChunkBlob(raw)
	if err == nil {
		return blob, nil
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
	blob, err = t.decodeChunkBlob(raw)
	if err != nil {
		return nil, fmt.Errorf("core: chunk object %q of tensor %q is corrupt after re-fetch: %w", key, t.name, err)
	}
	return blob, nil
}

// decodeChunkBlob decompresses a stored chunk object and verifies its footer
// CRC when the chunk format carries one. Every failure mode wraps
// chunk.ErrCorrupt: a blob that fails to decompress is by definition not the
// bytes the writer produced.
func (t *Tensor) decodeChunkBlob(raw []byte) ([]byte, error) {
	blob := raw
	if t.chunkCodec != nil {
		var err error
		blob, err = t.chunkCodec.Decompress(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: decompress: %w", chunk.ErrCorrupt, err)
		}
	}
	if _, err := chunk.Verify(blob); err != nil {
		return nil, err
	}
	return blob, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func unmarshalJSON(data []byte, v any) error { return json.Unmarshal(data, v) }
