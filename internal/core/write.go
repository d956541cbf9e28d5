package core

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/color"
	_ "image/jpeg" // registered for AppendEncoded shape sniffing
	_ "image/png"

	"repro/internal/chunk"
	"repro/internal/encoder"
	"repro/internal/tensor"
)

// The append paths below share one locking discipline: sample validation
// and encoding (htype checks, media codecs, byte copies — the CPU-heavy
// part) run outside every lock, then appendRows, the one locked tail, takes
// ds.mu shared (so the dataset cannot be flushed, committed, or checked out
// mid-append, while other tensors append concurrently) plus this tensor's
// write lock for the index/builder mutation, which is pure in-memory work:
// sealed chunks leave through the flush pipeline.

// beginWrite takes the shared structure lock and re-checks that the write
// can proceed: the dataset must be writable, and this handle must still be
// the live tensor — a Checkout during the unlocked encoding replaces
// ds.tensors with fresh objects, and committing to an orphaned handle
// would silently lose the write. On success the caller holds ds.mu.RLock.
func (t *Tensor) beginWrite() error {
	t.ds.mu.RLock()
	if err := t.ds.ensureWritable(); err != nil {
		t.ds.mu.RUnlock()
		return err
	}
	if t.ds.tensors[t.name] != t {
		t.ds.mu.RUnlock()
		return fmt.Errorf("core: tensor handle %q is stale (a checkout replaced it); reacquire it with Dataset.Tensor", t.name)
	}
	return nil
}

// writableNow snapshots writability without retaining any lock; append
// paths use it to surface the detached-checkout error before paying for
// encoding.
func (ds *Dataset) writableNow() error {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.ensureWritable()
}

// Append adds one sample to the tensor. For sequence tensors use
// AppendSequence; for link tensors use AppendLink.
func (t *Tensor) Append(ctx context.Context, arr *tensor.NDArray) error {
	if err := t.checkPlainAppend(); err != nil {
		return err
	}
	s, err := t.encodeSample(arr)
	if err != nil {
		return err
	}
	return t.appendRows(ctx, []chunk.Sample{s}, []*tensor.NDArray{arr})
}

// AppendBatch appends samples along the first axis of a stacked array: a
// [N, ...] array becomes N samples of shape [...]. The whole batch is
// validated and encoded up front, outside every lock, and appended under a
// single lock acquisition — one writability check and one lock handoff per
// batch instead of per row.
func (t *Tensor) AppendBatch(ctx context.Context, batch *tensor.NDArray) error {
	if batch.NDim() == 0 {
		return fmt.Errorf("core: batch must have a leading axis")
	}
	if err := t.checkPlainAppend(); err != nil {
		return err
	}
	rows := make([]*tensor.NDArray, batch.Shape()[0])
	for i := range rows {
		var err error
		if rows[i], err = batch.Index(i); err != nil {
			return err
		}
	}
	encoded, err := t.encodeSamples(rows)
	if err != nil {
		return err
	}
	return t.appendRows(ctx, encoded, rows)
}

// checkPlainAppend surfaces, before any encoding, the errors of appending a
// plain row: an unwritable dataset, a sequence tensor, a link tensor.
func (t *Tensor) checkPlainAppend() error {
	if err := t.ds.writableNow(); err != nil {
		return err
	}
	if t.spec.Sequence {
		return fmt.Errorf("core: tensor %q is a sequence tensor; use AppendSequence", t.name)
	}
	if t.spec.Link {
		return fmt.Errorf("core: tensor %q is a link tensor; use AppendLink", t.name)
	}
	return nil
}

// AppendSequence adds one row of ordered items to a sequence tensor
// (§3.3, sequence[image]). Items are validated against the base htype.
func (t *Tensor) AppendSequence(ctx context.Context, items []*tensor.NDArray) error {
	if err := t.ds.writableNow(); err != nil {
		return err
	}
	if !t.spec.Sequence {
		return fmt.Errorf("core: tensor %q is not a sequence tensor", t.name)
	}
	encoded, err := t.encodeSamples(items)
	if err != nil {
		return err
	}
	return t.appendRows(ctx, encoded, items)
}

// AppendLink adds a reference to externally stored data to a link tensor
// (§4.5: linked tensors store pointers to one or multiple cloud providers).
func (t *Tensor) AppendLink(ctx context.Context, url string) error {
	if err := t.ds.writableNow(); err != nil {
		return err
	}
	if !t.spec.Link {
		return fmt.Errorf("core: tensor %q is not a link tensor", t.name)
	}
	return t.appendRows(ctx, []chunk.Sample{{Shape: []int{len(url)}, Data: []byte(url)}}, nil)
}

// AppendEncoded copies pre-encoded media bytes straight into a chunk
// without recoding, the paper's fast ingestion path (§5: "If a raw image
// compression matches the tensor sample compression, the binary is directly
// copied into a chunk without additional decoding"). The sample shape is
// sniffed from the media header, outside any lock.
func (t *Tensor) AppendEncoded(ctx context.Context, data []byte) error {
	if err := t.ds.writableNow(); err != nil {
		return err
	}
	if t.sampleCodec == nil {
		return fmt.Errorf("core: tensor %q has no sample compression; AppendEncoded requires one", t.name)
	}
	cfg, format, err := image.DecodeConfig(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("core: cannot sniff media header: %w", err)
	}
	if format != t.meta.SampleCompression {
		return fmt.Errorf("core: media format %q does not match tensor sample compression %q", format, t.meta.SampleCompression)
	}
	shape := []int{cfg.Height, cfg.Width, 3}
	if cfg.ColorModel == color.GrayModel || cfg.ColorModel == color.Gray16Model {
		shape = []int{cfg.Height, cfg.Width}
	}
	return t.appendRows(ctx, []chunk.Sample{{Shape: shape, Data: data}}, nil)
}

// Row is one row in a tensor's stored form, read by one of that tensor's
// RowReaders outside every lock, on any goroutine; AppendRow appends it to a
// tensor storing rows alike.
type Row struct {
	t       *Tensor           // whose stored form the row is in
	samples []chunk.Sample    // one, or a sequence row's items
	arrs    []*tensor.NDArray // their decoded arrays, when the row has them
}

// RowReader reads the rows of a source tensor in a destination tensor's
// stored form, on one goroutine, for one walk as a ScanReader does. If the
// source stores rows as the destination does (same htype, dtype and sample
// compression), a row is its stored samples (ScanReader.StoredRow), aliased
// read-only, with no sample decode or encode (§5: "directly copied into a
// chunk without additional decoding"): the reader's slot reads a stored
// chunk whole once, and rows of its span in stored order take no lock and
// no allocation. A row of a source that stores rows otherwise, or a tiled
// one, is decoded and encoded for the destination.
type RowReader struct {
	t    *Tensor
	r    *ScanReader
	same bool // the source stores rows as t does
}

// RowsFrom returns a reader of src's rows in t's stored form.
func (t *Tensor) RowsFrom(src *Tensor) *RowReader {
	return &RowReader{t: t, r: src.NewScanReader(), same: t.storesLike(src)}
}

// storesLike reports whether t stores rows as o does: the same htype, dtype
// and sample compression, none of which ever changes.
func (t *Tensor) storesLike(o *Tensor) bool {
	return t.spec == o.spec && t.dtype == o.dtype && t.meta.SampleCompression == o.meta.SampleCompression
}

// Row reads source row idx.
func (rr *RowReader) Row(ctx context.Context, idx uint64) (Row, error) {
	if rr.same {
		if samples, ok, err := rr.r.StoredRow(ctx, idx); err != nil || ok {
			return Row{t: rr.t, samples: samples}, err
		}
	}
	arrs := []*tensor.NDArray{nil} // or a sequence row's items
	var err error
	if rr.t.spec.Sequence {
		arrs, err = rr.r.SequenceAt(ctx, int(idx))
	} else {
		arrs[0], err = rr.r.At(ctx, idx)
	}
	if err != nil {
		return Row{}, err
	}
	samples, err := rr.t.encodeSamples(arrs)
	return Row{t: rr.t, samples: samples, arrs: arrs}, err
}

// AppendRow appends a row read in t's stored form or a form alike.
func (t *Tensor) AppendRow(ctx context.Context, row Row) error {
	if row.t == nil || !t.storesLike(row.t) {
		return fmt.Errorf("core: tensor %q does not store rows as the row was read", t.name)
	}
	return t.appendRows(ctx, row.samples, row.arrs)
}

// appendRows is the one locked tail of every public append: their checks,
// encoding and sniffing run before it, outside every lock.
func (t *Tensor) appendRows(ctx context.Context, samples []chunk.Sample, arrs []*tensor.NDArray) error {
	if err := t.beginWrite(); err != nil {
		return err
	}
	defer t.ds.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendLocked(ctx, samples, arrs)
}

// appendLocked appends stored samples under the write locks: each one a
// row, or on a sequence tensor all of them one row. arrs, if non-nil, holds
// their decoded arrays for tiling. A sample may alias read-only source bytes
// (RowReader): the builder holds it unwritten until the chunk encoding copies it.
func (t *Tensor) appendLocked(ctx context.Context, samples []chunk.Sample, arrs []*tensor.NDArray) error {
	var dc deferredCollector
	for i, s := range samples {
		var arr *tensor.NDArray
		if arrs != nil {
			arr = arrs[i]
		}
		if err := dc.note(t.appendEncodedSample(ctx, s, arr)); err != nil {
			return err
		}
		if !t.spec.Sequence {
			t.meta.Length++
			t.diff.AddedTo = t.meta.Length
		}
	}
	if t.spec.Sequence {
		if err := t.seqEnc.AppendRow(len(samples)); err != nil {
			return err
		}
		t.meta.Length++
		t.diff.AddedTo = t.meta.Length
	}
	return dc.err()
}

// encodeSample validates a sample against the htype and encodes it for
// storage: media codec output for sample-compressed tensors, raw
// little-endian bytes otherwise. It touches only immutable tensor
// configuration and therefore runs without any lock, so concurrent
// appenders (transform workers, batch ingestors) encode in parallel.
func (t *Tensor) encodeSample(arr *tensor.NDArray) (chunk.Sample, error) {
	if err := t.spec.Base.Check(arr); err != nil {
		return chunk.Sample{}, err
	}
	if want := t.Dtype(); arr.Dtype() != want && t.spec.Base.Name != "generic" {
		if len(t.spec.Base.AllowedDtypes) > 0 {
			allowed := false
			for _, d := range t.spec.Base.AllowedDtypes {
				if arr.Dtype() == d {
					allowed = true
					break
				}
			}
			if !allowed {
				return chunk.Sample{}, fmt.Errorf("core: dtype %s not allowed for tensor %q", arr.Dtype(), t.name)
			}
		}
	} else if arr.Dtype() != want && t.spec.Base.Name == "generic" {
		return chunk.Sample{}, fmt.Errorf("core: dtype %s does not match tensor %q dtype %s", arr.Dtype(), t.name, want)
	}
	if t.sampleCodec != nil {
		shape := arr.Shape()
		var h, w, c int
		switch arr.NDim() {
		case 2:
			h, w, c = shape[0], shape[1], 1
		case 3:
			h, w, c = shape[0], shape[1], shape[2]
		default:
			return chunk.Sample{}, fmt.Errorf("core: sample compression requires 2-d or 3-d samples, got %d-d", arr.NDim())
		}
		data, err := t.sampleCodec.Encode(arr.Bytes(), h, w, c)
		if err != nil {
			return chunk.Sample{}, err
		}
		return chunk.Sample{Shape: append([]int(nil), shape...), Data: data}, nil
	}
	data := make([]byte, arr.NumBytes())
	copy(data, arr.Bytes())
	return chunk.Sample{Shape: append([]int(nil), arr.Shape()...), Data: data}, nil
}

// encodeSamples encodes each of arrs with encodeSample.
func (t *Tensor) encodeSamples(arrs []*tensor.NDArray) ([]chunk.Sample, error) {
	out := make([]chunk.Sample, len(arrs))
	for i, arr := range arrs {
		var err error
		if out[i], err = t.encodeSample(arr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendEncodedSample routes a storage-ready sample to the buffered
// builder, an oversized single-sample chunk, or the tiling path. Caller
// holds the tensor write lock. arr is the decoded array when the caller has
// it; a raw sample that needs tiling without one is decoded here. Media and
// link samples are never tiled.
//
// Deferred flush errors (a writeChunk whose bytes were accepted and parked
// by the pipeline) do not abort the append: the sample is fully recorded
// in the builder and encoders and the error is returned afterwards, so
// callers — in particular multi-tensor row appends — never leave torn
// index state behind a storage hiccup. Structural errors still abort.
func (t *Tensor) appendEncodedSample(ctx context.Context, s chunk.Sample, arr *tensor.NDArray) error {
	var dc deferredCollector
	note := dc.note
	idx := t.chunkEnc.NumSamples()
	switch {
	case t.builder.NeedsTiling(len(s.Data)) && t.sampleCodec == nil && !t.spec.Link && t.spec.Base.Name != "video":
		// Raw oversize sample: spatial tiling (§3.4).
		if arr == nil {
			var err error
			if arr, err = t.decode(s, nil); err != nil {
				return err
			}
		}
		if err := note(t.flushPending(ctx)); err != nil {
			return err
		}
		first, err := t.writeTiles(ctx, idx, arr, note)
		if err != nil {
			return err
		}
		// The chunk encoder still needs a row so index arithmetic stays
		// contiguous; the first tile chunk stands for the sample.
		if err := t.chunkEnc.Append(first, 1); err != nil {
			return err
		}
	case t.builder.NeedsTiling(len(s.Data)):
		// Videos and compressed media stay whole in their own chunk
		// (§3.4: "The only exception to tiling is videos").
		if err := note(t.flushPending(ctx)); err != nil {
			return err
		}
		id := t.allocChunkID()
		blob, err := t.codec.Encode([]chunk.Sample{s})
		if err != nil {
			return err
		}
		if err := note(t.writeChunk(ctx, id, blob)); err != nil {
			return err
		}
		if err := t.chunkEnc.Append(id, 1); err != nil {
			return err
		}
	default:
		if t.builder.ShouldFlushBefore(len(s.Data)) {
			if err := note(t.flushPending(ctx)); err != nil {
				return err
			}
		}
		if t.builder.Len() == 0 {
			t.pendingID = t.allocChunkID()
		}
		if err := t.builder.Append(s); err != nil {
			return err
		}
		if err := t.chunkEnc.Append(t.pendingID, 1); err != nil {
			return err
		}
	}
	t.shapeEnc.Append(s.Shape)
	return dc.err()
}

// writeTiles tiles raw oversize sample idx (§3.4): it writes the tile chunks,
// records the layout and returns the first tile's chunk id. Caller holds the
// tensor write lock; note classifies writeChunk errors.
func (t *Tensor) writeTiles(ctx context.Context, idx uint64, arr *tensor.NDArray, note func(error) error) (uint64, error) {
	layout, err := chunk.PlanTiles(arr.Shape(), arr.Dtype().Size(), t.meta.Bounds.Target)
	if err != nil {
		return 0, err
	}
	tiles, err := layout.Split(arr)
	if err != nil {
		return 0, err
	}
	ids := make([]uint64, 0, len(tiles))
	for _, tile := range tiles {
		id := t.allocChunkID()
		blob, err := t.codec.Encode([]chunk.Sample{{Shape: tile.Shape(), Data: tile.Bytes()}})
		if err != nil {
			return 0, err
		}
		if err := note(t.writeChunk(ctx, id, blob)); err != nil {
			return 0, err
		}
		ids = append(ids, id)
	}
	return ids[0], t.tileEnc.Set(idx, encoder.TileEntry{Layout: layout, ChunkIDs: ids})
}
