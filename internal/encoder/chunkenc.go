// Package encoder implements the compressed index maps of the Tensor
// Storage Format (§3.4): the chunk encoder mapping sample indices to chunk
// ids, the tile encoder for samples split across spatial tiles, the sequence
// encoder for sequence[...] meta-tensors, and the shape encoder that backs
// fast shape queries without touching chunk data.
//
// The chunk encoder is run-length encoded as (lastIndex, chunkID) rows, the
// representation the paper credits with keeping the per-tensor map at
// ~150MB per 1PB of data: consecutive samples share a chunk, so the map
// grows with the number of chunks, not the number of samples. Lookups are a
// binary search over lastIndex.
package encoder

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// ChunkEncoder maps sample indices to (chunkID, indexWithinChunk). Rows are
// (lastIndex, chunkID) pairs where lastIndex is the index of the final
// sample stored in chunkID.
type ChunkEncoder struct {
	rows []chunkRow
	// seen indexes registered chunk ids so Append's duplicate check is
	// O(1); the previous full-row scan made N-chunk ingestion O(N²).
	// Lazily rebuilt from rows when nil (zero-value or loaded encoders).
	seen map[uint64]struct{}
}

type chunkRow struct {
	lastIndex uint64 // inclusive index of the last sample in this chunk
	chunkID   uint64
}

// NewChunkEncoder returns an empty encoder.
func NewChunkEncoder() *ChunkEncoder {
	return &ChunkEncoder{seen: map[uint64]struct{}{}}
}

// ensureSeen (re)builds the chunk-id index when the encoder was created as
// a zero value or restored without one.
func (e *ChunkEncoder) ensureSeen() {
	if e.seen != nil {
		return
	}
	e.seen = make(map[uint64]struct{}, len(e.rows))
	for _, r := range e.rows {
		e.seen[r.chunkID] = struct{}{}
	}
}

// NumSamples returns the total number of indexed samples.
func (e *ChunkEncoder) NumSamples() uint64 {
	if len(e.rows) == 0 {
		return 0
	}
	return e.rows[len(e.rows)-1].lastIndex + 1
}

// NumChunks returns the number of distinct chunks.
func (e *ChunkEncoder) NumChunks() int { return len(e.rows) }

// NumRows returns the RLE row count (equals NumChunks; exposed for the
// scaling math in DESIGN.md).
func (e *ChunkEncoder) NumRows() int { return len(e.rows) }

// Append registers count more samples appended to chunkID. Appending to the
// most recent chunk extends its row; a new chunkID appends a row. chunkIDs
// must be introduced in increasing order of sample index.
func (e *ChunkEncoder) Append(chunkID uint64, count int) error {
	if count <= 0 {
		return fmt.Errorf("encoder: append count %d must be positive", count)
	}
	if n := len(e.rows); n > 0 && e.rows[n-1].chunkID == chunkID {
		e.rows[n-1].lastIndex += uint64(count)
		return nil
	}
	e.ensureSeen()
	last := uint64(count) - 1
	if n := len(e.rows); n > 0 {
		if _, dup := e.seen[chunkID]; dup {
			return fmt.Errorf("encoder: chunk %d already registered and closed", chunkID)
		}
		last = e.rows[n-1].lastIndex + uint64(count)
	}
	e.rows = append(e.rows, chunkRow{lastIndex: last, chunkID: chunkID})
	e.seen[chunkID] = struct{}{}
	return nil
}

// Lookup returns the chunk holding sample idx and its local index within
// that chunk.
func (e *ChunkEncoder) Lookup(idx uint64) (chunkID uint64, local int, err error) {
	first, _, chunkID, err := e.Span(idx)
	if err != nil {
		return 0, 0, err
	}
	return chunkID, int(idx - first), nil
}

// Span returns the chunk holding sample idx and the [first, last] sample
// indices it stores.
func (e *ChunkEncoder) Span(idx uint64) (first, last, chunkID uint64, err error) {
	n := e.NumSamples()
	if idx >= n {
		return 0, 0, 0, fmt.Errorf("encoder: sample %d out of range (%d samples)", idx, n)
	}
	row := sort.Search(len(e.rows), func(i int) bool { return e.rows[i].lastIndex >= idx })
	return e.ChunkRange(row)
}

// ChunkRange returns the [first, last] sample indices stored in row r.
func (e *ChunkEncoder) ChunkRange(r int) (first, last uint64, chunkID uint64, err error) {
	if r < 0 || r >= len(e.rows) {
		return 0, 0, 0, fmt.Errorf("encoder: row %d out of range", r)
	}
	if r > 0 {
		first = e.rows[r-1].lastIndex + 1
	}
	return first, e.rows[r].lastIndex, e.rows[r].chunkID, nil
}

// ChunkIDs lists all chunk ids in index order.
func (e *ChunkEncoder) ChunkIDs() []uint64 {
	out := make([]uint64, len(e.rows))
	for i, r := range e.rows {
		out[i] = r.chunkID
	}
	return out
}

// Rebind moves the chunk holding sample idx to chunkID, a fresh id.
func (e *ChunkEncoder) Rebind(idx, chunkID uint64) error {
	if n := e.NumSamples(); idx >= n {
		return fmt.Errorf("encoder: sample %d out of range (%d samples)", idx, n)
	}
	e.ensureSeen()
	r := &e.rows[sort.Search(len(e.rows), func(i int) bool { return e.rows[i].lastIndex >= idx })]
	delete(e.seen, r.chunkID)
	r.chunkID = chunkID
	e.seen[chunkID] = struct{}{}
	return nil
}

// ReplaceAll swaps the full mapping, used by the re-chunking optimizer. Rows
// are (chunkID, count) pairs in index order.
func (e *ChunkEncoder) ReplaceAll(chunkIDs []uint64, counts []int) error {
	if len(chunkIDs) != len(counts) {
		return errors.New("encoder: chunkIDs and counts length mismatch")
	}
	rows := make([]chunkRow, 0, len(chunkIDs))
	var last uint64
	for i := range chunkIDs {
		if counts[i] <= 0 {
			return fmt.Errorf("encoder: count %d must be positive", counts[i])
		}
		last += uint64(counts[i])
		rows = append(rows, chunkRow{lastIndex: last - 1, chunkID: chunkIDs[i]})
	}
	e.rows = rows
	e.seen = nil
	e.ensureSeen()
	return nil
}

const chunkEncMagic = "DLCE"

// MarshalBinary serializes the encoder.
func (e *ChunkEncoder) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 8+len(e.rows)*16)
	out = append(out, chunkEncMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(e.rows)))
	for _, r := range e.rows {
		out = binary.LittleEndian.AppendUint64(out, r.lastIndex)
		out = binary.LittleEndian.AppendUint64(out, r.chunkID)
	}
	return out, nil
}

// UnmarshalBinary restores a serialized encoder.
func (e *ChunkEncoder) UnmarshalBinary(data []byte) error {
	if len(data) < 8 || string(data[:4]) != chunkEncMagic {
		return errors.New("encoder: bad chunk encoder blob")
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if len(data) != 8+n*16 {
		return fmt.Errorf("encoder: chunk encoder blob length %d != %d rows", len(data), n)
	}
	rows := make([]chunkRow, n)
	for i := 0; i < n; i++ {
		rows[i].lastIndex = binary.LittleEndian.Uint64(data[8+i*16:])
		rows[i].chunkID = binary.LittleEndian.Uint64(data[16+i*16:])
	}
	// Validate monotonicity.
	for i := 1; i < n; i++ {
		if rows[i].lastIndex <= rows[i-1].lastIndex {
			return errors.New("encoder: non-monotone chunk encoder rows")
		}
	}
	// The id index is built by the first write that needs it: a loaded
	// encoder is mostly only read.
	e.rows = rows
	e.seen = nil
	return nil
}
