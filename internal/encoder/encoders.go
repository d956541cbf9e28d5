package encoder

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/chunk"
)

// TileEncoder records, for each tiled sample, its tile layout and the chunk
// ids holding each tile in row-major grid order (§3.4). Most samples are not
// tiled, so the encoder is a sparse map keyed by sample index.
type TileEncoder struct {
	entries map[uint64]TileEntry
}

// TileEntry is the tiling record of one sample.
type TileEntry struct {
	Layout   chunk.TileLayout `json:"layout"`
	ChunkIDs []uint64         `json:"chunk_ids"`
}

// NewTileEncoder returns an empty encoder.
func NewTileEncoder() *TileEncoder {
	return &TileEncoder{entries: make(map[uint64]TileEntry)}
}

// Set registers the tiling of sample idx.
func (e *TileEncoder) Set(idx uint64, entry TileEntry) error {
	if got, want := len(entry.ChunkIDs), entry.Layout.NumTiles(); got != want {
		return fmt.Errorf("encoder: %d chunk ids for %d tiles", got, want)
	}
	e.entries[idx] = entry
	return nil
}

// Get returns the tiling record of sample idx, if tiled.
func (e *TileEncoder) Get(idx uint64) (TileEntry, bool) {
	entry, ok := e.entries[idx]
	return entry, ok
}

// Delete removes the record of sample idx (after re-chunking inlined it).
func (e *TileEncoder) Delete(idx uint64) { delete(e.entries, idx) }

// Len returns the number of tiled samples.
func (e *TileEncoder) Len() int { return len(e.entries) }

// Indices lists tiled sample indices in increasing order.
func (e *TileEncoder) Indices() []uint64 {
	out := make([]uint64, 0, len(e.entries))
	for idx := range e.entries {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarshalBinary serializes the encoder (JSON body; entries are sparse and
// small relative to chunk data).
func (e *TileEncoder) MarshalBinary() ([]byte, error) {
	m := make(map[string]TileEntry, len(e.entries))
	for idx, entry := range e.entries {
		m[fmt.Sprint(idx)] = entry
	}
	return json.Marshal(m)
}

// UnmarshalBinary restores a serialized encoder.
func (e *TileEncoder) UnmarshalBinary(data []byte) error {
	var m map[string]TileEntry
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	e.entries = make(map[uint64]TileEntry, len(m))
	for k, entry := range m {
		var idx uint64
		if _, err := fmt.Sscan(k, &idx); err != nil {
			return fmt.Errorf("encoder: bad tile index %q", k)
		}
		e.entries[idx] = entry
	}
	return nil
}

// SequenceEncoder maps sequence rows to flat item ranges for sequence[...]
// tensors (§3.3): row i owns flat items [RowRange(i)). Stored as cumulative
// item counts, one entry per row.
type SequenceEncoder struct {
	cum []uint64 // cum[i] = total items in rows [0, i]
}

// NewSequenceEncoder returns an empty encoder.
func NewSequenceEncoder() *SequenceEncoder { return &SequenceEncoder{} }

// AppendRow registers a row of n items.
func (e *SequenceEncoder) AppendRow(n int) error {
	if n < 0 {
		return fmt.Errorf("encoder: negative sequence length %d", n)
	}
	var base uint64
	if len(e.cum) > 0 {
		base = e.cum[len(e.cum)-1]
	}
	e.cum = append(e.cum, base+uint64(n))
	return nil
}

// NumRows returns the number of sequence rows.
func (e *SequenceEncoder) NumRows() int { return len(e.cum) }

// NumItems returns the total flat item count.
func (e *SequenceEncoder) NumItems() uint64 {
	if len(e.cum) == 0 {
		return 0
	}
	return e.cum[len(e.cum)-1]
}

// RowRange returns the half-open flat item range [start, end) of row i.
func (e *SequenceEncoder) RowRange(i int) (start, end uint64, err error) {
	if i < 0 || i >= len(e.cum) {
		return 0, 0, fmt.Errorf("encoder: sequence row %d out of range (%d rows)", i, len(e.cum))
	}
	if i > 0 {
		start = e.cum[i-1]
	}
	return start, e.cum[i], nil
}

// MarshalBinary serializes the encoder.
func (e *SequenceEncoder) MarshalBinary() ([]byte, error) {
	return json.Marshal(e.cum)
}

// UnmarshalBinary restores a serialized encoder.
func (e *SequenceEncoder) UnmarshalBinary(data []byte) error {
	var cum []uint64
	if err := json.Unmarshal(data, &cum); err != nil {
		return err
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			return errors.New("encoder: non-monotone sequence encoder")
		}
	}
	e.cum = cum
	return nil
}

// ShapeEncoder run-length encodes per-sample shapes: (lastIndex, shape)
// rows. It backs the hidden shape tensors the paper uses for fast queries
// (§3.4: "hidden tensors ... preserve shape information for fast queries"):
// WHERE clauses over shapes never touch chunk data.
type ShapeEncoder struct {
	rows []shapeRow
}

type shapeRow struct {
	LastIndex uint64 `json:"last"`
	Shape     []int  `json:"shape"`
}

// NewShapeEncoder returns an empty encoder.
func NewShapeEncoder() *ShapeEncoder { return &ShapeEncoder{} }

// Append registers the shape of the next sample. Equal consecutive shapes
// extend the current run.
func (e *ShapeEncoder) Append(shape []int) {
	if n := len(e.rows); n > 0 && shapeEqual(e.rows[n-1].Shape, shape) {
		e.rows[n-1].LastIndex++
		return
	}
	var last uint64
	if n := len(e.rows); n > 0 {
		last = e.rows[n-1].LastIndex + 1
	}
	e.rows = append(e.rows, shapeRow{LastIndex: last, Shape: append([]int(nil), shape...)})
}

// NumSamples returns the number of registered shapes.
func (e *ShapeEncoder) NumSamples() uint64 {
	if len(e.rows) == 0 {
		return 0
	}
	return e.rows[len(e.rows)-1].LastIndex + 1
}

// NumRows returns the RLE row count.
func (e *ShapeEncoder) NumRows() int { return len(e.rows) }

// Get returns the shape of sample idx.
func (e *ShapeEncoder) Get(idx uint64) ([]int, error) {
	_, shape, err := e.Run(idx)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), shape...), nil
}

// Run returns the run holding sample idx: the index of its last sample, and
// its shape, which is shared and read-only.
func (e *ShapeEncoder) Run(idx uint64) (last uint64, shape []int, err error) {
	if idx >= e.NumSamples() {
		return 0, nil, fmt.Errorf("encoder: shape of sample %d out of range (%d samples)", idx, e.NumSamples())
	}
	row := e.rows[sort.Search(len(e.rows), func(i int) bool { return e.rows[i].LastIndex >= idx })]
	return row.LastIndex, row.Shape, nil
}

// RunEnds returns the index of each run's last sample, in sample order.
func (e *ShapeEncoder) RunEnds() []uint64 {
	ends := make([]uint64, len(e.rows))
	for i, row := range e.rows {
		ends[i] = row.LastIndex
	}
	return ends
}

// Set overwrites the shape of sample idx (in-place update support): it
// splits the run holding idx around it and merges the new run with equal
// neighbours, at a cost independent of the sample count.
func (e *ShapeEncoder) Set(idx uint64, shape []int) error {
	if idx >= e.NumSamples() {
		return fmt.Errorf("encoder: cannot set shape of sample %d (%d samples)", idx, e.NumSamples())
	}
	i := sort.Search(len(e.rows), func(i int) bool { return e.rows[i].LastIndex >= idx })
	run := e.rows[i]
	if shapeEqual(run.Shape, shape) {
		return nil
	}
	split := []shapeRow{{idx - 1, run.Shape}, {idx, append([]int(nil), shape...)}, run}
	if idx == run.LastIndex {
		split = split[:2]
	}
	if i == 0 && idx == 0 || i > 0 && idx == e.rows[i-1].LastIndex+1 {
		split = split[1:] // idx starts its run
	}
	e.rows = slices.Replace(e.rows, i, i+1, split...)
	for j := i + len(split) - 1; j >= max(i-1, 0); j-- { // merge equal neighbours
		if j+1 < len(e.rows) && shapeEqual(e.rows[j].Shape, e.rows[j+1].Shape) {
			e.rows[j].LastIndex = e.rows[j+1].LastIndex
			e.rows = slices.Delete(e.rows, j+1, j+2)
		}
	}
	return nil
}

// MarshalBinary serializes the encoder.
func (e *ShapeEncoder) MarshalBinary() ([]byte, error) { return json.Marshal(e.rows) }

// UnmarshalBinary restores a serialized encoder.
func (e *ShapeEncoder) UnmarshalBinary(data []byte) error {
	var rows []shapeRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return err
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].LastIndex <= rows[i-1].LastIndex {
			return errors.New("encoder: non-monotone shape encoder")
		}
	}
	e.rows = rows
	return nil
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
