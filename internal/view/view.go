// Package view implements dataset views (§4.4-4.5): ordered row selections
// over a dataset with optional computed (virtual) columns, produced by TQL
// queries or manual index selection. Views can be streamed directly — at the
// cost of a sparse chunk layout — or materialized into a fresh dataset with
// an optimal streaming layout and full lineage.
//
// The package also resolves linked tensors (link[...] htypes): URL samples
// pointing at external storage providers, fetched through a scheme registry
// and inlined during materialization.
package view

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Column is one output column of a view.
type Column struct {
	// Name is the output tensor name.
	Name string
	// Source names the underlying dataset tensor for identity columns;
	// empty for computed columns.
	Source string
	// Eval computes the column value for one source row. It must be safe
	// for concurrent use (dataloader workers call it in parallel). Nil
	// for identity columns.
	Eval func(ctx context.Context, row uint64) (*tensor.NDArray, error)
}

// Stored reports whether the column reads straight from a stored dataset
// tensor — the columns whose chunk layout the streaming dataloader can
// align fetches and shuffling to.
func (c Column) Stored() bool { return c.Source != "" && c.Eval == nil }

// View is an ordered selection of dataset rows with output columns.
type View struct {
	ds      *core.Dataset
	indices []uint64
	columns []Column
}

// New builds a view over explicit row indices. A nil columns slice selects
// all visible tensors as identity columns.
func New(ds *core.Dataset, indices []uint64, columns []Column) *View {
	if columns == nil {
		for _, name := range ds.Tensors() {
			columns = append(columns, Column{Name: name, Source: name})
		}
	}
	return &View{ds: ds, indices: indices, columns: columns}
}

// All returns the identity view over every complete row of the dataset.
func All(ds *core.Dataset) *View {
	n := ds.NumRows()
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64(i)
	}
	return New(ds, idx, nil)
}

// Dataset returns the underlying dataset.
func (v *View) Dataset() *core.Dataset { return v.ds }

// Len returns the number of rows in the view.
func (v *View) Len() int { return len(v.indices) }

// Indices returns the source row index for each view row. Callers must not
// mutate the slice.
func (v *View) Indices() []uint64 { return v.indices }

// Columns returns the output columns. Callers must not mutate the slice.
func (v *View) Columns() []Column { return v.columns }

// ColumnNames lists output column names in order.
func (v *View) ColumnNames() []string {
	out := make([]string, len(v.columns))
	for i, c := range v.columns {
		out[i] = c.Name
	}
	return out
}

// SourceRow maps a view row to its dataset row index.
func (v *View) SourceRow(row int) (uint64, error) {
	if row < 0 || row >= len(v.indices) {
		return 0, fmt.Errorf("view: row %d out of range (%d rows)", row, len(v.indices))
	}
	return v.indices[row], nil
}

// At evaluates one cell of the view.
func (v *View) At(ctx context.Context, row int, column string) (*tensor.NDArray, error) {
	src, err := v.SourceRow(row)
	if err != nil {
		return nil, err
	}
	for _, c := range v.columns {
		if c.Name != column {
			continue
		}
		if c.Eval != nil {
			return c.Eval(ctx, src)
		}
		t := v.ds.Tensor(c.Source)
		if t == nil {
			return nil, fmt.Errorf("view: source tensor %q missing", c.Source)
		}
		return t.At(ctx, src)
	}
	return nil, fmt.Errorf("view: unknown column %q", column)
}

// Row evaluates all columns of one view row, a one-shot Reader.
func (v *View) Row(ctx context.Context, row int) (map[string]*tensor.NDArray, error) {
	return v.Reader().Row(ctx, row)
}

// Reader reads whole rows of a view on one goroutine: it keeps one
// core.ScanReader per stored column, so rows read in ascending order resolve
// and load each chunk once, and rows inside a chunk take no lock. Computed
// columns are evaluated per row. A Reader is NOT safe for concurrent use;
// each walk worker builds its own.
type Reader struct {
	v       *View
	readers []*core.ScanReader // nil for a computed column or a missing source
}

// Reader returns a reader of v's rows for one goroutine.
func (v *View) Reader() *Reader {
	readers := make([]*core.ScanReader, len(v.columns))
	for i, c := range v.columns {
		if t := v.ds.Tensor(c.Source); c.Eval == nil && t != nil {
			readers[i] = t.NewScanReader()
		}
	}
	return &Reader{v: v, readers: readers}
}

// Row evaluates all columns of view row row.
func (r *Reader) Row(ctx context.Context, row int) (map[string]*tensor.NDArray, error) {
	src, err := r.v.SourceRow(row)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*tensor.NDArray, len(r.v.columns))
	for i, c := range r.v.columns {
		var arr *tensor.NDArray
		switch {
		case c.Eval != nil:
			arr, err = c.Eval(ctx, src)
		case r.readers[i] != nil:
			arr, err = r.readers[i].At(ctx, src)
		default:
			err = fmt.Errorf("view: source tensor %q missing", c.Source)
		}
		if err != nil {
			return nil, fmt.Errorf("view: column %q row %d: %w", c.Name, row, err)
		}
		out[c.Name] = arr
	}
	return out, nil
}

// Subview restricts the view to rows [lo, hi).
func (v *View) Subview(lo, hi int) (*View, error) {
	if lo < 0 || hi > len(v.indices) || lo > hi {
		return nil, fmt.Errorf("view: subview [%d:%d) out of range (%d rows)", lo, hi, len(v.indices))
	}
	return &View{ds: v.ds, indices: v.indices[lo:hi], columns: v.columns}, nil
}

// IsSparse reports whether the view's rows are non-contiguous over the
// source dataset — the layout the paper warns streams sub-optimally until
// materialized (§4.5).
func (v *View) IsSparse() bool {
	for i := 1; i < len(v.indices); i++ {
		if v.indices[i] != v.indices[i-1]+1 {
			return true
		}
	}
	return false
}
