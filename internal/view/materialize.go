package view

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// MaterializeOptions configures Materialize.
type MaterializeOptions struct {
	// Name for the produced dataset.
	Name string
	// Message recorded as the first commit of the produced dataset,
	// preserving lineage back to the query.
	Message string
}

// Materialize evaluates every view row and writes a fresh dataset with an
// optimal chunk layout onto dst (§4.5: "materialization transforms the
// dataset view into an optimal layout to stream into deep learning
// frameworks"): it changes the layout, not the data. Identity columns keep
// their tensor metadata (htype and compressions) and their stored samples,
// byte for byte (core.Tensor.CopyRow); computed and resolved-link columns are
// written from their evaluated arrays. Chunk uploads overlap row evaluation
// through the new dataset's flush pipeline; the final Commit drains it.
func Materialize(ctx context.Context, v *View, dst storage.Provider, opts MaterializeOptions) (*core.Dataset, error) {
	if opts.Name == "" {
		opts.Name = v.ds.Name() + "-view"
	}
	out, err := core.Create(ctx, dst, opts.Name)
	if err != nil {
		return nil, err
	}
	// Create output tensors, and one reader per identity column for the
	// whole walk: rows in view order fetch and decode each source chunk
	// once, not once per row.
	cols := v.Columns()
	readers := make([]*core.ScanReader, len(cols))
	for i, c := range cols {
		spec := core.TensorSpec{Name: c.Name}
		if c.Source == "" && v.Len() > 0 {
			// Computed column: infer the dtype from the first row.
			probe, err := v.At(ctx, 0, c.Name)
			if err != nil {
				return nil, fmt.Errorf("view: probing column %q: %w", c.Name, err)
			}
			spec.Dtype = probe.Dtype()
		}
		if c.Source != "" {
			src := v.ds.Tensor(c.Source)
			if src == nil {
				return nil, fmt.Errorf("view: source tensor %q missing", c.Source)
			}
			m := src.Meta()
			spec.Htype = m.Htype
			spec.Dtype = src.Dtype()
			spec.SampleCompression = m.SampleCompression
			spec.ChunkCompression = m.ChunkCompression
			spec.Bounds = m.Bounds
			if c.Eval == nil {
				readers[i] = src.NewScanReader()
			}
		}
		if _, err := out.CreateTensor(ctx, spec); err != nil {
			return nil, err
		}
	}
	// Stream rows in view order; appends re-pack into dense bounded
	// chunks, which is exactly the layout fix for sparse views.
	for row := 0; row < v.Len(); row++ {
		src, err := v.SourceRow(row)
		if err != nil {
			return nil, err
		}
		for i, c := range cols {
			if err := materializeCell(ctx, v, out.Tensor(c.Name), readers[i], row, src, c); err != nil {
				return nil, fmt.Errorf("view: materialize row %d column %q: %w", row, c.Name, err)
			}
		}
	}
	if opts.Message == "" {
		opts.Message = fmt.Sprintf("materialized view of %s@%s (%d rows)", v.ds.Name(), v.ds.Version(), v.Len())
	}
	if _, err := out.Commit(ctx, opts.Message); err != nil {
		return nil, err
	}
	return out, nil
}

// materializeCell appends one view cell to dst: an identity column's (r
// non-nil) as its source row's stored samples (CopyRow), a computed
// column's from its evaluated array.
func materializeCell(ctx context.Context, v *View, dst *core.Tensor, r *core.ScanReader, row int, src uint64, c Column) error {
	if r != nil {
		return dst.CopyRow(ctx, r, src)
	}
	arr, err := v.At(ctx, row, c.Name)
	if err != nil {
		return err
	}
	return dst.Append(ctx, arr)
}
