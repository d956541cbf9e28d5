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
// frameworks"). Identity columns keep their tensor metadata (htype and
// compressions); computed and resolved-link columns are written from their
// evaluated arrays. Chunk uploads overlap row evaluation through the new
// dataset's flush pipeline; the final Commit drains it.
func Materialize(ctx context.Context, v *View, dst storage.Provider, opts MaterializeOptions) (*core.Dataset, error) {
	if opts.Name == "" {
		opts.Name = v.ds.Name() + "-view"
	}
	out, err := core.Create(ctx, dst, opts.Name)
	if err != nil {
		return nil, err
	}
	// Create output tensors.
	for _, c := range v.Columns() {
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
		for _, c := range v.Columns() {
			dstT := out.Tensor(c.Name)
			// Identity columns over link/sequence tensors copy
			// through their specialized append paths.
			if c.Eval == nil && c.Source != "" {
				srcT := v.ds.Tensor(c.Source)
				switch {
				case srcT.Htype().Link:
					url, err := srcT.LinkAt(ctx, src)
					if err != nil {
						return nil, err
					}
					if err := dstT.AppendLink(ctx, url); err != nil {
						return nil, err
					}
					continue
				case srcT.Htype().Sequence:
					items, err := srcT.SequenceAt(ctx, int(src))
					if err != nil {
						return nil, err
					}
					if err := dstT.AppendSequence(ctx, items); err != nil {
						return nil, err
					}
					continue
				}
			}
			arr, err := v.At(ctx, row, c.Name)
			if err != nil {
				return nil, fmt.Errorf("view: materialize row %d column %q: %w", row, c.Name, err)
			}
			if err := dstT.Append(ctx, arr); err != nil {
				return nil, err
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
