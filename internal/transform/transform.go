// Package transform implements the parallel ingestion/transformation
// framework of §4.1.2: user functions that consume one input sample and
// emit zero or more output samples (one-to-one and one-to-many), stacked
// into pipelines and run on a core.Walk: each worker loads and transforms a
// batch of adjacent input rows, and the calling goroutine commits every
// row's outputs in input order, so the produced dataset is deterministic
// for any worker count. Its third consumer, after Eval and EvalInPlace, is
// Materialize (§4.5), the identity transform.
//
// Outputs write through the destination's flush pipeline, configured however
// the destination was (core.WriteOptions): the ordered commit loop appends at
// memory speed while sealed chunks upload concurrently, and the final Flush
// drains the pipeline before metadata is persisted.
//
// It is the Go analogue of @deeplake.compute-decorated Python functions
// running on a process pool.
package transform

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
)

// Sample is one row: tensor name to value.
type Sample map[string]*tensor.NDArray

// Collector receives the outputs of a transform function; Emit may be
// called any number of times (one-to-many, §4.1.2).
type Collector struct {
	out []Sample
}

// Emit appends one output sample.
func (c *Collector) Emit(s Sample) { c.out = append(c.out, s) }

// Fn is a user transform: read sample_in, emit sample_outs.
type Fn func(in Sample, out *Collector) error

// Pipeline is a stack of transform functions applied in sequence; stage
// outputs fan through later stages.
type Pipeline struct {
	stages []Fn
}

// Compute starts a pipeline from one function (the @deeplake.compute
// analogue).
func Compute(fn Fn) *Pipeline { return &Pipeline{stages: []Fn{fn}} }

// Then appends a stage, returning the pipeline for chaining.
func (p *Pipeline) Then(fn Fn) *Pipeline {
	p.stages = append(p.stages, fn)
	return p
}

// apply runs the full stage stack on one input.
func (p *Pipeline) apply(in Sample) ([]Sample, error) {
	cur := []Sample{in}
	for si, stage := range p.stages {
		var next []Sample
		for _, s := range cur {
			var c Collector
			if err := stage(s, &c); err != nil {
				return nil, fmt.Errorf("transform: stage %d: %w", si, err)
			}
			next = append(next, c.out...)
		}
		cur = next
	}
	return cur, nil
}

// Source yields input samples by index.
type Source interface {
	// Len returns the number of input samples.
	Len() int
	// Rows returns the loader of input samples by index for one walk
	// worker, which calls it on one goroutine with ascending indices.
	Rows(ctx context.Context) func(i int) (Sample, error)
}

// DatasetSource adapts a dataset (all visible tensors) as a Source. Each
// walk worker reads its rows through a view.Reader of its own, one
// core.ScanReader per stored column, so a worker resolves and loads each
// chunk once (through the handle's decoded-chunk cache) and rows inside it
// take no lock.
type DatasetSource struct {
	View *view.View
}

// FromDataset sources every complete row of a dataset.
func FromDataset(ds *core.Dataset) DatasetSource {
	return DatasetSource{View: view.All(ds)}
}

// FromView sources the rows of a view (e.g. a TQL result).
func FromView(v *view.View) DatasetSource { return DatasetSource{View: v} }

// Len implements Source.
func (s DatasetSource) Len() int { return s.View.Len() }

// Rows implements Source.
func (s DatasetSource) Rows(ctx context.Context) func(int) (Sample, error) {
	r := s.View.Reader()
	return func(i int) (Sample, error) {
		row, err := r.Row(ctx, i)
		return Sample(row), err
	}
}

// IterSource adapts an arbitrary generator (the "arbitrary iterator with
// custom objects" ingestion path of §4.1.2). Fn must be safe for concurrent
// use: every walk worker calls it.
type IterSource struct {
	N  int
	Fn func(i int) (Sample, error)
}

// Len implements Source.
func (s IterSource) Len() int { return s.N }

// Rows implements Source.
func (s IterSource) Rows(context.Context) func(int) (Sample, error) { return s.Fn }

// Options configures Eval and EvalInPlace.
type Options struct {
	// Workers is the parallel worker count (default GOMAXPROCS).
	Workers int
}

// ErrWorkerDied marks a run aborted because a worker goroutine died mid-batch
// without returning: a Fn (or a Source) called runtime.Goexit, as t.Fatal
// does. The run's error wraps it with the row the worker died on, and rows
// before that row are committed, as with any other failure.
var ErrWorkerDied = errors.New("transform: worker died")

// batchSize is how many adjacent input rows a worker loads and transforms
// as one unit of work.
const batchSize = 16

// Stats reports an Eval run.
type Stats struct {
	// InputSamples and OutputSamples count rows consumed and produced.
	InputSamples, OutputSamples int
}

// Eval runs the pipeline over src and appends outputs to dst in input
// order. dst tensors must already exist for every output key.
func (p *Pipeline) Eval(ctx context.Context, src Source, dst *core.Dataset, opts Options) (Stats, error) {
	stats := Stats{InputSamples: src.Len()}
	err := run(ctx, src.Len(), batchSize, opts.Workers, p.worker(src), func(_ int, outs []Sample) error {
		for _, s := range outs {
			for name, arr := range s {
				t := dst.Tensor(name)
				if t == nil {
					return fmt.Errorf("transform: output tensor %q does not exist in destination", name)
				}
				if err := t.Append(ctx, arr); err != nil {
					return err
				}
			}
			stats.OutputSamples++
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	return stats, dst.Flush(ctx)
}

// EvalInPlace applies a strictly one-to-one pipeline onto the source
// dataset itself, overwriting each row (§4.1.2: "The transformation can
// also be applied in place"). Rows are rewritten in order: when row k
// fails, every row before it has been rewritten and none after it.
func (p *Pipeline) EvalInPlace(ctx context.Context, ds *core.Dataset, opts Options) (Stats, error) {
	src := FromDataset(ds)
	stats := Stats{InputSamples: src.Len()}
	err := run(ctx, src.Len(), batchSize, opts.Workers, p.worker(src), func(i int, outs []Sample) error {
		if len(outs) != 1 {
			return fmt.Errorf("transform: in-place pipelines must be one-to-one, got %d outputs", len(outs))
		}
		for name, arr := range outs[0] {
			t := ds.Tensor(name)
			if t == nil {
				return fmt.Errorf("transform: output tensor %q does not exist", name)
			}
			if err := t.SetAt(ctx, src.View.Indices()[i], arr); err != nil {
				return err
			}
		}
		stats.OutputSamples++
		return nil
	})
	if err != nil {
		return stats, err
	}
	return stats, ds.Flush(ctx)
}

// worker loads input row i through the worker's own src.Rows and runs the
// stages on it, for Eval's walk.
func (p *Pipeline) worker(src Source) func(context.Context) func(int) ([]Sample, error) {
	return func(ctx context.Context) func(int) ([]Sample, error) {
		rows := src.Rows(ctx)
		return func(i int) ([]Sample, error) {
			in, err := rows(i)
			if err != nil {
				return nil, err
			}
			return p.apply(in)
		}
	}
}

// run is the ordered walk (core.Walk) under Eval, EvalInPlace and
// Materialize: a step is batch adjacent input rows, each turned into its
// result by the row function its worker built, and the calling goroutine
// commits each row's result in input order, holding 2×workers steps. The
// first error ends the run with every earlier row committed and no later
// one. run returns only after every worker has exited.
func run[R any](ctx context.Context, n, batch, workers int, worker func(context.Context) func(int) (R, error), commit func(row int, res R) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return core.Walk(ctx, workers, 2*workers,
		func(_ context.Context, yield func(int) bool) {
			for lo := 0; lo < n && yield(lo); lo += batch {
			}
		},
		func(ctx context.Context) (func(int, *[]R) error, func()) {
			row, done := worker(ctx), ctx.Done()
			return func(lo int, res *[]R) error {
				hi := min(lo+batch, n)
				*res = make([]R, 0, hi-lo)
				for i := lo; i < hi; i++ {
					select {
					case <-done:
						return ctx.Err()
					default:
					}
					r, err := row(i)
					if err != nil {
						return err
					}
					*res = append(*res, r)
				}
				return nil
			}, nil
		},
		func(lo int, res []R, err error) error {
			for i, r := range res {
				if err := commit(lo+i, r); err != nil {
					return err
				}
			}
			if errors.Is(err, core.ErrWorkerDied) {
				return fmt.Errorf("%w at row %d", ErrWorkerDied, lo+len(res))
			}
			return err
		})
}

// copyBatch is Materialize's rows per step: a stored row copies ~10× faster than a row transforms.
const copyBatch = 4 * batchSize

// cell is an identity cell's stored row or a computed cell's value.
type cell struct {
	stored core.Row
	arr    *tensor.NDArray
}

// Materialize writes the view's rows in order into a fresh dataset, name or
// "<source>-view", on dst with an optimal layout to stream (§4.5), and
// commits it once. Workers read identity cells in their source's stored form
// (core.RowReader), which the destination's tensors copy, and evaluate
// computed ones; the caller creates the tensors in column order when row 0
// commits, typing computed columns from it, and appends row by row. When row
// k fails, rows before it are appended and flushed and nothing is committed.
func Materialize(ctx context.Context, v *view.View, dst storage.Provider, name string) (*core.Dataset, error) {
	src, cols := v.Dataset(), v.Columns()
	srcs := make([]*core.Tensor, len(cols)) // nil for a computed column
	for i, c := range cols {
		if c.Source == "" {
			continue
		}
		srcs[i] = src.Tensor(c.Source)
		if srcs[i] == nil {
			return nil, fmt.Errorf("transform: source tensor %q missing", c.Source)
		}
	}
	if name == "" {
		name = src.Name() + "-view"
	}
	out, err := core.Create(ctx, dst, name)
	if err != nil {
		return nil, err
	}
	tensors := make([]*core.Tensor, len(cols))
	create := func(row0 []cell) error {
		for i, c := range cols {
			spec := core.TensorSpec{Name: c.Name}
			if s := srcs[i]; s != nil {
				m := s.Meta()
				spec = core.TensorSpec{Name: c.Name, Htype: m.Htype, Dtype: s.Dtype(), SampleCompression: m.SampleCompression, ChunkCompression: m.ChunkCompression, Bounds: m.Bounds}
			} else if row0 != nil {
				spec.Dtype = row0[i].arr.Dtype()
			}
			var err error
			if tensors[i], err = out.CreateTensor(ctx, spec); err != nil {
				return err
			}
		}
		return nil
	}
	cellErr := func(row, i int, err error) error {
		return fmt.Errorf("transform: materialize row %d column %q: %w", row, cols[i].Name, err)
	}
	worker := func(ctx context.Context) func(int) ([]cell, error) {
		readers := make([]*core.RowReader, len(cols))
		for i, c := range cols {
			if c.Stored() {
				readers[i] = srcs[i].RowsFrom(srcs[i])
			}
		}
		var free []cell // carved into rows, one allocation a step
		return func(row int) ([]cell, error) {
			if len(free) < len(cols) {
				free = make([]cell, copyBatch*len(cols))
			}
			cells := free[:len(cols):len(cols)]
			free = free[len(cols):]
			for i, r := range readers {
				var err error
				if r != nil {
					cells[i].stored, err = r.Row(ctx, v.Indices()[row])
				} else {
					cells[i].arr, err = v.At(ctx, row, cols[i].Name)
				}
				if err != nil {
					return nil, cellErr(row, i, err)
				}
			}
			return cells, nil
		}
	}
	commit := func(row int, cells []cell) error {
		if row == 0 {
			if err := create(cells); err != nil {
				return err
			}
		}
		for i, c := range cells {
			var err error
			if cols[i].Stored() {
				err = tensors[i].AppendRow(ctx, c.stored)
			} else {
				err = tensors[i].Append(ctx, c.arr)
			}
			if err != nil {
				return cellErr(row, i, err)
			}
		}
		return nil
	}
	if v.Len() == 0 {
		err = create(nil)
	} else {
		err = run(ctx, v.Len(), copyBatch, 0, worker, commit)
	}
	if err != nil {
		// Land what was appended, so no upload outlives the call.
		return nil, errors.Join(err, out.Flush(context.WithoutCancel(ctx)))
	}
	if _, err := out.Commit(ctx, fmt.Sprintf("materialized view of %s@%s (%d rows)", src.Name(), src.Version(), v.Len())); err != nil {
		return nil, err
	}
	return out, nil
}
