// Package transform implements the parallel ingestion/transformation
// framework of §4.1.2: user functions that consume one input sample and
// emit zero or more output samples (one-to-one and one-to-many), stacked
// into pipelines and run on a core.Walk: each worker loads and transforms a
// batch of adjacent input rows, and the calling goroutine commits every
// row's outputs in input order, so the produced dataset is deterministic
// for any worker count.
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
	// At loads input sample i.
	At(ctx context.Context, i int) (Sample, error)
}

// DatasetSource adapts a dataset (all visible tensors) as a Source. At
// reads one row through View.Row, whose Tensor.At reads through the handle's
// decoded-chunk cache, so a row costs a cache hit and a copy per column and
// each landed chunk is decoded once. It keeps no readers of its own because
// Source.At is called from every walk worker at once and a ScanReader
// serves one goroutine.
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

// At implements Source.
func (s DatasetSource) At(ctx context.Context, i int) (Sample, error) {
	row, err := s.View.Row(ctx, i)
	if err != nil {
		return nil, err
	}
	return Sample(row), nil
}

// IterSource adapts an arbitrary generator (the "arbitrary iterator with
// custom objects" ingestion path of §4.1.2).
type IterSource struct {
	N  int
	Fn func(i int) (Sample, error)
}

// Len implements Source.
func (s IterSource) Len() int { return s.N }

// At implements Source.
func (s IterSource) At(ctx context.Context, i int) (Sample, error) { return s.Fn(i) }

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
	err := p.run(ctx, src, opts.Workers, func(_ int, outs []Sample) error {
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
	err := p.run(ctx, src, opts.Workers, func(i int, outs []Sample) error {
		if len(outs) != 1 {
			return fmt.Errorf("transform: in-place pipelines must be one-to-one, got %d outputs", len(outs))
		}
		srcRow, err := src.View.SourceRow(i)
		if err != nil {
			return err
		}
		for name, arr := range outs[0] {
			t := ds.Tensor(name)
			if t == nil {
				return fmt.Errorf("transform: output tensor %q does not exist", name)
			}
			if err := t.SetAt(ctx, srcRow, arr); err != nil {
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

// run is the ordered walk under Eval and EvalInPlace (core.Walk): a step is
// batchSize adjacent input rows, which a worker loads and transforms, and
// the calling goroutine passes commit each of its rows' outputs in input
// order, holding a window of 2×workers batches. The first error — a load, a
// stage or commit — ends the run: rows before the failing one are committed
// and none after it. run returns only after every worker has exited.
func (p *Pipeline) run(ctx context.Context, src Source, workers int, commit func(row int, outs []Sample) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := src.Len()
	return core.Walk(ctx, workers, 2*workers,
		func(_ context.Context, yield func(int) bool) {
			for lo := 0; lo < n && yield(lo); lo += batchSize {
			}
		},
		func(ctx context.Context) (func(int, *[][]Sample) error, func()) {
			return func(lo int, outs *[][]Sample) error {
				return p.transformRows(ctx, src, lo, min(lo+batchSize, n), outs)
			}, nil
		},
		func(lo int, outs [][]Sample, err error) error {
			for i, o := range outs {
				if err := commit(lo+i, o); err != nil {
					return err
				}
			}
			if errors.Is(err, core.ErrWorkerDied) {
				return fmt.Errorf("%w at row %d", ErrWorkerDied, lo+len(outs))
			}
			return err
		})
}

// transformRows loads and transforms input rows [lo, hi) into outs, one
// entry per row, up to the first row that fails, and returns that failure.
func (p *Pipeline) transformRows(ctx context.Context, src Source, lo, hi int, outs *[][]Sample) error {
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		in, err := src.At(ctx, i)
		if err != nil {
			return err
		}
		produced, err := p.apply(in)
		if err != nil {
			return err
		}
		*outs = append(*outs, produced)
	}
	return nil
}
