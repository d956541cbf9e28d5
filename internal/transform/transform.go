// Package transform implements the parallel ingestion/transformation
// framework of §4.1.2: user functions that consume one input sample and
// emit zero or more output samples (one-to-one and one-to-many), stacked
// into pipelines and run by one worker pool: each worker loads and
// transforms a batch of adjacent input rows, and the calling goroutine
// commits every row's outputs in input order, so the produced dataset is
// deterministic for any worker count.
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
	"sync"

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
// reads one row through View.Row, whose Tensor.At is a one-shot ScanReader,
// so each call decodes the row's whole chunk of every column. It keeps no
// readers of its own because Source.At is called from every pool worker at
// once and a ScanReader serves one goroutine; a reader per worker needs
// per-worker state the pool does not have.
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

// batch is one unit of work: input rows [lo, lo+batchSize) clipped to the
// source, with transformRows' results, which are ready once done is closed:
// one entry of outs per row up to the first row that fails, and that failure.
type batch struct {
	lo   int
	outs [][]Sample
	err  error
	done chan struct{}
}

// run is the worker pool under Eval and EvalInPlace. The calling goroutine
// hands batches to the workers through a window of 2×workers batches kept
// in input order, waits on the oldest and passes commit each of its rows'
// outputs, in input order, before it queues the next. The first error — a
// load, a stage or commit — ends the run: rows before the failing one are
// committed and none after it. On every exit run cancels the context its
// workers read under and returns only after all of them have exited.
func (p *Pipeline) run(ctx context.Context, src Source, workers int, commit func(row int, outs []Sample) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(ctx)
	// jobs' capacity is the window: two batches per worker keep every
	// worker busy while the caller commits the oldest.
	jobs := make(chan *batch, 2*workers)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(jobs)
	defer cancel()
	n := src.Len()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker that dies holding a batch still fails it, or run
			// would wait on it forever.
			var held *batch
			defer func() {
				if held != nil {
					held.err = fmt.Errorf("%w at row %d", ErrWorkerDied, held.lo+len(held.outs))
					close(held.done)
				}
			}()
			for b := range jobs {
				held = b
				b.err = p.transformRows(ctx, src, b, min(b.lo+batchSize, n))
				held = nil
				close(b.done)
			}
		}()
	}

	var window []*batch
	for lo := 0; lo < n || len(window) > 0; {
		if lo < n && len(window) < cap(jobs) {
			b := &batch{lo: lo, done: make(chan struct{})}
			jobs <- b // never blocks: jobs holds only batches in the window
			window = append(window, b)
			lo += batchSize
			continue
		}
		b := window[0]
		window = window[1:]
		<-b.done
		for i, outs := range b.outs {
			if err := commit(b.lo+i, outs); err != nil {
				return err
			}
		}
		if b.err != nil {
			return b.err
		}
	}
	return nil
}

// transformRows loads and transforms input rows [b.lo, hi) into b.outs, one
// entry per row, up to the first row that fails, and returns that failure.
func (p *Pipeline) transformRows(ctx context.Context, src Source, b *batch, hi int) error {
	for i := b.lo; i < hi; i++ {
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
		b.outs = append(b.outs, produced)
	}
	return nil
}
