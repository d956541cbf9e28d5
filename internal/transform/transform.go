// Package transform implements the parallel ingestion/transformation
// framework of §4.1.2: user functions that consume one input sample and
// emit zero or more output samples (one-to-one and one-to-many), stacked
// into pipelines, scheduled over a worker pool in chunk-aligned batches so
// workers touch nearby chunks, with outputs committed in input order so the
// produced dataset is deterministic.
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

// DatasetSource adapts a dataset (all visible tensors) as a Source.
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

// Options configures Eval.
type Options struct {
	// Workers is the parallel worker count (default GOMAXPROCS).
	Workers int
	// BatchSize groups adjacent input indices per worker so a worker's
	// reads stay within neighboring chunks (default 16).
	BatchSize int
}

// Stats reports an Eval run.
type Stats struct {
	// InputSamples and OutputSamples count rows consumed and produced.
	InputSamples, OutputSamples int
}

// Eval runs the pipeline over src and appends outputs to dst in input
// order. dst tensors must already exist for every output key.
func (p *Pipeline) Eval(ctx context.Context, src Source, dst *core.Dataset, opts Options) (Stats, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 16
	}
	n := src.Len()
	numBatches := (n + opts.BatchSize - 1) / opts.BatchSize

	type batchResult struct {
		idx int
		out []Sample
		err error
	}
	jobs := make(chan int)
	results := make(chan batchResult, opts.Workers)

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := range jobs {
				lo := bi * opts.BatchSize
				hi := lo + opts.BatchSize
				if hi > n {
					hi = n
				}
				var outs []Sample
				var err error
				for i := lo; i < hi; i++ {
					var in Sample
					in, err = src.At(ctx, i)
					if err != nil {
						break
					}
					var produced []Sample
					produced, err = p.apply(in)
					if err != nil {
						break
					}
					outs = append(outs, produced...)
				}
				select {
				case results <- batchResult{idx: bi, out: outs, err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for bi := 0; bi < numBatches; bi++ {
			select {
			case jobs <- bi:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Commit batches in input order.
	stats := Stats{InputSamples: n}
	pending := map[int]batchResult{}
	next := 0
	for r := range results {
		pending[r.idx] = r
		for {
			br, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if br.err != nil {
				return stats, br.err
			}
			for _, s := range br.out {
				for name, arr := range s {
					t := dst.Tensor(name)
					if t == nil {
						return stats, fmt.Errorf("transform: output tensor %q does not exist in destination", name)
					}
					if err := t.Append(ctx, arr); err != nil {
						return stats, err
					}
				}
				stats.OutputSamples++
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	if next != numBatches {
		return stats, fmt.Errorf("transform: pipeline stalled at batch %d/%d", next, numBatches)
	}
	return stats, dst.Flush(ctx)
}

// EvalInPlace applies a strictly one-to-one pipeline onto the source
// dataset itself, overwriting each row (§4.1.2: "The transformation can
// also be applied in place").
func (p *Pipeline) EvalInPlace(ctx context.Context, ds *core.Dataset, opts Options) (Stats, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	src := FromDataset(ds)
	n := src.Len()
	stats := Stats{InputSamples: n}
	type rowResult struct {
		row int
		out Sample
		err error
	}
	jobs := make(chan int)
	results := make(chan rowResult, opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				in, err := src.At(ctx, i)
				var out Sample
				if err == nil {
					var produced []Sample
					produced, err = p.apply(in)
					if err == nil && len(produced) != 1 {
						err = fmt.Errorf("transform: in-place pipelines must be one-to-one, got %d outputs", len(produced))
					}
					if err == nil {
						out = produced[0]
					}
				}
				select {
				case results <- rowResult{row: i, out: out, err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	for r := range results {
		if r.err != nil {
			return stats, r.err
		}
		srcRow, err := src.View.SourceRow(r.row)
		if err != nil {
			return stats, err
		}
		for name, arr := range r.out {
			t := ds.Tensor(name)
			if t == nil {
				return stats, fmt.Errorf("transform: output tensor %q does not exist", name)
			}
			if err := t.SetAt(ctx, srcRow, arr); err != nil {
				return stats, err
			}
		}
		stats.OutputSamples++
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	return stats, ds.Flush(ctx)
}
