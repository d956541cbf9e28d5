// Package gpusim simulates the training-side consumer of the streaming
// dataloader: an accelerator that takes a fixed compute time per batch and
// records a busy/idle timeline. Figures 9 and 10 of the paper measure
// whether the dataloader keeps the GPU utilized; this consumer model exposes
// exactly that bottleneck structure — if batches arrive slower than the
// compute time, utilization drops below 100% and the gap is data stall.
package gpusim

import (
	"context"
	"time"

	"repro/internal/dataloader"
)

// BatchSource is anything that produces a stream of collated batches; the
// streaming dataloader satisfies it, and the benchmark harness adapts
// baseline-format iterators to it.
type BatchSource interface {
	Batches(ctx context.Context) <-chan dataloader.Batch
}

// GPU is one simulated accelerator.
type GPU struct {
	// ComputePerBatch is how long the forward/backward pass takes.
	ComputePerBatch time.Duration
	// TimeScale divides simulated compute sleeps (match the simnet
	// profile's scale so IO and compute stay in proportion).
	TimeScale float64
}

// Sample is one utilization measurement.
type Sample struct {
	// Offset is the time since training start.
	Offset time.Duration
	// Busy is the fraction of the last window spent computing.
	Busy float64
}

// Timeline is the recorded utilization of one training run.
type Timeline struct {
	// Samples are windowed utilization measurements.
	Samples []Sample
	// Batches and Rows count consumed work.
	Batches int
	Rows    int
	// ComputeTime is total simulated compute; StallTime is total time
	// spent waiting for data.
	ComputeTime time.Duration
	StallTime   time.Duration
	// FirstBatch is the simulated time the loader took to deliver its
	// first batch (cold-start latency: no copy-everything-first phase).
	FirstBatch time.Duration
	// Wall is the real elapsed time of the run.
	Wall time.Duration
}

// Utilization is the overall busy fraction.
func (t *Timeline) Utilization() float64 {
	total := t.ComputeTime + t.StallTime
	if total == 0 {
		return 0
	}
	return float64(t.ComputeTime) / float64(total)
}

// RowsPerSec is the end-to-end training throughput in samples per second of
// simulated time.
func (t *Timeline) RowsPerSec() float64 {
	total := t.ComputeTime + t.StallTime
	if total == 0 {
		return 0
	}
	return float64(t.Rows) / total.Seconds()
}

// Train consumes the loader until the batch channel closes or maxBatches is
// reached (0 = no limit), simulating ComputePerBatch of GPU work per batch
// and recording utilization in fixed windows of simulated time.
func (g GPU) Train(ctx context.Context, l BatchSource, maxBatches int) *Timeline {
	scale := g.TimeScale
	if scale <= 0 {
		scale = 1
	}
	// Everything runs in the wall-time domain (the simnet providers sleep
	// scaled-down durations too, so IO and compute stay in proportion);
	// recorded durations are scaled back up to simulated time at the end.
	computeWall := time.Duration(float64(g.ComputePerBatch) / scale)
	tl := &Timeline{}
	start := time.Now()
	window := computeWall * 4
	if window <= 0 {
		window = time.Millisecond
	}
	var winBusy, winTotal time.Duration

	record := func(busy, stall time.Duration) {
		tl.ComputeTime += busy
		tl.StallTime += stall
		winBusy += busy
		winTotal += busy + stall
		for winTotal >= window {
			frac := 0.0
			if winTotal > 0 {
				frac = float64(winBusy) / float64(winTotal)
			}
			tl.Samples = append(tl.Samples, Sample{
				Offset: time.Duration(float64(tl.ComputeTime+tl.StallTime) * scale),
				Busy:   frac,
			})
			winBusy, winTotal = 0, 0
		}
	}

	batches := l.Batches(ctx)
	for {
		waitStart := time.Now()
		b, ok := <-batches
		if !ok {
			break
		}
		stall := time.Since(waitStart)
		if tl.Batches == 0 {
			tl.FirstBatch = time.Duration(float64(time.Since(start)) * scale)
		}
		if computeWall > 0 {
			time.Sleep(computeWall)
		}
		record(computeWall, stall)
		tl.Batches++
		tl.Rows += len(b.Samples)
		if maxBatches > 0 && tl.Batches >= maxBatches {
			break
		}
	}
	tl.Wall = time.Since(start)
	// Rescale to simulated time for reporting.
	tl.ComputeTime = time.Duration(float64(tl.ComputeTime) * scale)
	tl.StallTime = time.Duration(float64(tl.StallTime) * scale)
	return tl
}

// Fleet trains n identical GPUs against n loaders concurrently (the Fig 10
// 16xA100 setup) and merges their timelines.
func Fleet(ctx context.Context, gpus []GPU, loaders []BatchSource, maxBatches int) []*Timeline {
	out := make([]*Timeline, len(gpus))
	done := make(chan int)
	for i := range gpus {
		go func(i int) {
			out[i] = gpus[i].Train(ctx, loaders[i], maxBatches)
			done <- i
		}(i)
	}
	for range gpus {
		<-done
	}
	return out
}
