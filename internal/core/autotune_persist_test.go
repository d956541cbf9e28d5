package core

import (
	"context"
	"testing"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// Autotune persistence suite: the chunk-size autotuner's schedule position
// rides TensorMeta (and the root snapshots dataset.json points at), so a
// writer that flushes, closes, and reopens a dataset resumes the exact
// per-tensor chunk-size trajectory and stores bytes identical to a writer
// that never went away.

// appendMixedSizes appends rows [lo, hi) of deterministically varying byte
// widths — small labels punctuated by fat media-sized rows — the mixed-size
// workload the shrink-on-regret schedule exists for.
func appendMixedSizes(t *testing.T, x *Tensor, lo, hi int) {
	t.Helper()
	ctx := context.Background()
	sizes := []int{16, 48, 700, 32, 24, 64, 900, 40}
	for i := lo; i < hi; i++ {
		n := sizes[i%len(sizes)]
		data := make([]byte, n)
		for p := range data {
			data[p] = byte((i*13 + p) % 251)
		}
		arr, err := tensor.FromBytes(tensor.UInt8, []int{n}, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
}

// buildResumable writes two mixed-size phases with an autotuned writer,
// flushing between them; when reopen is set the dataset is closed and
// reopened from storage at the phase boundary. Returns the store plus the
// autotune level persisted after phase one (to prove restoration is
// load-bearing, not vacuous).
func buildResumable(t *testing.T, reopen bool) (storage.Provider, int) {
	t.Helper()
	ctx := context.Background()
	const autoCap = 4096
	store := storage.NewMemory()
	ds, err := Create(ctx, store, "resume")
	if err != nil {
		t.Fatal(err)
	}
	pinClock(ds)
	if err := ds.SetWriteOptions(WriteOptions{AutotuneChunkBytes: autoCap}); err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.UInt8, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendMixedSizes(t, x, 0, 120)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	level := x.builder.AutotuneState().Level
	if reopen {
		ds, err = Open(ctx, store)
		if err != nil {
			t.Fatal(err)
		}
		pinClock(ds)
		if err := ds.SetWriteOptions(WriteOptions{AutotuneChunkBytes: autoCap}); err != nil {
			t.Fatal(err)
		}
		x = ds.Tensor("x")
		if x == nil {
			t.Fatal("tensor x missing after reopen")
		}
	}
	appendMixedSizes(t, x, 120, 240)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return store, level
}

// TestAutotunePersistResumesSchedule is the reopen golden test: flush,
// reopen, append must store objects byte-identical to an uninterrupted
// writer flushing at the same point.
func TestAutotunePersistResumesSchedule(t *testing.T) {
	straight, level := buildResumable(t, false)
	resumed, _ := buildResumable(t, true)
	if level == 0 {
		t.Fatal("phase one never grew the schedule; the reopen comparison proves nothing")
	}
	assertSameObjects(t, straight, resumed)
}

// TestAutotuneStateSurvivesReopen pins the mechanism itself: the persisted
// meta carries the schedule position and a reopened tensor's builder reports
// the same state.
func TestAutotuneStateSurvivesReopen(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemory()
	ds, err := Create(ctx, store, "state")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetWriteOptions(WriteOptions{AutotuneChunkBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.UInt8, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendMixedSizes(t, x, 0, 120)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	root, err := loadRoot(ctx, store, ds.meta.Generation)
	if err != nil {
		t.Fatal(err)
	}
	want := root.Tensors["x"].Meta.Autotune
	if want == nil {
		t.Fatal("flush did not persist autotune state")
	}
	if want.ObsCount != 120 {
		t.Fatalf("persisted ObsCount %d, want 120", want.ObsCount)
	}

	ds2, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	x2 := ds2.Tensor("x")
	if x2 == nil {
		t.Fatal("tensor x missing after reopen")
	}
	if got := x2.builder.AutotuneState(); got != *want {
		t.Fatalf("reopened builder state %+v, want persisted %+v", got, *want)
	}
}
