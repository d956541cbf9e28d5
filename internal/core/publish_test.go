package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// The publish-sequence suite: one head-metadata layout (the root snapshot is
// the only metadata a flush writes), pinned by its key set, its request
// counts, and a kill at every mutating storage op.

func appendPairs(ctx context.Context, ds *Dataset, from, to int) error {
	for i := from; i < to; i++ {
		err := ds.Append(ctx, map[string]*tensor.NDArray{
			"labels": tensor.Scalar(tensor.Int32, float64(i)),
			"vals":   tensor.Scalar(tensor.Int64, float64(i*i)),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// publishScript drives one writer through every operation that publishes:
// create → 2 tensors → append → flush → append → commit → branch → append →
// commit → checkout main → merge → flush, with the given write options. It
// stops at the first error.
func publishScript(ctx context.Context, store storage.Provider, opts WriteOptions) (*Dataset, error) {
	ds, err := Create(ctx, store, "script")
	if err != nil {
		return nil, err
	}
	if err := ds.SetWriteOptions(opts); err != nil {
		return nil, err
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		return nil, err
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "vals", Dtype: tensor.Int64, Bounds: smallBounds}); err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return appendPairs(ctx, ds, 0, 30) },
		func() error { return ds.Flush(ctx) },
		func() error { return appendPairs(ctx, ds, 30, 60) },
		func() error { _, err := ds.Commit(ctx, "first"); return err },
		func() error { return ds.Checkout(ctx, "dev", true) },
		func() error { return appendPairs(ctx, ds, 100, 130) },
		func() error { _, err := ds.Commit(ctx, "dev work"); return err },
		func() error { return ds.Checkout(ctx, "main", false) },
		func() error { return ds.Merge(ctx, "dev", MergeTheirs) },
		func() error { return ds.Flush(ctx) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// deleteTensorScript runs publishScript, then CreateTensor → append → Flush
// → DeleteTensor → Flush on a group tensor, whose name contains "/"; then a
// second handle opens, recreates the tensor with other values, appends and
// flushes.
func deleteTensorScript(ctx context.Context, store storage.Provider, opts WriteOptions) (*Dataset, error) {
	ds, err := publishScript(ctx, store, opts)
	if err != nil {
		return nil, err
	}
	const name = "extra/ids"
	extra, err := ds.CreateTensor(ctx, TensorSpec{Name: name, Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 40; i++ {
		if err := extra.Append(ctx, tensor.Scalar(tensor.Int64, float64(i))); err != nil {
			return nil, err
		}
	}
	if err := ds.Flush(ctx); err != nil {
		return nil, err
	}
	if err := ds.DeleteTensor(ctx, name); err != nil {
		return nil, err
	}
	if err := ds.Flush(ctx); err != nil {
		return nil, err
	}
	other, err := Open(ctx, store)
	if err != nil {
		return nil, err
	}
	if err := other.SetWriteOptions(opts); err != nil {
		return nil, err
	}
	if extra, err = other.CreateTensor(ctx, TensorSpec{Name: name, Dtype: tensor.Int64, Bounds: smallBounds}); err != nil {
		return nil, err
	}
	for i := 0; i < 40; i++ {
		if err := extra.Append(ctx, tensor.Scalar(tensor.Int64, float64(-i))); err != nil {
			return nil, err
		}
	}
	return other, other.Flush(ctx)
}

// rowsOf renders the branch and every row of every tensor (hidden ones
// included) of a handle: the oracle two handles on one generation must agree
// on.
func rowsOf(t *testing.T, ds *Dataset) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	fmt.Fprintf(&b, "branch %s", ds.Branch())
	for _, name := range ds.AllTensors() {
		tr := ds.Tensor(name)
		fmt.Fprintf(&b, "\n%s:", name)
		for i := uint64(0); i < tr.Len(); i++ {
			arr, err := tr.At(ctx, i)
			if err != nil {
				t.Fatalf("%s[%d]: %v", name, i, err)
			}
			v, _ := arr.Item()
			fmt.Fprintf(&b, " %v", v)
		}
	}
	return b.String()
}

// TestCrashPointEnumeration kills the writer before the k-th mutating storage
// op, for every k of the script, with one upload lane (uploads in seal order)
// and with the default lanes (uploads racing each other and the kill). Each
// time a reopen must land on a published generation holding exactly that
// generation's rows, fsck must find only repairable debris, -repair must
// reach clean, and the dataset must accept a write afterwards.
func TestCrashPointEnumeration(t *testing.T) {
	t.Run("one-lane", func(t *testing.T) { enumerateCrashPoints(t, publishScript, WriteOptions{FlushWorkers: 1}) })
	t.Run("default-lanes", func(t *testing.T) { enumerateCrashPoints(t, publishScript, WriteOptions{}) })
}

// TestCrashPointEnumerationDeleteTensor runs the same enumeration over a
// script that deletes a tensor and recreates it on a second handle. The
// delete's root lists the tensor's chunks as superseded, so a kill after it
// leaves no orphans of them, and the recreated tensor writes fresh keys.
func TestCrashPointEnumerationDeleteTensor(t *testing.T) {
	t.Run("one-lane", func(t *testing.T) { enumerateCrashPoints(t, deleteTensorScript, WriteOptions{FlushWorkers: 1}) })
	t.Run("default-lanes", func(t *testing.T) { enumerateCrashPoints(t, deleteTensorScript, WriteOptions{}) })
}

type writerScript func(context.Context, storage.Provider, WriteOptions) (*Dataset, error)

func enumerateCrashPoints(t *testing.T, script writerScript, opts WriteOptions) {
	ctx := context.Background()

	// Reference run: what each generation holds, read by a second handle at
	// the moment its root lands.
	mem := storage.NewMemory()
	ref := &guillotine{Provider: mem}
	want := map[uint64]string{}
	ref.published = func() {
		back, err := Open(ctx, mem)
		if err != nil {
			t.Fatalf("reference reopen: %v", err)
		}
		want[back.Integrity().Generation] = rowsOf(t, back)
	}
	if _, err := script(ctx, ref, opts); err != nil {
		t.Fatal(err)
	}
	total, _ := ref.state()
	t.Logf("%d mutating ops, %d generations", total, len(want))
	if total < 40 || len(want) < 10 {
		t.Fatalf("script too short to mean anything: %d mutating ops, %d generations", total, len(want))
	}

	debris := map[string]bool{FsckStaleRoot: true, FsckOrphanChunk: true, FsckOrphanVersion: true}
	for k := 0; k < total; k++ {
		mem := storage.NewMemory()
		g := &guillotine{Provider: mem, killAt: func(ops int, _ string) bool { return ops == k }}
		// The error is not the signal: some ops are best-effort deletes
		// (old roots, a deleted tensor's chunks) whose failure the writer
		// swallows.
		_, _ = script(ctx, g, opts)
		if _, dead := g.state(); !dead {
			t.Fatalf("k=%d: the script finished without reaching the kill", k)
		}
		if keys, err := mem.List(ctx, rootsPrefix); err != nil {
			t.Fatal(err)
		} else if len(keys) == 0 {
			continue // killed before the first publish: no root under roots/
		}

		back, err := Open(ctx, mem)
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		gen := back.Integrity().Generation
		if rows, ok := want[gen]; !ok || rowsOf(t, back) != rows {
			t.Fatalf("k=%d: reopened at generation %d with\n%s\nwant\n%s", k, gen, rowsOf(t, back), rows)
		}

		rep, err := Fsck(ctx, mem, FsckOptions{})
		if err != nil {
			t.Fatalf("k=%d: fsck: %v", k, err)
		}
		for _, i := range rep.Issues {
			if !debris[i.Kind] || !i.Repairable {
				t.Fatalf("k=%d: a crash may leave only repairable debris, got:\n%s", k, rep.Format())
			}
		}
		if rep, err = Fsck(ctx, mem, FsckOptions{Repair: true}); err != nil || !rep.Clean() {
			t.Fatalf("k=%d: repair: %v\n%s", k, err, rep.Format())
		}
		if rep, err = Fsck(ctx, mem, FsckOptions{}); err != nil || len(rep.Issues) != 0 {
			t.Fatalf("k=%d: not clean after repair: %v\n%s", k, err, rep.Format())
		}

		// The repaired dataset accepts a write.
		ds, err := Open(ctx, mem)
		if err != nil {
			t.Fatalf("k=%d: reopen after repair: %v", k, err)
		}
		tr := ds.Tensor("labels")
		if tr == nil {
			if tr, err = ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
		n := tr.Len()
		if err := tr.Append(ctx, tensor.Scalar(tensor.Int32, 7)); err != nil {
			t.Fatalf("k=%d: append after repair: %v", k, err)
		}
		if err := ds.Flush(ctx); err != nil {
			t.Fatalf("k=%d: flush after repair: %v", k, err)
		}
		if back, err = Open(ctx, mem); err != nil || back.Tensor("labels").Len() != n+1 {
			t.Fatalf("k=%d: the recovery write did not land: %v", k, err)
		}
	}
}

// existsCounting counts the Exists calls, which Counting does not.
type existsCounting struct {
	storage.Provider
	calls atomic.Int64
}

func (e *existsCounting) Exists(ctx context.Context, key string) (bool, error) {
	e.calls.Add(1)
	return e.Provider.Exists(ctx, key)
}

// TestLayoutAndRequestCounts pins what the writer leaves in storage and what
// each operation costs, over Counting → Memory.
func TestLayoutAndRequestCounts(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	counting := storage.NewCounting(mem)
	// Create: one List to refuse an existing root, one Put for the first.
	if _, err := Create(ctx, counting, "created"); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Lists != 1 || s.Puts != 1 || s.Requests() != 0 {
		t.Fatalf("Create: %d Lists, %d Puts, %d reads, want 1, 1 and 0", s.Lists, s.Puts, s.Requests())
	}
	mem = storage.NewMemory()
	counting = storage.NewCounting(mem)
	ds, err := publishScript(ctx, counting, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chunkKeys := func() int {
		keys, err := mem.List(ctx, "versions/")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, k := range keys {
			if strings.Contains(k, "/chunks/") {
				n++
			}
		}
		return n
	}

	// The key set: two roots, and per version a state object and chunks.
	// Nothing else.
	gen := ds.gen
	layout := regexp.MustCompile(`^(versions/v\d{8}/state\.json|versions/v\d{8}/tensors/[a-z_]+/chunks/[0-9a-f]{16})$`)
	keys, err := mem.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, k := range keys {
		switch {
		case k == rootKey(gen) || k == rootKey(gen-1):
			roots++
		case !layout.MatchString(k):
			t.Errorf("unexpected object %q", k)
		}
	}
	if roots != 2 || chunkKeys() == 0 {
		t.Fatalf("want exactly roots %d and %d and some chunks, got keys %v", gen-1, gen, keys)
	}

	// CreateTensor: the root.
	counting.Reset()
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "extra", Dtype: tensor.Int64, Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Puts != 1 || s.Requests() != 0 {
		t.Fatalf("CreateTensor: %d Puts, %d reads, want 1 and 0", s.Puts, s.Requests())
	}

	// Flush: the k chunks it seals + root.
	if err := appendPairs(ctx, ds, 200, 203); err != nil {
		t.Fatal(err)
	}
	before := chunkKeys()
	counting.Reset()
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sealed := chunkKeys() - before
	if s := counting.Snapshot(); sealed == 0 || s.Puts != int64(sealed)+1 || s.Requests() != 0 {
		t.Fatalf("Flush sealing %d chunks: %d Puts, %d reads, want %d and 0", sealed, s.Puts, s.Requests(), sealed+1)
	}

	// Commit: the same plus the frozen state object, and ONE generation.
	if err := appendPairs(ctx, ds, 203, 206); err != nil {
		t.Fatal(err)
	}
	before, gen = chunkKeys(), ds.gen
	counting.Reset()
	first, err := ds.Commit(ctx, "counted")
	if err != nil {
		t.Fatal(err)
	}
	sealed = chunkKeys() - before
	if s := counting.Snapshot(); sealed == 0 || s.Puts != int64(sealed)+2 || s.Requests() != 0 || ds.gen != gen+1 {
		t.Fatalf("Commit sealing %d chunks: %d Puts, %d reads, generation %d → %d; want %d Puts, 0 reads, one generation",
			sealed, s.Puts, s.Requests(), gen, ds.gen, sealed+2)
	}

	// Open: one List of roots/ + the newest root, however deep the history.
	open := func(depth int) {
		counting.Reset()
		exists := &existsCounting{Provider: counting}
		back, err := Open(ctx, exists)
		if err != nil {
			t.Fatal(err)
		}
		if s := counting.Snapshot(); s.Lists != 1 || s.Gets != 1 || s.Requests() != 1 || s.Puts != 0 || exists.calls.Load() != 0 {
			t.Fatalf("Open at depth %d: %d Lists, %d reads, %d Puts, %d Exists, want 1, 1, 0 and 0",
				depth, s.Lists, s.Requests(), s.Puts, exists.calls.Load())
		}
		if log, err := back.Log(); err != nil || len(log) != depth {
			t.Fatalf("Open at depth %d: log has %d commits (%v)", depth, len(log), err)
		}
	}
	open(2)
	var second string
	for d := 3; d <= 20; d++ {
		if err := appendPairs(ctx, ds, 300+d, 301+d); err != nil {
			t.Fatal(err)
		}
		if second, err = ds.Commit(ctx, fmt.Sprintf("commit %d", d)); err != nil {
			t.Fatal(err)
		}
	}
	open(20)

	// Checkout of a commit id reads that version's state and publishes
	// nothing. From a branch it is preceded by the flush of pending writes
	// (here none: 0 chunks + 1).
	counting.Reset()
	if err := ds.Checkout(ctx, first, false); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Requests() != 1 || s.Puts != 1 {
		t.Fatalf("checkout of a commit from a branch: %d reads, %d Puts, want 1 and the flush's 1", s.Requests(), s.Puts)
	}
	counting.Reset()
	if err := ds.Checkout(ctx, second, false); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Requests() != 1 || s.Puts != 0 || s.Deletes != 0 {
		t.Fatalf("checkout of a commit: %d reads, %d Puts, %d Deletes, want 1, 0, 0", s.Requests(), s.Puts, s.Deletes)
	}
}

// failOnce fails the first Put whose key contains match, once armed, and
// counts the root Puts attempted.
type failOnce struct {
	storage.Provider
	match    string
	armed    atomic.Bool
	rootPuts atomic.Int64
}

func (f *failOnce) Put(ctx context.Context, key string, data []byte) error {
	if strings.HasPrefix(key, rootsPrefix) {
		f.rootPuts.Add(1)
	}
	if strings.Contains(key, f.match) && f.armed.CompareAndSwap(true, false) {
		return errors.New("injected: Put " + key + " failed")
	}
	return f.Provider.Put(ctx, key, data)
}

// TestFailedCommitLeavesHandleWhereItWas: whichever of a commit's Puts fails
// — a chunk upload or one of its two metadata Puts — the handle stays on the
// uncommitted head, the root is not written unless it is what failed, and
// the retried Commit is the one and only commit.
func TestFailedCommitLeavesHandleWhereItWas(t *testing.T) {
	ctx := context.Background()
	for _, object := range []string{"state.json", rootsPrefix, "/chunks/"} {
		t.Run(object, func(t *testing.T) {
			mem := storage.NewMemory()
			f := &failOnce{Provider: mem, match: object}
			ds, err := Create(ctx, f, "retry")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
				t.Fatal(err)
			}
			appendLabels(t, ds, 0, 40)
			head := ds.Version()
			// Uploads sealed by the appends land before the fault is armed,
			// so the one that fails belongs to the Commit.
			if err := ds.flusher.drain(ctx); err != nil {
				t.Fatal(err)
			}

			f.armed.Store(true)
			f.rootPuts.Store(0)
			if id, err := ds.Commit(ctx, "only"); err == nil {
				t.Fatalf("Commit through the failing Put returned %q", id)
			}
			if f.armed.Load() {
				t.Fatalf("the Commit issued no Put matching %q", object)
			}
			var want int64 // round 1 failed: no root Put was issued
			if object == rootsPrefix {
				want = 1 // round 1 succeeded and the root Put is the failure
			}
			if n := f.rootPuts.Load(); n != want {
				t.Fatalf("failed Commit attempted %d root Puts, want %d", n, want)
			}
			if log, _ := ds.Log(); ds.Version() != head || len(log) != 0 {
				t.Fatalf("failed Commit moved the handle: version %s → %s, %d commits", head, ds.Version(), len(log))
			}
			id, err := ds.Commit(ctx, "only")
			if err != nil {
				t.Fatal(err)
			}
			if id != head {
				t.Fatalf("retried Commit froze %s, want the head %s the rows were written to", id, head)
			}

			for name, h := range map[string]*Dataset{"writer": ds, "reopened": mustOpen(t, mem)} {
				log, err := h.Log()
				if err != nil || len(log) != 1 || log[0].ID != id {
					t.Fatalf("%s: log = %v (%v), want exactly the one commit %s", name, log, err, id)
				}
				at, err := h.ReadAtVersion(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				if at.NumRows() != 40 || readLabel(t, at, 39) != 39 || h.NumRows() != 40 {
					t.Fatalf("%s: commit holds %d rows, head %d, want 40", name, at.NumRows(), h.NumRows())
				}
			}
			if rep, err := Fsck(ctx, mem, FsckOptions{}); err != nil || len(rep.Issues) != 0 {
				t.Fatalf("fsck after the retried commit: %v\n%s", err, rep.Format())
			}
		})
	}
}

// TestPublishAfterFailedFlushRedrives: a chunk upload that fails once fails
// the Flush, and the sealed chunk stays parked in the pipeline. The next
// publish that seals nothing (CreateTensor) restarts that upload instead of
// failing with its stale error, and the dataset reopens with every row. The
// failing upload is the last tensor's, so the Flush seals every tensor and
// snapshots the state before the failure can stop it.
func TestPublishAfterFailedFlushRedrives(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	f := &failOnce{Provider: mem, match: SampleIDTensor + "/chunks/"}
	ds, err := Create(ctx, f, "redrive")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 40)
	if err := ds.flusher.drain(ctx); err != nil {
		t.Fatal(err)
	}
	if last := ds.order[len(ds.order)-1]; last != SampleIDTensor {
		t.Fatalf("tensor order %v: want %s last", ds.order, SampleIDTensor)
	}
	f.armed.Store(true)
	if err := ds.Flush(ctx); err == nil {
		t.Fatal("Flush through a failing chunk upload succeeded")
	}
	if f.armed.Load() {
		t.Fatal("the Flush issued no chunk upload")
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "extra", Dtype: tensor.Int64, Bounds: smallBounds}); err != nil {
		t.Fatalf("CreateTensor after the store recovered: %v", err)
	}
	back := mustOpen(t, mem)
	if back.Tensor("labels").Len() != 40 || readLabel(t, back, 39) != 39 || back.Tensor("extra") == nil {
		t.Fatalf("reopened with %d labels and tensors %v, want 40 labels and extra", back.Tensor("labels").Len(), back.AllTensors())
	}
	if rep, err := Fsck(ctx, mem, FsckOptions{}); err != nil || len(rep.Issues) != 0 {
		t.Fatalf("fsck: %v\n%s", err, rep.Format())
	}
}

func mustOpen(t *testing.T, store storage.Provider) *Dataset {
	t.Helper()
	ds, err := Open(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDetachedCheckoutKeepsCurrentBranch: time travel from dev must not
// rewrite the published branch; a second handle still opens dev, and the
// first can return to it and write.
func TestDetachedCheckoutKeepsCurrentBranch(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "detached")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 10)
	commit, err := ds.Commit(ctx, "base")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkout(ctx, "dev", true); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 10, 25)
	if err := ds.Checkout(ctx, commit, false); err != nil {
		t.Fatal(err)
	}
	if ds.Branch() != "" || ds.NumRows() != 10 {
		t.Fatalf("detached at %q with %d rows", ds.Branch(), ds.NumRows())
	}

	other := mustOpen(t, mem)
	if other.Branch() != "dev" || other.NumRows() != 25 || readLabel(t, other, 24) != 24 {
		t.Fatalf("second handle opened branch %q with %d rows, want dev's 25", other.Branch(), other.NumRows())
	}

	if err := ds.Checkout(ctx, "dev", false); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 25, 30)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if back := mustOpen(t, mem); back.Branch() != "dev" || back.NumRows() != 30 {
		t.Fatalf("after returning to dev: branch %q, %d rows", back.Branch(), back.NumRows())
	}
	// And leaving dev for main from the detached state parks dev's head.
	if err := ds.Checkout(ctx, commit, false); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkout(ctx, "main", false); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkout(ctx, "dev", false); err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 30 {
		t.Fatalf("dev lost rows across detached → main → dev: %d", ds.NumRows())
	}
	if rep, err := Fsck(ctx, mem, FsckOptions{}); err != nil || len(rep.Issues) != 0 {
		t.Fatalf("fsck: %v\n%s", err, rep.Format())
	}
}

// gate holds a publish's storage ops while it is armed and releases them in
// the publish's two rounds. Round 1 is every Put and Delete but those of a
// root: they are held until want of them are waiting at once, then released
// together. Round 2 is the root Put and the delete of the root two
// generations back: both are held until both are waiting, and each records how
// many round-1 ops had returned when it arrived, which must be all of them. A
// publish that waits for one op of a round before it issues the next never
// fills that round, and hangs.
type gate struct {
	storage.Provider

	mu sync.Mutex
	// want is the number of round-1 ops to hold; -1 until expect sets it.
	want     int
	held     []string
	returned int
	open     chan struct{}
	// last names round 2's ops ("put <key>" or "delete <key>"); after[i] is
	// the number of round-1 ops that had returned when last[i] arrived.
	last     []string
	after    []int
	lastOpen chan struct{}
}

// arm starts holding ops; round 1 waits for expect to say how many it has.
func (g *gate) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.want, g.held, g.returned, g.last, g.after = -1, nil, 0, nil, nil
	g.open, g.lastOpen = make(chan struct{}), make(chan struct{})
}

// expect releases round 1 once want ops are waiting, those already held
// included.
func (g *gate) expect(want int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.want = want
	if len(g.held) == want {
		close(g.open)
	}
}

func (g *gate) Put(ctx context.Context, key string, data []byte) error {
	op := func() error { return g.Provider.Put(ctx, key, data) }
	if strings.HasPrefix(key, rootsPrefix) {
		return g.finish("put "+key, op)
	}
	return g.hold(key, op)
}

func (g *gate) Delete(ctx context.Context, key string) error {
	op := func() error { return g.Provider.Delete(ctx, key) }
	if strings.HasPrefix(key, rootsPrefix) {
		return g.finish("delete "+key, op)
	}
	return g.hold(key, op)
}

func (g *gate) hold(key string, op func() error) error {
	g.mu.Lock()
	if g.open == nil {
		g.mu.Unlock()
		return op()
	}
	g.held = append(g.held, key)
	if len(g.held) == g.want {
		close(g.open)
	}
	open := g.open
	g.mu.Unlock()
	<-open
	err := op()
	g.mu.Lock()
	g.returned++
	g.mu.Unlock()
	return err
}

func (g *gate) finish(name string, op func() error) error {
	g.mu.Lock()
	if g.open == nil {
		g.mu.Unlock()
		return op()
	}
	g.last = append(g.last, name)
	g.after = append(g.after, g.returned)
	if len(g.last) == 2 {
		close(g.lastOpen)
	}
	open := g.lastOpen
	g.mu.Unlock()
	<-open
	return op()
}

// pendingUploads is the number of sealed chunks the pipeline holds that are
// not yet durable.
func (p *flushPipeline) pendingUploads() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// TestPublishIssuesRoundOneAtOnce pins the publish protocol by the order of
// events alone. Round 1 is every op that lands what the new root names: the
// k chunk uploads not yet durable and the frozen state object (Commit). All
// of them are in flight at the same time, whatever the lane count, and also
// when uploads sealed by appends still wait for a lane as the publish starts.
// Round 2 is the root Put and the delete of the root two generations back, in
// flight together once every round-1 op returned. A publish with nothing to
// upload (CreateTensor, a second Flush) has an empty round 1.
func TestPublishIssuesRoundOneAtOnce(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		// lanes is the FlushWorkers setting, 0 for the default.
		lanes int
		// before runs ahead of the gate; behind appends vals rows behind
		// the armed gate until an upload waits for a lane.
		before func(*Dataset) error
		behind bool
		// states is the number of round-1 state object Puts; seals says
		// whether the operation seals the builders' pending chunks; idle
		// says it has no chunk to upload, while every other case has one
		// at least.
		states int
		seals  bool
		idle   bool
		op     func(*Dataset) error
	}{
		{name: "CreateTensor", idle: true, op: func(ds *Dataset) error {
			_, err := ds.CreateTensor(ctx, TensorSpec{Name: "extra", Dtype: tensor.Int64, Bounds: smallBounds})
			return err
		}},
		{name: "Flush with nothing to upload", seals: true, idle: true,
			before: func(ds *Dataset) error { return ds.Flush(ctx) },
			op:     func(ds *Dataset) error { return ds.Flush(ctx) }},
		{name: "Flush", seals: true, op: func(ds *Dataset) error { return ds.Flush(ctx) }},
		{name: "Commit", states: 1, seals: true, op: func(ds *Dataset) error { _, err := ds.Commit(ctx, "gated"); return err }},
		// Two chunks on one lane: one row each in labels and vals, none in
		// the hidden sample-id tensor, so both fit the pipeline's 2 slots.
		{name: "Commit on one lane", lanes: 1, states: 1, seals: true,
			before: func(ds *Dataset) error {
				if err := ds.Flush(ctx); err != nil {
					return err
				}
				if err := ds.Tensor("labels").Append(ctx, tensor.Scalar(tensor.Int32, 1)); err != nil {
					return err
				}
				return ds.Tensor("vals").Append(ctx, tensor.Scalar(tensor.Int64, 1))
			},
			op: func(ds *Dataset) error { _, err := ds.Commit(ctx, "gated"); return err }},
		{name: "Commit behind uploads waiting for a lane", lanes: 2, behind: true, states: 1, seals: true,
			before: func(ds *Dataset) error { return ds.Flush(ctx) },
			op:     func(ds *Dataset) error { _, err := ds.Commit(ctx, "gated"); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &gate{Provider: storage.NewMemory()}
			ds, err := Create(ctx, g, "gated")
			if err != nil {
				t.Fatal(err)
			}
			lanes := cmp.Or(tc.lanes, defaultFlushWorkers)
			if err := ds.SetWriteOptions(WriteOptions{FlushWorkers: lanes}); err != nil {
				t.Fatal(err)
			}
			for _, spec := range []TensorSpec{
				{Name: "labels", Htype: "class_label", Bounds: smallBounds},
				{Name: "vals", Dtype: tensor.Int64, Bounds: smallBounds},
			} {
				if _, err := ds.CreateTensor(ctx, spec); err != nil {
					t.Fatal(err)
				}
			}
			// Generation 4 onward, so round 2 also drops a snapshot.
			if err := appendPairs(ctx, ds, 0, 3); err != nil {
				t.Fatal(err)
			}
			if tc.before != nil {
				if err := tc.before(ds); err != nil {
					t.Fatal(err)
				}
			}
			if err := ds.flusher.drain(ctx); err != nil {
				t.Fatal(err)
			}

			g.arm()
			if tc.behind {
				// The gate holds every upload that gets a lane, so once
				// more chunks are sealed than there are lanes, one waits.
				vals := ds.Tensor("vals")
				for i := 0; ds.flusher.pendingUploads() <= lanes; i++ {
					if err := vals.Append(ctx, tensor.Scalar(tensor.Int64, float64(i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			k := ds.flusher.pendingUploads()
			if tc.seals {
				for _, tr := range ds.tensors {
					if tr.builder.Len() > 0 {
						k++
					}
				}
			}
			if tc.idle && k != 0 {
				t.Fatalf("%d chunks to upload, want none", k)
			}
			if !tc.idle && k == 0 {
				t.Fatal("no chunk to upload, want at least 1")
			}
			if tc.lanes == 1 && k < 2 {
				t.Fatalf("%d chunks to upload on one lane, want at least 2", k)
			}
			// Past the slots, the seal waits for a slot a held upload has.
			if k > 2*lanes {
				t.Fatalf("%d chunks to upload, more than the pipeline's %d slots hold at once", k, 2*lanes)
			}
			want := k + tc.states
			g.expect(want)
			if err := tc.op(ds); err != nil {
				t.Fatal(err)
			}

			g.mu.Lock()
			defer g.mu.Unlock()
			var chunks, states int
			for _, key := range g.held {
				switch {
				case strings.Contains(key, "/chunks/"):
					chunks++
				case strings.HasSuffix(key, "/state.json"):
					states++
				}
			}
			if len(g.held) != want || chunks != k || states != tc.states {
				t.Fatalf("round 1 held %v, want %d chunks and %d state object(s)", g.held, k, tc.states)
			}
			gen := ds.gen
			last := slices.Clone(g.last)
			slices.Sort(last)
			if fmt.Sprint(last) != fmt.Sprint([]string{"delete " + rootKey(gen-2), "put " + rootKey(gen)}) {
				t.Fatalf("round 2 was %v, want the root Put of generation %d and the delete of %d", g.last, gen, gen-2)
			}
			for i, n := range g.after {
				if n != want {
					t.Fatalf("%s arrived after %d of the %d round-1 ops returned", g.last[i], n, want)
				}
			}
		})
	}
}

// pairs holds every chunk Put until a second one is in flight, so uploads
// pass two at a time. A Put left alone for a second stops waiting and is
// counted, so a publish that paces its seal's uploads on the lanes fails the
// test instead of hanging it.
type pairs struct {
	storage.Provider

	mu      sync.Mutex
	waiting chan struct{}
	puts    int
	alone   int
}

func (p *pairs) Put(ctx context.Context, key string, data []byte) error {
	if !strings.Contains(key, "/chunks/") {
		return p.Provider.Put(ctx, key, data)
	}
	p.mu.Lock()
	p.puts++
	if w := p.waiting; w != nil {
		p.waiting = nil
		close(w)
		p.mu.Unlock()
		return p.Provider.Put(ctx, key, data)
	}
	w := make(chan struct{})
	p.waiting = w
	p.mu.Unlock()
	select {
	case <-w:
	case <-time.After(time.Second):
		p.mu.Lock()
		if p.waiting == w {
			p.waiting = nil
			p.alone++
		}
		p.mu.Unlock()
	}
	return p.Provider.Put(ctx, key, data)
}

// TestPublishRushesItsOwnSeal: the chunks a publish seals skip the lanes as
// well as those sealed before it. On one lane the pipeline holds two uploads,
// and the four tail chunks a Flush seals go out two at a time: the seal waits
// for a slot, never for the lane.
func TestPublishRushesItsOwnSeal(t *testing.T) {
	ctx := context.Background()
	p := &pairs{Provider: storage.NewMemory()}
	ds, err := Create(ctx, p, "seal")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetWriteOptions(WriteOptions{FlushWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		tr, err := ds.CreateTensor(ctx, TensorSpec{Name: name, Dtype: tensor.Int32, Bounds: smallBounds})
		if err != nil {
			t.Fatal(err)
		}
		appendInts(t, tr, 1)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.puts != 4 || p.alone != 0 {
		t.Fatalf("%d of %d chunk Puts went out alone, want 0 of 4", p.alone, p.puts)
	}
}

// TestDeleteTensorPublishesThenCollects: DeleteTensor publishes the schema
// without the tensor and lists its head chunks as superseded; the next
// publish deletes them. A failed publish leaves the tensor open, readable
// and stored; a writer killed before the next publish leaves a root that
// lists the chunks, so fsck finds nothing and the reopened handle's next
// publish collects them.
func TestDeleteTensorPublishesThenCollects(t *testing.T) {
	ctx := context.Background()
	const name = "group/b"
	setup := func(t *testing.T, store storage.Provider) *Dataset {
		t.Helper()
		ds, err := Create(ctx, store, "delete")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"a", name} {
			tr, err := ds.CreateTensor(ctx, TensorSpec{Name: n, Dtype: tensor.Int32, Bounds: smallBounds})
			if err != nil {
				t.Fatal(err)
			}
			appendInts(t, tr, make([]int, 60)...)
		}
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		return ds
	}
	stored := func(t *testing.T, mem *storage.Memory, ds *Dataset) []string {
		t.Helper()
		keys, err := mem.List(ctx, tensorPrefix(ds.Version(), name)+"/")
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	// listed fails unless the published root lists every key as superseded.
	listed := func(t *testing.T, mem *storage.Memory, keys []string) {
		t.Helper()
		superseded := publishedSuperseded(t, mem)
		for _, key := range keys {
			if !slices.Contains(superseded, key) {
				t.Fatalf("the published root does not list %s as superseded: %v", key, superseded)
			}
		}
	}

	t.Run("publish fails", func(t *testing.T) {
		mem := storage.NewMemory()
		f := &failOnce{Provider: mem, match: rootsPrefix}
		ds := setup(t, f)
		before := stored(t, mem, ds)
		if len(before) < 2 {
			t.Fatalf("%d chunks stored for %s, want several", len(before), name)
		}
		f.armed.Store(true)
		if err := ds.DeleteTensor(ctx, name); err == nil {
			t.Fatal("DeleteTensor through a failing root Put succeeded")
		}
		if got := ds.AllTensors(); fmt.Sprint(got) != fmt.Sprint([]string{"a", name}) || ds.Tensor(name).Len() != 60 {
			t.Fatalf("failed DeleteTensor left tensors %v", got)
		}
		for row := uint64(0); row < 60; row++ {
			if _, err := ds.Tensor(name).At(ctx, row); err != nil {
				t.Fatalf("failed DeleteTensor left %s[%d] unreadable: %v", name, row, err)
			}
		}
		if after := stored(t, mem, ds); len(after) != len(before) {
			t.Fatalf("failed DeleteTensor deleted %d of %d chunks", len(before)-len(after), len(before))
		}
		if err := ds.DeleteTensor(ctx, name); err != nil {
			t.Fatal(err)
		}
		if ds.Tensor(name) != nil || mustOpen(t, mem).Tensor(name) != nil {
			t.Fatalf("retried DeleteTensor left the tensor behind")
		}
		if after := stored(t, mem, ds); !slices.Equal(after, before) {
			t.Fatalf("retried DeleteTensor left %d of %d chunks, want all until the next publish", len(after), len(before))
		}
		listed(t, mem, before)
		assertFsckClean(t, mem)
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if after := stored(t, mem, ds); len(after) != 0 {
			t.Fatalf("the next publish left %d of %d chunks", len(after), len(before))
		}
		assertFsckClean(t, mem)
	})

	t.Run("killed before the next publish", func(t *testing.T) {
		mem := storage.NewMemory()
		g := &guillotine{Provider: mem}
		ds := setup(t, g)
		leftover := stored(t, mem, ds)
		if err := ds.DeleteTensor(ctx, name); err != nil {
			t.Fatal(err)
		}
		g.killAt = func(int, string) bool { return true }
		if err := ds.Flush(ctx); err == nil {
			t.Fatal("the killed writer published")
		}
		back := mustOpen(t, mem)
		if back.Tensor(name) != nil || back.Tensor("a").Len() != 60 {
			t.Fatalf("reopened with tensors %v", back.AllTensors())
		}
		listed(t, mem, leftover)
		assertFsckClean(t, mem)
		if err := back.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if after := stored(t, mem, back); len(after) != 0 {
			t.Fatalf("the reopened handle's publish left %d of %d chunks", len(after), len(leftover))
		}
		assertFsckClean(t, mem)
	})

	// A live tensor named "<name>/chunks" stores its chunks under the deleted
	// tensor's chunk prefix; collecting must leave them alone.
	t.Run("sibling under the chunk prefix", func(t *testing.T) {
		mem := storage.NewMemory()
		ds := setup(t, mem)
		sibling := name + "/chunks"
		tr, err := ds.CreateTensor(ctx, TensorSpec{Name: sibling, Dtype: tensor.Int32, Bounds: smallBounds})
		if err != nil {
			t.Fatal(err)
		}
		appendInts(t, tr, make([]int, 60)...)
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if err := ds.DeleteTensor(ctx, name); err != nil {
			t.Fatal(err)
		}
		back := mustOpen(t, mem)
		if back.Tensor(name) != nil || back.Tensor(sibling) == nil || back.Tensor(sibling).Len() != 60 {
			t.Fatalf("reopened with tensors %v", back.AllTensors())
		}
		for row := uint64(0); row < 60; row++ {
			if _, err := back.Tensor(sibling).At(ctx, row); err != nil {
				t.Fatalf("%s lost its chunks: %v", sibling, err)
			}
		}
		if rep, err := Fsck(ctx, mem, FsckOptions{}); err != nil || len(rep.Issues) != 0 {
			t.Fatalf("fsck: %v\n%s", err, rep.Format())
		}
	})
}
