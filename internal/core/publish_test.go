package core

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

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
// commit → checkout main → merge → flush. It stops at the first error.
func publishScript(ctx context.Context, store storage.Provider) (*Dataset, error) {
	ds, err := Create(ctx, store, "script")
	if err != nil {
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
// op, for every k of the script. Each time a reopen must land on a published
// generation holding exactly that generation's rows, fsck must find only
// repairable debris, -repair must reach clean, and the dataset must accept a
// write afterwards.
func TestCrashPointEnumeration(t *testing.T) {
	ctx := context.Background()

	// Reference run: what each generation holds, read by a second handle at
	// the moment its dataset.json lands.
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
	if _, err := publishScript(ctx, ref); err != nil {
		t.Fatal(err)
	}
	total := ref.ops
	t.Logf("%d mutating ops, %d generations", total, len(want))
	if total < 40 || len(want) < 10 {
		t.Fatalf("script too short to mean anything: %d mutating ops, %d generations", total, len(want))
	}

	debris := map[string]bool{FsckAbandonedRoot: true, FsckStaleRoot: true, FsckOrphanChunk: true, FsckOrphanVersion: true}
	for k := 0; k < total; k++ {
		mem := storage.NewMemory()
		g := &guillotine{Provider: mem, killAt: func(ops int, _ string) bool { return ops == k }}
		// The error is not the signal: the last ops of a publish are
		// best-effort deletes whose failure the writer swallows.
		_, _ = publishScript(ctx, g)
		if !g.dead {
			t.Fatalf("k=%d: the script finished without reaching the kill", k)
		}
		if ok, err := mem.Exists(ctx, datasetMetaKey); err != nil {
			t.Fatal(err)
		} else if !ok {
			continue // killed before the first publish: there is no dataset yet
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

// TestLayoutAndRequestCounts pins what the writer leaves in storage and what
// each operation costs, over Counting → Memory.
func TestLayoutAndRequestCounts(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	counting := storage.NewCounting(mem)
	ds, err := publishScript(ctx, counting)
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

	// The key set: pointer, two roots, and per version a state object and
	// chunks. Nothing else.
	gen := ds.meta.Generation
	layout := regexp.MustCompile(`^(dataset\.json|versions/v\d{8}/state\.json|versions/v\d{8}/tensors/[a-z_]+/chunks/[0-9a-f]{16})$`)
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

	// CreateTensor: root + pointer.
	counting.Reset()
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "extra", Dtype: tensor.Int64, Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Puts != 2 || s.Requests() != 0 {
		t.Fatalf("CreateTensor: %d Puts, %d reads, want 2 and 0", s.Puts, s.Requests())
	}

	// Flush: the k chunks it seals + root + pointer.
	if err := appendPairs(ctx, ds, 200, 203); err != nil {
		t.Fatal(err)
	}
	before := chunkKeys()
	counting.Reset()
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sealed := chunkKeys() - before
	if s := counting.Snapshot(); sealed == 0 || s.Puts != int64(sealed)+2 || s.Requests() != 0 {
		t.Fatalf("Flush sealing %d chunks: %d Puts, %d reads, want %d and 0", sealed, s.Puts, s.Requests(), sealed+2)
	}

	// Commit: the same plus the frozen state object, and ONE generation.
	if err := appendPairs(ctx, ds, 203, 206); err != nil {
		t.Fatal(err)
	}
	before, gen = chunkKeys(), ds.meta.Generation
	counting.Reset()
	first, err := ds.Commit(ctx, "counted")
	if err != nil {
		t.Fatal(err)
	}
	sealed = chunkKeys() - before
	if s := counting.Snapshot(); sealed == 0 || s.Puts != int64(sealed)+3 || s.Requests() != 0 || ds.meta.Generation != gen+1 {
		t.Fatalf("Commit sealing %d chunks: %d Puts, %d reads, generation %d → %d; want %d Puts, 0 reads, one generation",
			sealed, s.Puts, s.Requests(), gen, ds.meta.Generation, sealed+3)
	}

	// Open: pointer + root, however deep the history.
	open := func(depth int) {
		counting.Reset()
		back, err := Open(ctx, counting)
		if err != nil {
			t.Fatal(err)
		}
		if s := counting.Snapshot(); s.Requests() != 2 || s.Puts != 0 {
			t.Fatalf("Open at depth %d: %d reads, %d Puts, want 2 and 0", depth, s.Requests(), s.Puts)
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
	// (here none: 0 chunks + 2).
	counting.Reset()
	if err := ds.Checkout(ctx, first, false); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Requests() != 1 || s.Puts != 2 {
		t.Fatalf("checkout of a commit from a branch: %d reads, %d Puts, want 1 and the flush's 2", s.Requests(), s.Puts)
	}
	counting.Reset()
	if err := ds.Checkout(ctx, second, false); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Requests() != 1 || s.Puts != 0 || s.Deletes != 0 {
		t.Fatalf("checkout of a commit: %d reads, %d Puts, %d Deletes, want 1, 0, 0", s.Requests(), s.Puts, s.Deletes)
	}
}

// failOnce fails the first Put whose key contains match, once armed.
type failOnce struct {
	storage.Provider
	match string
	armed bool
}

func (f *failOnce) Put(ctx context.Context, key string, data []byte) error {
	if f.armed && strings.Contains(key, f.match) {
		f.armed = false
		return errors.New("injected: Put " + key + " failed")
	}
	return f.Provider.Put(ctx, key, data)
}

// TestFailedCommitLeavesHandleWhereItWas: whichever of a commit's three
// metadata Puts fails, the handle stays on the uncommitted head, and the
// retried Commit is the one and only commit.
func TestFailedCommitLeavesHandleWhereItWas(t *testing.T) {
	ctx := context.Background()
	for _, object := range []string{"state.json", rootsPrefix, datasetMetaKey} {
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

			f.armed = true
			if id, err := ds.Commit(ctx, "only"); err == nil {
				t.Fatalf("Commit through the failing Put returned %q", id)
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
