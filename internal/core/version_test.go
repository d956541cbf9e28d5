package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/tensor"
)

func appendInts(t *testing.T, tr *Tensor, vals ...int) {
	t.Helper()
	ctx := context.Background()
	for _, v := range vals {
		if err := tr.Append(ctx, tensor.Scalar(tensor.Int32, float64(v))); err != nil {
			t.Fatal(err)
		}
	}
}

func readInt(t *testing.T, tr *Tensor, idx uint64) int {
	t.Helper()
	arr, err := tr.At(context.Background(), idx)
	if err != nil {
		t.Fatalf("At(%d): %v", idx, err)
	}
	v, err := arr.Item()
	if err != nil {
		t.Fatal(err)
	}
	return int(v)
}

func TestCommitAndTimeTravel(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, 1, 2, 3)
	c1, err := ds.Commit(ctx, "three samples")
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, 4, 5)
	c2, err := ds.Commit(ctx, "five samples")
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 5 {
		t.Fatalf("len = %d", x.Len())
	}

	// Time travel to c1: only three samples.
	old, err := ds.ReadAtVersion(ctx, c1)
	if err != nil {
		t.Fatal(err)
	}
	ox := old.Tensor("x")
	if ox.Len() != 3 {
		t.Fatalf("len at c1 = %d", ox.Len())
	}
	if got := readInt(t, ox, 2); got != 3 {
		t.Fatalf("c1 x[2] = %d", got)
	}
	// c2 sees all five.
	cur, err := ds.ReadAtVersion(ctx, c2)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Tensor("x").Len() != 5 {
		t.Fatalf("len at c2 = %d", cur.Tensor("x").Len())
	}

	// Log newest first.
	log, err := ds.Log()
	if err != nil || len(log) != 2 {
		t.Fatalf("log = %v, %v", log, err)
	}
	if log[0].Message != "five samples" || log[1].Message != "three samples" {
		t.Fatalf("log messages = %q, %q", log[0].Message, log[1].Message)
	}
}

func TestChunksSharedAcrossVersions(t *testing.T) {
	// Committing must not copy chunk data: a new version holds only
	// chunks modified in it (§4.2).
	ctx := context.Background()
	store := storage.NewMemory()
	ds, err := Create(ctx, store, "shared")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, x, 1, 2, 3, 4, 5, 6, 7, 8)
	if _, err := ds.Commit(ctx, "c1"); err != nil {
		t.Fatal(err)
	}
	before := countChunkObjects(t, store)
	if _, err := ds.Commit(ctx, "c2 (no changes)"); err != nil {
		t.Fatal(err)
	}
	after := countChunkObjects(t, store)
	if after != before {
		t.Fatalf("empty commit copied chunks: %d -> %d", before, after)
	}
	// Reads at head still resolve through ancestor chunk sets.
	if got := readInt(t, ds.Tensor("x"), 7); got != 8 {
		t.Fatalf("x[7] = %d", got)
	}
}

func countChunkObjects(t *testing.T, store *storage.Memory) int {
	t.Helper()
	keys, err := store.List(context.Background(), "versions/")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, k := range keys {
		if contains(k, "/chunks/") {
			n++
		}
	}
	return n
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestBranchingIsolation(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, x, 1, 2, 3)
	if _, err := ds.Commit(ctx, "base"); err != nil {
		t.Fatal(err)
	}

	// Fork dev and diverge.
	if err := ds.Checkout(ctx, "dev", true); err != nil {
		t.Fatal(err)
	}
	if ds.Branch() != "dev" {
		t.Fatalf("branch = %q", ds.Branch())
	}
	appendInts(t, ds.Tensor("x"), 100)
	if ds.Tensor("x").Len() != 4 {
		t.Fatalf("dev len = %d", ds.Tensor("x").Len())
	}
	if _, err := ds.Commit(ctx, "dev adds 100"); err != nil {
		t.Fatal(err)
	}

	// Back to main: the append is invisible.
	if err := ds.Checkout(ctx, "main", false); err != nil {
		t.Fatal(err)
	}
	if ds.Tensor("x").Len() != 3 {
		t.Fatalf("main len = %d after dev diverged", ds.Tensor("x").Len())
	}
	// Main keeps evolving independently.
	appendInts(t, ds.Tensor("x"), 42)
	if got := readInt(t, ds.Tensor("x"), 3); got != 42 {
		t.Fatalf("main x[3] = %d", got)
	}

	// Dev still sees its own data.
	if err := ds.Checkout(ctx, "dev", false); err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, ds.Tensor("x"), 3); got != 100 {
		t.Fatalf("dev x[3] = %d", got)
	}
}

func TestDetachedCheckoutIsReadOnly(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
	appendInts(t, x, 1)
	c1, _ := ds.Commit(ctx, "c1")
	if err := ds.Checkout(ctx, c1, false); err != nil {
		t.Fatal(err)
	}
	if ds.Branch() != "" {
		t.Fatalf("branch = %q, want detached", ds.Branch())
	}
	if err := ds.Tensor("x").Append(ctx, tensor.Scalar(tensor.Int32, 9)); err == nil {
		t.Fatal("append on detached head should error")
	}
	if _, err := ds.Commit(ctx, "nope"); err == nil {
		t.Fatal("commit on detached head should error")
	}
	// Re-attach.
	if err := ds.Checkout(ctx, "main", false); err != nil {
		t.Fatal(err)
	}
	if err := ds.Tensor("x").Append(ctx, tensor.Scalar(tensor.Int32, 9)); err != nil {
		t.Fatal(err)
	}
}

func TestInPlaceUpdateCopyOnWrite(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, x, 10, 20, 30, 40)
	c1, err := ds.Commit(ctx, "original")
	if err != nil {
		t.Fatal(err)
	}
	// Update sample 1 post-commit.
	if err := x.SetAt(ctx, 1, tensor.Scalar(tensor.Int32, 99)); err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, x, 1); got != 99 {
		t.Fatalf("x[1] = %d after update", got)
	}
	// The committed snapshot still sees the original value.
	old, err := ds.ReadAtVersion(ctx, c1)
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, old.Tensor("x"), 1); got != 20 {
		t.Fatalf("c1 x[1] = %d, want 20 (copy-on-write violated)", got)
	}
}

func TestUpdateInPendingBuffer(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
	appendInts(t, x, 1, 2, 3) // stays buffered (default 8MB bounds)
	if err := x.SetAt(ctx, 2, tensor.Scalar(tensor.Int32, 33)); err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, x, 2); got != 33 {
		t.Fatalf("buffered update: x[2] = %d", got)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, x, 2); got != 33 {
		t.Fatalf("after flush: x[2] = %d", got)
	}
}

func TestSparseAssignmentPadsWhenNotStrict(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
	if err := x.SetAt(ctx, 5, tensor.Scalar(tensor.Int32, 7)); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 6 {
		t.Fatalf("len = %d after sparse set", x.Len())
	}
	if got := readInt(t, x, 5); got != 7 {
		t.Fatalf("x[5] = %d", got)
	}
	// Padded entries are empty.
	pad, err := x.At(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pad.Len() != 0 {
		t.Fatalf("pad sample has %d elements", pad.Len())
	}

	ds.SetStrict(true)
	if err := x.SetAt(ctx, 50, tensor.Scalar(tensor.Int32, 1)); err == nil {
		t.Fatal("strict mode should reject out-of-bounds assignment")
	}
}

func TestDiffBetweenBranches(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, x, 1, 2, 3)
	ds.Commit(ctx, "base")

	ds.Checkout(ctx, "dev", true)
	appendInts(t, ds.Tensor("x"), 4, 5)
	ds.Tensor("x").SetAt(ctx, 0, tensor.Scalar(tensor.Int32, 11))
	ds.Commit(ctx, "dev changes")

	ds.Checkout(ctx, "main", false)
	appendInts(t, ds.Tensor("x"), 6)

	diff, err := ds.Diff(ctx, "dev", "main")
	if err != nil {
		t.Fatal(err)
	}
	left := diff.Left["x"]
	if left.Added != 2 || !reflect.DeepEqual(left.Updated, []uint64{0}) {
		t.Fatalf("dev diff = %+v", left)
	}
	right := diff.Right["x"]
	if right.Added != 1 || len(right.Updated) != 0 {
		t.Fatalf("main diff = %+v", right)
	}
}

func TestMergeAppendsAndUpdates(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, x, 1, 2, 3)
	ds.Commit(ctx, "base")

	ds.Checkout(ctx, "dev", true)
	appendInts(t, ds.Tensor("x"), 4, 5)
	ds.Tensor("x").SetAt(ctx, 1, tensor.Scalar(tensor.Int32, 22))
	ds.Commit(ctx, "dev work")

	ds.Checkout(ctx, "main", false)
	if err := ds.Merge(ctx, "dev", MergeTheirs); err != nil {
		t.Fatal(err)
	}
	mx := ds.Tensor("x")
	if mx.Len() != 5 {
		t.Fatalf("merged len = %d", mx.Len())
	}
	if got := readInt(t, mx, 3); got != 4 {
		t.Fatalf("merged x[3] = %d", got)
	}
	if got := readInt(t, mx, 1); got != 22 {
		t.Fatalf("merged update x[1] = %d", got)
	}
}

func TestMergeConflictPolicies(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		policy MergePolicy
		want   int
	}{
		{MergeOurs, 200},
		{MergeTheirs, 100},
	} {
		ds, _ := newTestDataset(t)
		x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
		appendInts(t, x, 1, 2, 3)
		ds.Commit(ctx, "base")

		ds.Checkout(ctx, "dev", true)
		ds.Tensor("x").SetAt(ctx, 0, tensor.Scalar(tensor.Int32, 100))
		ds.Commit(ctx, "dev edit")

		ds.Checkout(ctx, "main", false)
		ds.Tensor("x").SetAt(ctx, 0, tensor.Scalar(tensor.Int32, 200))

		if err := ds.Merge(ctx, "dev", tc.policy); err != nil {
			t.Fatal(err)
		}
		if got := readInt(t, ds.Tensor("x"), 0); got != tc.want {
			t.Fatalf("policy %v: x[0] = %d, want %d", tc.policy, got, tc.want)
		}
	}
}

func TestMergeErrors(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	if err := ds.Merge(ctx, "main", MergeOurs); err == nil {
		t.Fatal("self-merge should error")
	}
}

func TestSchemaEvolutionAcrossVersions(t *testing.T) {
	// A tensor added on a branch appears after merge; versions before its
	// creation do not list it (§4.2 schema tracked with version control).
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	ds.CreateTensor(ctx, TensorSpec{Name: "a", Dtype: tensor.Int32})
	appendInts(t, ds.Tensor("a"), 1)
	c1, _ := ds.Commit(ctx, "just a")

	ds.CreateTensor(ctx, TensorSpec{Name: "b", Dtype: tensor.Int32})
	appendInts(t, ds.Tensor("b"), 9)
	ds.Commit(ctx, "added b")

	old, err := ds.ReadAtVersion(ctx, c1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Tensor("b") != nil {
		t.Fatal("tensor b should not exist at c1")
	}
	if got := ds.Tensors(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("tensors at head = %v", got)
	}
}

// TestUpdatedRowsAscendAndSealedListsStayFrozen: the diff lists each updated
// row once, ascending, whatever order SetAt ran in, and an update after a
// Flush leaves the list the Flush sealed as it was.
func TestUpdatedRowsAscendAndSealedListsStayFrozen(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, 0, 1, 2, 3, 4, 5, 6, 7)
	set := func(rows ...uint64) {
		t.Helper()
		for _, r := range rows {
			if err := x.SetAt(ctx, r, tensor.Scalar(tensor.Int32, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	set(6, 2, 4, 2, 0, 7) // five rows: the list has room to spare when sealed
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sealed := x.savedState.Diff.Updated
	if want := []uint64{0, 2, 4, 6, 7}; !reflect.DeepEqual(sealed, want) {
		t.Fatalf("sealed updated rows %v, want %v", sealed, want)
	}
	set(1, 5)
	if want := []uint64{0, 2, 4, 6, 7}; !reflect.DeepEqual(sealed, want) {
		t.Fatalf("updates after the Flush turned its sealed rows into %v", sealed)
	}
	if want := []uint64{0, 1, 2, 4, 5, 6, 7}; !reflect.DeepEqual(x.diff.Updated, want) {
		t.Fatalf("updated rows %v, want %v", x.diff.Updated, want)
	}
}
