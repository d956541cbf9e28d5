package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// The delete suite: DeleteTensor retires a tensor's head chunks like any
// update (Tensor.retire), and the schema keeps the deleted tensor's
// NextChunkID as a tombstone, so a tensor recreated under the name by any
// handle writes fresh keys, and a reader on an older generation never reads
// another tensor's bytes.

// TestRecreateOnAnotherHandleTakesFreshKeys: handle A deletes x, handle B
// opens and recreates it, and a reader R that opened before the delete reads
// its own generation's x until the collecting publish (B's CreateTensor),
// then fails with a not-found error naming the collected object: never the
// recreated tensor's bytes, and never a checksum error. Over a plain chain
// and over Verify, where a reused key would read as corruption.
func TestRecreateOnAnotherHandleTakesFreshKeys(t *testing.T) {
	ctx := context.Background()
	chains := map[string]func(*storage.Memory) storage.Provider{
		"memory": func(mem *storage.Memory) storage.Provider { return mem },
		"verify": func(mem *storage.Memory) storage.Provider { return storage.NewVerify(mem, storage.VerifyOptions{}) },
	}
	for name, chain := range chains {
		t.Run(name, func(t *testing.T) {
			mem := storage.NewMemory()
			a, err := Create(ctx, chain(mem), "recreate")
			if err != nil {
				t.Fatal(err)
			}
			x, err := a.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
			if err != nil {
				t.Fatal(err)
			}
			appendInts(t, x, make([]int, 60)...)
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			early, late := mustOpen(t, chain(mem)), mustOpen(t, chain(mem))
			first, next := x.ChunkIdentity(0), x.Meta().NextChunkID

			if err := a.DeleteTensor(ctx, "x"); err != nil {
				t.Fatal(err)
			}
			if got := publishedRoot(t, mem).Schema.Deleted["x"]; got != next {
				t.Fatalf("the delete's root records x's tombstone as %d, want its NextChunkID %d", got, next)
			}
			for i := uint64(0); i < 60; i++ {
				if got := readInt(t, early.Tensor("x"), i); got != 0 {
					t.Fatalf("R reads x[%d] = %d after the delete, want 0", i, got)
				}
			}

			b := mustOpen(t, chain(mem))
			if b.Tensor("x") != nil {
				t.Fatal("B opened with the deleted tensor")
			}
			bx, err := b.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
			if err != nil {
				t.Fatal(err)
			}
			if got := bx.Meta().NextChunkID; got != next {
				t.Fatalf("the recreated x starts at chunk %d, want past the tombstone at %d", got, next)
			}
			if _, ok := publishedRoot(t, mem).Schema.Deleted["x"]; ok {
				t.Fatal("the recreate's root still holds x's tombstone")
			}
			appendInts(t, bx, 1000)
			appendInts(t, bx, make([]int, 59)...)
			if err := b.Flush(ctx); err != nil {
				t.Fatal(err)
			}

			_, err = late.Tensor("x").At(ctx, 0)
			if !storage.IsNotFound(err) || !strings.Contains(err.Error(), first) {
				t.Fatalf("R reads x[0] after the collecting publish: %v, want a not-found error naming %s", err, first)
			}
			if got := readInt(t, mustOpen(t, chain(mem)).Tensor("x"), 0); got != 1000 {
				t.Fatalf("a fresh handle reads the recreated x[0] = %d, want 1000", got)
			}
			assertFsckClean(t, mem)
		})
	}
}

// TestReadersAcrossTheRootWindowOfADelete opens readers at every generation
// of a script that deletes a tensor and recreates it on a second handle, and
// checks one of each generation's readers after every step. A reader on a
// generation still in the root window reads exactly that generation's rows;
// one the window has left reads them or fails with a not-found error. Each
// reader reads once, so no handle cache hides a collected object.
func TestReadersAcrossTheRootWindowOfADelete(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	g := &guillotine{Provider: mem}
	var w, b *Dataset
	steps := []struct {
		name string
		run  func() error
	}{
		{"flush", func() error { return w.Flush(ctx) }},
		{"delete", func() error { return w.DeleteTensor(ctx, "x") }},
		{"flush after the delete", func() error { return w.Flush(ctx) }},
		{"recreate on a second handle", func() error {
			b = mustOpen(t, g)
			x, err := b.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
			if err != nil {
				return err
			}
			for i := range 60 {
				appendInts(t, x, 1000+i)
			}
			return nil
		}},
		{"flush the recreated tensor", func() error { return b.Flush(ctx) }},
		{"flush again", func() error { return b.Flush(ctx) }},
	}

	// At every root that lands: the rows a reference handle reads, and one
	// unread reader per step.
	type generation struct {
		rows    map[string][]int
		readers []*Dataset
	}
	gens := map[uint64]*generation{}
	g.published = func() {
		ref := mustOpen(t, mem)
		gen := &generation{rows: map[string][]int{}}
		for _, name := range ref.AllTensors() {
			tr := ref.Tensor(name)
			for i := uint64(0); i < tr.Len(); i++ {
				gen.rows[name] = append(gen.rows[name], readInt(t, tr, i))
			}
		}
		for range steps {
			gen.readers = append(gen.readers, mustOpen(t, mem))
		}
		gens[ref.Integrity().Generation] = gen
	}
	check := func(step string) {
		published, err := publishedGeneration(ctx, mem)
		if err != nil {
			t.Fatal(err)
		}
		for gen, want := range gens {
			r := want.readers[0]
			want.readers = want.readers[1:]
			inWindow := gen+1 >= published
			for name, rows := range want.rows {
				for i, v := range rows {
					arr, err := r.Tensor(name).At(ctx, uint64(i))
					if err != nil {
						if inWindow || !storage.IsNotFound(err) {
							t.Fatalf("%s: a reader on generation %d (published %d) reads %s[%d]: %v", step, gen, published, name, i, err)
						}
						continue
					}
					if got, _ := arr.Item(); int(got) != v {
						t.Fatalf("%s: a reader on generation %d (published %d) reads %s[%d] = %v, want %d", step, gen, published, name, i, got, v)
					}
				}
			}
		}
	}

	var err error
	if w, err = Create(ctx, g, "window"); err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]int{"a": 0, "x": 100} {
		tr, err := w.CreateTensor(ctx, TensorSpec{Name: name, Dtype: tensor.Int32, Bounds: smallBounds})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 60 {
			appendInts(t, tr, base+i)
		}
	}
	for _, step := range steps {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check(step.name)
	}
	assertFsckClean(t, mem)
}

// TestFsckAfterDeletingALargeTensor: the root DeleteTensor publishes lists
// every published head chunk of the tensor as superseded, 55 bytes each for
// a one-letter name, and the next root drops them. fsck on the delete's root
// counts none of them as orphans, and finds nothing.
func TestFsckAfterDeletingALargeTensor(t *testing.T) {
	ctx := context.Background()
	const chunks = 1000
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "large")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	for x.NumChunks() < chunks {
		appendInts(t, x, make([]int, 32)...)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	rootBytes := func() int {
		raw, err := mem.Get(ctx, rootKey(ds.gen))
		if err != nil {
			t.Fatal(err)
		}
		return len(raw)
	}
	before := rootBytes()
	stored, _ := headChunks(t, mem)
	if err := ds.DeleteTensor(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	deleted := rootBytes()
	if superseded := publishedRoot(t, mem).Superseded; !slices.Equal(superseded, stored) {
		t.Fatalf("the delete's root lists %d chunks as superseded, want the %d stored", len(superseded), len(stored))
	}
	rep, err := Fsck(ctx, mem, FsckOptions{})
	if err != nil || len(rep.Issues) != 0 {
		t.Fatalf("fsck on the delete's root: %v\n%s", err, rep.Format())
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d chunks: root %d B before the delete, %d B at it, %d B after the next publish", len(stored), before, deleted, rootBytes())
	if stored, _ := headChunks(t, mem); len(stored) != 0 {
		t.Fatalf("%d chunks of the deleted tensor survived the next publish", len(stored))
	}
	assertFsckClean(t, mem)
}

// TestDeleteRollbackKeepsUnflushedChunks: chunks sealed since the last Flush
// are in no root. A DeleteTensor whose publish fails leaves the tensor naming
// them, so nothing may delete them: the next Flush publishes every row.
func TestDeleteRollbackKeepsUnflushedChunks(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	f := &failOnce{Provider: mem, match: rootsPrefix}
	ds, err := Create(ctx, f, "rollback")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, identityInts(60)...)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, identityInts(120)[60:]...)
	f.armed.Store(true)
	if err := ds.DeleteTensor(ctx, "x"); err == nil {
		t.Fatal("DeleteTensor through a failing root Put succeeded")
	}
	for range 2 {
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	back := mustOpen(t, mem).Tensor("x")
	for i := uint64(0); i < 120; i++ {
		if got := readInt(t, back, i); got != int(i) {
			t.Fatalf("x[%d] = %d", i, got)
		}
	}
	assertStoredIsBound(t, mem, -1)
	assertFsckClean(t, mem)
}

// TestDeleteOfARecreatedTensorRecordsItsIDs: each delete of a recreated
// tensor records the recreated tensor's NextChunkID, past the tombstone it
// started from.
func TestDeleteOfARecreatedTensorRecordsItsIDs(t *testing.T) {
	ctx := context.Background()
	ds, mem := newTestDataset(t)
	var tombstones []uint64
	for round := range 3 {
		x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
		if err != nil {
			t.Fatal(err)
		}
		appendInts(t, x, make([]int, 40*(round+1))...)
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if err := ds.DeleteTensor(ctx, "x"); err != nil {
			t.Fatal(err)
		}
		tombstones = append(tombstones, publishedRoot(t, mem).Schema.Deleted["x"])
	}
	for i, next := range tombstones {
		if i > 0 && next <= tombstones[i-1] || next == 0 {
			t.Fatalf("tombstones across three delete-recreate rounds: %v, want strictly rising", tombstones)
		}
	}
}

// TestTombstonesRideTheSchema: a tombstone is part of the head's schema, so
// Commit carries it to the new head, a Checkout away and back parks and
// reloads it, and a reopened handle starts a recreated tensor past it.
func TestTombstonesRideTheSchema(t *testing.T) {
	ctx := context.Background()
	ds, mem := newTestDataset(t)
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, make([]int, 40)...)
	if _, err := ds.Commit(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, make([]int, 40)...)
	next := x.Meta().NextChunkID
	if err := ds.DeleteTensor(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Commit(ctx, "x deleted"); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"dev", "main"} {
		if err := ds.Checkout(ctx, ref, ref == "dev"); err != nil {
			t.Fatal(err)
		}
	}
	if got := ds.deleted["x"]; got != next {
		t.Fatalf("after Commit and a Checkout away and back, x's tombstone is %d, want %d", got, next)
	}
	back, err := mustOpen(t, mem).CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Meta().NextChunkID; got != next {
		t.Fatalf("x recreated by a reopened handle starts at chunk %d, want %d", got, next)
	}
}

// TestDeleteTensorDropsItsCachedChunks: the deleted tensor's decoded chunks
// leave the handle's cache with it, as an update's replaced chunks do.
func TestDeleteTensorDropsItsCachedChunks(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, identityInts(120)...)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 120; i++ {
		readInt(t, x, i)
	}
	if n := ds.ChunkCacheStats().Entries; n != x.NumChunks() {
		t.Fatalf("the handle cache holds %d entries, want x's %d chunks", n, x.NumChunks())
	}
	if err := ds.DeleteTensor(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if n := ds.ChunkCacheStats().Entries; n != 0 {
		t.Fatalf("the handle cache holds %d entries of the deleted tensor", n)
	}
}
