package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// The immutable-object suite: a chunk object's name is written once and never
// reused, so a published root's bytes never change, a reader that opened a
// generation keeps reading it until the root window moves past it, and what a
// rewrite supersedes is collected as the root window moves.

// updateScript runs publishScript, then drives the updates through publishes:
// append → Flush → SetAt in a landed head chunk → Flush → SetAt in the same
// chunk → Flush → Rechunk → Flush → SetAt in a chunk an ancestor version owns
// → Flush.
func updateScript(ctx context.Context, store storage.Provider, opts WriteOptions) (*Dataset, error) {
	ds, err := publishScript(ctx, store, opts)
	if err != nil {
		return nil, err
	}
	vals := ds.Tensor("vals")
	n := int(vals.Len())
	set := func(row, v int) func() error {
		return func() error { return vals.SetAt(ctx, uint64(row), tensor.Scalar(tensor.Int64, float64(v))) }
	}
	flush := func() error { return ds.Flush(ctx) }
	steps := []func() error{
		func() error { return appendPairs(ctx, ds, 200, 230) },
		flush,
		set(n+3, 777),
		flush,
		set(n+4, 778),
		flush,
		func() error { return vals.Rechunk(ctx) },
		flush,
		set(3, 779),
		flush,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// TestCrashPointEnumerationUpdates runs the crash enumeration over a script
// of updates: a kill anywhere reopens a published generation with exactly
// its rows, so no update reaches a generation before its root lands.
func TestCrashPointEnumerationUpdates(t *testing.T) {
	t.Run("one-lane", func(t *testing.T) { enumerateCrashPoints(t, updateScript, WriteOptions{FlushWorkers: 1}) })
	t.Run("default-lanes", func(t *testing.T) { enumerateCrashPoints(t, updateScript, WriteOptions{}) })
}

// headChunks lists the chunk objects stored under the published head's
// version directory, and the ones the published root binds there, sorted.
func headChunks(t *testing.T, store storage.Provider) (stored, bound []string) {
	t.Helper()
	root := publishedRoot(t, store)
	for name, st := range root.Tensors {
		for _, g := range st.ChunkVersions {
			if g.Version != root.Head {
				continue
			}
			for _, id := range g.Chunks {
				bound = append(bound, chunkKey(root.Head, name, id))
			}
		}
	}
	keys, err := store.List(context.Background(), versionPrefix(root.Head)+"/tensors/")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if strings.Contains(key, "/chunks/") {
			stored = append(stored, key)
		}
	}
	slices.Sort(stored)
	slices.Sort(bound)
	return stored, bound
}

// assertStoredIsBound fails unless the published head's directory holds
// exactly the chunks its root binds, n of them (n < 0: any number).
func assertStoredIsBound(t *testing.T, store storage.Provider, n int) {
	t.Helper()
	stored, bound := headChunks(t, store)
	if !slices.Equal(stored, bound) || (n >= 0 && len(bound) != n) {
		t.Fatalf("head stores %d chunks and its root binds %d, want the same %d:\nstored %v\nbound  %v", len(stored), len(bound), n, stored, bound)
	}
}

func assertFsckClean(t *testing.T, store storage.Provider) {
	t.Helper()
	if rep, err := Fsck(context.Background(), store, FsckOptions{}); err != nil || len(rep.Issues) != 0 {
		t.Fatalf("fsck: %v\n%s", err, rep.Format())
	}
}

// publishedRoot loads the published root of store.
func publishedRoot(t *testing.T, store storage.Provider) *rootFile {
	t.Helper()
	ctx := context.Background()
	gen, err := publishedGeneration(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	root, err := loadRoot(ctx, store, gen)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// publishedSuperseded is the superseded list of the published root.
func publishedSuperseded(t *testing.T, store storage.Provider) []string {
	t.Helper()
	return publishedRoot(t, store).Superseded
}

// TestReaderKeepsItsGenerationUntilCollected: a handle that opened
// generation g reads g's rows after a writer's SetAt and Flush, because the
// rewrite went to a fresh object and g's stays until the root window moves
// past g. The writer's next publish deletes it: a handle still on g that
// reads the row then gets an error naming the object, never other bytes, and
// the head directory holds exactly what the root binds. A handle that opens
// between the two publishes collects it too.
func TestReaderKeepsItsGenerationUntilCollected(t *testing.T) {
	ctx := context.Background()
	setup := func(t *testing.T) (*storage.Memory, *Dataset, *Tensor) {
		mem := storage.NewMemory()
		ds, err := Create(ctx, mem, "isolation")
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
		return mem, ds, x
	}
	// update runs the writer's SetAt and Flush, and returns the object the
	// published root lists as superseded.
	update := func(t *testing.T, mem *storage.Memory, ds *Dataset, x *Tensor) string {
		if err := x.SetAt(ctx, 5, tensor.Scalar(tensor.Int32, 777)); err != nil {
			t.Fatal(err)
		}
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		superseded := publishedSuperseded(t, mem)
		if len(superseded) != 1 {
			t.Fatalf("the root after one rewrite lists superseded %v, want one object", superseded)
		}
		return superseded[0]
	}

	t.Run("writer collects", func(t *testing.T) {
		mem, ds, x := setup(t)
		early, late := mustOpen(t, mem), mustOpen(t, mem)
		old := update(t, mem, ds, x)
		for i := 0; i < 60; i++ {
			if got := readInt(t, early.Tensor("x"), uint64(i)); got != i {
				t.Fatalf("the handle on the previous generation reads x[%d] = %d, want %d", i, got, i)
			}
		}
		assertFsckClean(t, mem)

		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := late.Tensor("x").At(ctx, 5); err == nil || !strings.Contains(err.Error(), old) {
			t.Fatalf("reading the collected chunk: %v, want an error naming %s", err, old)
		}
		if got := readInt(t, late.Tensor("x"), 59); got != 59 {
			t.Fatalf("x[59] in a chunk no write touched = %d", got)
		}
		if got := readInt(t, ds.Tensor("x"), 5); got != 777 {
			t.Fatalf("the writer reads x[5] = %d, want 777", got)
		}
		assertStoredIsBound(t, mem, -1)
		assertFsckClean(t, mem)
	})

	t.Run("reopened handle collects", func(t *testing.T) {
		mem, ds, x := setup(t)
		old := update(t, mem, ds, x)
		back := mustOpen(t, mem)
		if err := back.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if ok, err := mem.Exists(ctx, old); err != nil || ok {
			t.Fatalf("%s survived the reopened handle's publish (%v)", old, err)
		}
		assertStoredIsBound(t, mem, -1)
		assertFsckClean(t, mem)
		if got := readInt(t, mustOpen(t, mem).Tensor("x"), 5); got != 777 {
			t.Fatalf("x[5] = %d, want 777", got)
		}
	})
}

func identityInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestUpdateCollectionCounts pins what row-by-row updates of one landed
// chunk cost: each SetAt uploads the chunk under a fresh name, so the Flush
// makes one Put per SetAt plus the root, and deletes every intermediate
// object beside the root Put, with the snapshot two generations back. The
// published chunk the first SetAt replaced is listed as superseded, and the
// next Flush deletes it with the next old snapshot.
func TestUpdateCollectionCounts(t *testing.T) {
	ctx := context.Background()
	const rows = 200
	mem := storage.NewMemory()
	counting := storage.NewCounting(mem)
	ds, err := Create(ctx, counting, "counts")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, identityInts(rows)...)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if x.NumChunks() != 1 {
		t.Fatalf("%d chunks, want 1", x.NumChunks())
	}
	counting.Reset()
	for i := 0; i < rows; i++ {
		if err := x.SetAt(ctx, uint64(i), tensor.Scalar(tensor.Int32, float64(-i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Puts != rows+1 || s.Deletes != rows {
		t.Fatalf("%d SetAts and a Flush: %d Puts, %d Deletes, want %d and %d", rows, s.Puts, s.Deletes, rows+1, rows)
	}
	if superseded := publishedSuperseded(t, mem); len(superseded) != 1 {
		t.Fatalf("superseded %v, want the one published chunk", superseded)
	}
	assertFsckClean(t, mem)

	counting.Reset()
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Puts != 1 || s.Deletes != 2 {
		t.Fatalf("the next Flush: %d Puts, %d Deletes, want 1 and 2", s.Puts, s.Deletes)
	}
	assertStoredIsBound(t, mem, 1)
	assertFsckClean(t, mem)
	back := mustOpen(t, mem)
	for i := 0; i < rows; i++ {
		if got := readInt(t, back.Tensor("x"), uint64(i)); got != -i {
			t.Fatalf("x[%d] = %d, want %d", i, got, -i)
		}
	}
}

// TestRechunkLeavesOnlyBoundChunks: Rechunk replaces every chunk, and the
// seal unbinds the replaced ones from the chunk map and the checksum
// manifest, so after the next two publishes the head stores exactly the
// chunks its root binds.
func TestRechunkLeavesOnlyBoundChunks(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "rechunk")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, identityInts(120)...)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	n := x.NumChunks()
	if n != 4 {
		t.Fatalf("%d chunks, want 4", n)
	}
	if err := x.Rechunk(ctx); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	assertStoredIsBound(t, mem, n)
	if sums := x.savedState.Sums.len(); sums != n {
		t.Fatalf("the checksum manifest holds %d digests for %d chunks", sums, n)
	}
	assertFsckClean(t, mem)
	for i := 0; i < 120; i++ {
		if got := readInt(t, mustOpen(t, mem).Tensor("x"), uint64(i)); got != i {
			t.Fatalf("x[%d] = %d", i, got)
		}
	}
}

// TestRetileCollectsEveryOldTile: replacing a tiled row re-tiles it and
// moves the row's chunk-encoder placeholder to the new first tile, so no old
// tile stays bound and every one is collected.
func TestRetileCollectsEveryOldTile(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "retile")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	square := func(base int) *tensor.NDArray {
		vals := make([]float64, 400)
		for i := range vals {
			vals[i] = float64(base + i)
		}
		arr, err := tensor.FromFloat64s(tensor.Int32, []int{20, 20}, vals)
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	appendInts(t, x, 1)
	if err := x.Append(ctx, square(0)); err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, 2)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	before, _ := x.tileEnc.Get(1)
	if len(before.ChunkIDs) < 2 {
		t.Fatalf("the 20×20 row is %d tiles, want several", len(before.ChunkIDs))
	}
	replacement := square(1000)
	if err := x.SetAt(ctx, 1, replacement); err != nil {
		t.Fatal(err)
	}
	after, _ := x.tileEnc.Get(1)
	if id, _, err := x.chunkEnc.Lookup(1); err != nil || id != after.ChunkIDs[0] {
		t.Fatalf("the row's placeholder is chunk %d (%v), want the new first tile %d", id, err, after.ChunkIDs[0])
	}
	for range 2 {
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range before.ChunkIDs {
		if ok, err := mem.Exists(ctx, chunkKey(ds.Version(), "x", id)); err != nil || ok {
			t.Fatalf("old tile %d is still stored (%v)", id, err)
		}
	}
	assertStoredIsBound(t, mem, -1)
	assertFsckClean(t, mem)
	back := mustOpen(t, mem).Tensor("x")
	if got, err := back.At(ctx, 1); err != nil || !got.Equal(replacement) {
		t.Fatalf("the re-tiled row does not read back: %v", err)
	}
	if a, b := readInt(t, back, 0), readInt(t, back, 2); a != 1 || b != 2 {
		t.Fatalf("rows around the tiled one read %d and %d", a, b)
	}
}

// TestChunkNameMatchesPrintf: chunkName is "%016x" of the id, byte for byte.
func TestChunkNameMatchesPrintf(t *testing.T) {
	ids := []uint64{0, 1, 15, 16, 1 << 32, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		ids = append(ids, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, id := range ids {
		if got, want := chunkName(id), fmt.Sprintf("%016x", id); got != want {
			t.Fatalf("chunkName(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestPendingOverflowSealsOnce: a SetAt whose replacement would overflow the
// buffered chunk seals the buffer, replacement included, once under its id:
// one chunk object, one Put.
func TestPendingOverflowSealsOnce(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	counting := storage.NewCounting(mem)
	ds, err := Create(ctx, counting, "overflow")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, identityInts(10)...)
	wide := make([]float64, 60) // 240 bytes: the buffer's 40 grow past Max 256
	for i := range wide {
		wide[i] = float64(i)
	}
	replacement, err := tensor.FromFloat64s(tensor.Int32, []int{60}, wide)
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()
	if err := x.SetAt(ctx, 3, replacement); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if s := counting.Snapshot(); s.Puts != 2 {
		t.Fatalf("SetAt overflowing the buffer, then Flush: %d Puts, want the chunk's and the root's", s.Puts)
	}
	assertStoredIsBound(t, mem, 1)
	back := mustOpen(t, mem).Tensor("x")
	if got, err := back.At(ctx, 3); err != nil || !got.Equal(replacement) {
		t.Fatalf("x[3] does not read back: %v", err)
	}
	if a, b := readInt(t, back, 2), readInt(t, back, 9); a != 2 || b != 9 {
		t.Fatalf("x[2], x[9] = %d, %d", a, b)
	}
}

// TestKeptReaderReadsWhatWasWritten: a ScanReader kept across a SetAt and a
// Rechunk reads the rows written, since both move the rows to fresh chunk
// ids its slot does not hold.
func TestKeptReaderReadsWhatWasWritten(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, identityInts(60)...)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	r := x.NewScanReader()
	read := func(row uint64) int {
		arr, err := r.At(ctx, row)
		if err != nil {
			t.Fatalf("At(%d): %v", row, err)
		}
		v, _ := arr.Item()
		return int(v)
	}
	if got := read(5); got != 5 {
		t.Fatalf("x[5] = %d", got)
	}
	if err := x.SetAt(ctx, 5, tensor.Scalar(tensor.Int32, 777)); err != nil {
		t.Fatal(err)
	}
	if got := read(5); got != 777 {
		t.Fatalf("the kept reader reads x[5] = %d after SetAt, want 777", got)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := x.Rechunk(ctx); err != nil {
		t.Fatal(err)
	}
	if a, b := read(5), read(6); a != 777 || b != 6 {
		t.Fatalf("the kept reader reads x[5], x[6] = %d, %d after Rechunk", a, b)
	}
}
