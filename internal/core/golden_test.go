package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// Golden equivalence suite: the parallel flush pipeline must produce a
// byte-identical dataset to the serial write path — same storage keys, same
// blobs — for every chunk, chunk set, diff, meta, encoder, schema and root
// file, at any flush-worker count. Only the upload ORDER may differ.

// pinClock fixes every timestamp source of a freshly created dataset so two
// builds are bit-comparable.
func pinClock(ds *Dataset) {
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	ds.now = func() time.Time { return fixed }
	ds.meta.CreatedAt = fixed
	for _, n := range ds.tree.Nodes {
		n.CreatedAt = fixed
	}
}

// buildGoldenDataset writes a deterministic mixed workload — multi-chunk
// scalars, batched appends, raw images, a sequence tensor, a link tensor,
// an oversize tiled sample, in-place updates, padding, a commit with
// post-commit appends — through the given write options.
func buildGoldenDataset(t *testing.T, opts WriteOptions) storage.Provider {
	t.Helper()
	store := storage.NewMemory()
	buildGoldenDatasetOn(t, store, opts)
	return store
}

// buildGoldenDatasetOn is buildGoldenDataset writing through the given
// provider, which may wrap the store the caller inspects afterwards.
func buildGoldenDatasetOn(t *testing.T, store storage.Provider, opts WriteOptions) {
	t.Helper()
	ctx := context.Background()
	ds, err := Create(ctx, store, "golden")
	if err != nil {
		t.Fatal(err)
	}
	pinClock(ds)
	if err := ds.SetWriteOptions(opts); err != nil {
		t.Fatal(err)
	}
	vals, err := ds.CreateTensor(ctx, TensorSpec{Name: "vals", Dtype: tensor.Float64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := ds.CreateTensor(ctx, TensorSpec{Name: "imgs", Htype: "generic", Dtype: tensor.UInt8, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ds.CreateTensor(ctx, TensorSpec{Name: "seq", Htype: "sequence[generic]", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	links, err := ds.CreateTensor(ctx, TensorSpec{Name: "links", Htype: "link[image]", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 96; i++ {
		if err := vals.Append(ctx, tensor.Scalar(tensor.Float64, float64(i)*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	// Batched rows through the single-lock batch path.
	bvals := make([]float64, 32*3)
	for i := range bvals {
		bvals[i] = float64(i % 17)
	}
	batch, err := tensor.FromFloat64s(tensor.Float64, []int{32, 3}, bvals)
	if err != nil {
		t.Fatal(err)
	}
	if err := vals.AppendBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	// Small raw images, several per chunk.
	for i := 0; i < 24; i++ {
		pix := make([]byte, 4*4*3)
		for p := range pix {
			pix[p] = byte((i*31 + p) % 251)
		}
		img, err := tensor.FromBytes(tensor.UInt8, []int{4, 4, 3}, pix)
		if err != nil {
			t.Fatal(err)
		}
		if err := imgs.Append(ctx, img); err != nil {
			t.Fatal(err)
		}
	}
	// One oversize raw sample: exercises the tiling path.
	pix := make([]byte, 16*16*3)
	for p := range pix {
		pix[p] = byte(p % 101)
	}
	big, err := tensor.FromBytes(tensor.UInt8, []int{16, 16, 3}, pix)
	if err != nil {
		t.Fatal(err)
	}
	if err := imgs.Append(ctx, big); err != nil {
		t.Fatal(err)
	}
	// Sequence rows and links.
	for i := 0; i < 8; i++ {
		items := []*tensor.NDArray{
			tensor.Scalar(tensor.Int32, float64(i)),
			tensor.Scalar(tensor.Int32, float64(i*2)),
		}
		if err := seq.AppendSequence(ctx, items); err != nil {
			t.Fatal(err)
		}
		if err := links.AppendLink(ctx, fmt.Sprintf("s3://bucket/object-%03d.png", i)); err != nil {
			t.Fatal(err)
		}
	}
	// In-place updates (copy-on-write chunk rewrites under existing ids).
	for _, idx := range []uint64{3, 40, 95} {
		if err := vals.SetAt(ctx, idx, tensor.Scalar(tensor.Float64, float64(idx)+0.25)); err != nil {
			t.Fatal(err)
		}
	}
	// Commit freezes v1; post-commit appends land in the new head.
	if _, err := ds.Commit(ctx, "golden snapshot"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := vals.Append(ctx, tensor.Scalar(tensor.Float64, float64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := vals.PadTo(ctx, 200); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// snapshotKeys lists every stored object key.
func snapshotKeys(t *testing.T, store storage.Provider) []string {
	t.Helper()
	keys, err := store.List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// TestParallelFlushGoldenEquivalence builds the same dataset through the
// serial path, a 1-worker pipeline and a 16-worker pipeline, and asserts the
// stored objects are byte-identical across all three.
func TestParallelFlushGoldenEquivalence(t *testing.T) {
	serial := buildGoldenDataset(t, WriteOptions{})
	serialKeys := snapshotKeys(t, serial)
	if len(serialKeys) == 0 {
		t.Fatal("golden build produced no objects")
	}
	var chunkKeys int
	for _, k := range serialKeys {
		if strings.Contains(k, "/chunks/") {
			chunkKeys++
		}
	}
	if chunkKeys < 10 {
		t.Fatalf("golden build produced only %d chunk objects; workload too small to be meaningful", chunkKeys)
	}

	for _, workers := range []int{1, 16} {
		t.Run(fmt.Sprintf("flushworkers-%d", workers), func(t *testing.T) {
			assertSameObjects(t, serial, buildGoldenDataset(t, WriteOptions{FlushWorkers: workers}))
		})
	}
}

// assertSameObjects fails unless got holds exactly want's keys with
// byte-identical values.
func assertSameObjects(t *testing.T, want, got storage.Provider) {
	t.Helper()
	ctx := context.Background()
	wantKeys, gotKeys := snapshotKeys(t, want), snapshotKeys(t, got)
	if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
		t.Fatalf("stored key sets differ:\nwant: %v\ngot:  %v", wantKeys, gotKeys)
	}
	for _, key := range wantKeys {
		w, err := want.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("object %q differs (%d vs %d bytes)", key, len(w), len(g))
		}
	}
}

// chunkPutFaults fails the first `perKey` Puts of every chunk object with a
// transient error before the store is touched, whatever order the flush
// workers issue them in; every other operation passes through.
type chunkPutFaults struct {
	storage.Provider
	perKey int

	mu     sync.Mutex
	failed map[string]int
}

func (f *chunkPutFaults) Put(ctx context.Context, key string, data []byte) error {
	if strings.Contains(key, "/chunks/") {
		f.mu.Lock()
		n := f.failed[key]
		fail := n < f.perKey
		if fail {
			f.failed[key] = n + 1
		}
		f.mu.Unlock()
		if fail {
			return storage.Transient(fmt.Errorf("injected put fault %d on %q", n+1, key))
		}
	}
	return f.Provider.Put(ctx, key, data)
}

// TestFaultyIngestGoldenEquivalence: uploads that fail transiently and are
// re-attempted under WriteOptions.FlushRetries may land later, never
// differently. Every chunk object's first two Puts fail; the golden workload
// must complete with no error surfacing and leave exactly the objects, byte
// for byte, of the fault-free serial build.
func TestFaultyIngestGoldenEquivalence(t *testing.T) {
	const perKey = 2
	mem := storage.NewMemory()
	faults := &chunkPutFaults{Provider: mem, perKey: perKey, failed: map[string]int{}}
	buildGoldenDatasetOn(t, faults, WriteOptions{
		FlushWorkers: 4, MaxPending: 8, FlushRetries: perKey,
		FlushBackoff: storage.Backoff{Base: time.Microsecond, Max: time.Microsecond, Seed: 1},
	})
	if len(faults.failed) < 10 {
		t.Fatalf("only %d chunk objects met faults; workload too small to be meaningful", len(faults.failed))
	}
	for key, n := range faults.failed {
		if n != perKey {
			t.Fatalf("chunk %q met %d faults, want %d", key, n, perKey)
		}
	}
	assertSameObjects(t, buildGoldenDataset(t, WriteOptions{}), mem)
}
