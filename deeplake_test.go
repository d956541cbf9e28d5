package deeplake

// Integration tests exercising the public API end to end: the full ML loop
// of Fig 2 (ingest -> version -> query -> materialize -> stream) across
// storage providers.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

func buildQuickstart(t testing.TB, store Provider, n int) *Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := Create(ctx, store, "it")
	if err != nil {
		t.Fatal(err)
	}
	images, err := ds.CreateTensor(ctx, TensorSpec{Name: "images", Htype: "image"})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label"})
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.ImageSpec{Height: 32, Width: 32, Channels: 3, Seed: 2}
	for i := 0; i < n; i++ {
		if err := images.Append(ctx, spec.Image(i)); err != nil {
			t.Fatal(err)
		}
		if err := labels.Append(ctx, workload.Label(2, i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFullMLLoop(t *testing.T) {
	ctx := context.Background()
	ds := buildQuickstart(t, NewMemoryStore(), 60)

	// Version.
	c1, err := ds.Commit(ctx, "raw data")
	if err != nil {
		t.Fatal(err)
	}

	// Query: class balance.
	v, err := Query(ctx, ds, `SELECT images, labels FROM it WHERE labels < 2 ARRANGE BY labels`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() == 0 || !v.IsSparse() {
		t.Fatalf("view: len=%d sparse=%v", v.Len(), v.IsSparse())
	}

	// Materialize the curated subset.
	out, err := Materialize(ctx, v, NewMemoryStore(), "curated")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != uint64(v.Len()) {
		t.Fatalf("materialized rows = %d, want %d", out.NumRows(), v.Len())
	}

	// Stream the curated set.
	loader := NewDatasetLoader(out, LoaderOptions{BatchSize: 8, Shuffle: true, Workers: 4, Seed: 3})
	rows := 0
	for b := range loader.Batches(ctx) {
		rows += len(b.Samples)
		for _, s := range b.Samples {
			if s["images"].NDim() != 3 {
				t.Fatalf("decoded image rank %d", s["images"].NDim())
			}
		}
	}
	if err := loader.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != v.Len() {
		t.Fatalf("streamed %d rows, want %d", rows, v.Len())
	}

	// Time travel back to the first commit.
	old, err := ds.ReadAtVersion(ctx, c1)
	if err != nil {
		t.Fatal(err)
	}
	if old.NumRows() != 60 {
		t.Fatalf("rows at %s = %d", c1, old.NumRows())
	}
}

func TestPublicAPIOnSimulatedS3(t *testing.T) {
	ctx := context.Background()
	ds := buildQuickstart(t, NewS3SimStore(), 40)
	loader := NewDatasetLoader(ds, LoaderOptions{BatchSize: 8, Workers: 8})
	rows := 0
	for b := range loader.Batches(ctx) {
		rows += len(b.Samples)
	}
	if err := loader.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 40 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestWithCacheExposesShardedStats(t *testing.T) {
	ctx := context.Background()
	s3 := NewS3SimStore()
	buildQuickstart(t, s3, 16)
	cached := WithCache(s3, CacheOptions{Capacity: 1 << 28, Shards: 4})
	ds, err := Open(ctx, cached)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewDatasetLoader(ds, LoaderOptions{BatchSize: 4, Workers: 4})
	rows := 0
	for b := range loader.Batches(ctx) {
		rows += len(b.Samples)
	}
	if err := loader.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 16 {
		t.Fatalf("rows = %d", rows)
	}
	var stats CacheStats = cached.Stats()
	if len(stats.Shards) != 4 {
		t.Fatalf("shard stats = %d entries, want 4", len(stats.Shards))
	}
	if stats.Misses == 0 || stats.UsedBytes == 0 {
		t.Fatalf("stats = %+v, want traffic recorded", stats)
	}
}

func TestLRUCacheChainServesSecondEpoch(t *testing.T) {
	ctx := context.Background()
	s3 := NewS3SimStore()
	buildQuickstart(t, s3, 32)
	cached := WithLRUCache(s3, 1<<28)
	ds, err := Open(ctx, cached)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		loader := NewDatasetLoader(ds, LoaderOptions{BatchSize: 8, Workers: 4})
		rows := 0
		for b := range loader.Batches(ctx) {
			rows += len(b.Samples)
		}
		if err := loader.Err(); err != nil {
			t.Fatal(err)
		}
		if rows != 32 {
			t.Fatalf("epoch %d rows = %d", epoch, rows)
		}
	}
}

func TestQueryWithWorkersMatchesSerial(t *testing.T) {
	ctx := context.Background()
	ds := buildQuickstart(t, NewMemoryStore(), 60)
	const q = `SELECT labels FROM it WHERE MEAN(images) >= 0 AND labels < 3 ORDER BY labels DESC`
	serial, err := QueryWith(ctx, ds, q, QueryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := QueryWith(ctx, ds, q, QueryOptions{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 || serial.Len() != parallel.Len() {
		t.Fatalf("rows: serial %d vs parallel %d", serial.Len(), parallel.Len())
	}
	for i, idx := range serial.Indices() {
		if parallel.Indices()[i] != idx {
			t.Fatalf("row %d: serial %d vs parallel %d", i, idx, parallel.Indices()[i])
		}
	}
}

func TestExplainPublicAPI(t *testing.T) {
	plan, err := Explain(`SELECT images FROM x WHERE SHAPE(images)[0] > 100 LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Fatal("empty plan")
	}
	if _, err := Explain("SELECT FROM nothing"); err == nil {
		t.Fatal("malformed query should error")
	}
}

func TestArrayHelpers(t *testing.T) {
	a, err := FromFloat64s(Float32, []int{2, 2}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := a.Slice(Range{Start: 0, Stop: 1})
	if err != nil || sub.Len() != 2 {
		t.Fatalf("slice = %v, %v", sub, err)
	}
	s := Scalar(Int32, 7)
	if v, _ := s.Item(); v != 7 {
		t.Fatalf("scalar = %v", v)
	}
	txt := FromString("hello")
	if txt.AsString() != "hello" {
		t.Fatal("string round trip")
	}
	if All() != (Range{Start: 0, Stop: End}) {
		t.Fatal("All() range")
	}
	z, err := NewArray(Float64, 3)
	if err != nil || z.Len() != 3 {
		t.Fatalf("NewArray = %v, %v", z, err)
	}
	raw, err := FromBytes(UInt8, []int{2}, []byte{1, 2})
	if err != nil || raw.Len() != 2 {
		t.Fatalf("FromBytes = %v, %v", raw, err)
	}
}

func TestFSStoreEndToEnd(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds := buildQuickstart(t, store, 10)
	if _, err := ds.Commit(ctx, "on disk"); err != nil {
		t.Fatal(err)
	}
	// Reopen from disk.
	store2, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Open(ctx, store2)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 10 {
		t.Fatalf("reopened rows = %d", back.NumRows())
	}
	arr, err := back.Tensor("labels").At(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := workload.Label(2, 3, 4).Item()
	if got, _ := arr.Item(); got != want {
		t.Fatalf("labels[3] = %v, want %v", got, want)
	}
}

func ExampleQuery() {
	ctx := context.Background()
	ds, _ := Create(ctx, NewMemoryStore(), "ex")
	labels, _ := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label"})
	for i := 0; i < 6; i++ {
		labels.Append(ctx, Scalar(Int32, float64(i%2)))
	}
	v, _ := Query(ctx, ds, `SELECT labels FROM ex WHERE labels == 1`)
	fmt.Println(v.Len(), "rows")
	// Output: 3 rows
}

// TestProvisionNodeDerivesCapacities asserts the one-budget contract: the
// RAM cache, decoded-chunk cache, and disk tier built by ProvisionNode get
// exactly the NodeBudget's derived shares, and the provider chain actually
// works end to end.
func TestProvisionNodeDerivesCapacities(t *testing.T) {
	ctx := context.Background()
	budget := NodeBudget{MemoryBytes: 64 << 20, DiskBytes: 8 << 20}
	cache, node, err := ProvisionNode(NewMemoryStore(), t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Capacity(); got != budget.LRUBytes() {
		t.Fatalf("RAM cache capacity = %d, want LRUBytes %d", got, budget.LRUBytes())
	}
	if got := node.Budget(); got != budget.DecodedBytes() {
		t.Fatalf("NodeCache budget = %d, want DecodedBytes %d", got, budget.DecodedBytes())
	}
	if sum := budget.LRUBytes() + budget.DecodedBytes(); sum != budget.MemoryBytes {
		t.Fatalf("memory shares sum to %d, want the full budget %d", sum, budget.MemoryBytes)
	}
	disk, ok := cache.Origin().(*storage.Disk)
	if !ok {
		t.Fatalf("chain below the RAM cache is %T, want the disk tier", cache.Origin())
	}
	if got := disk.Capacity(); got != budget.DiskBytes {
		t.Fatalf("disk tier capacity = %d, want DiskBytes %d", got, budget.DiskBytes)
	}

	// The provisioned chain serves a real dataset, and the loader accepts
	// the provisioned NodeCache.
	ds := buildQuickstart(t, cache, 8)
	l := NewDatasetLoader(ds, LoaderOptions{BatchSize: 4, Cache: node})
	n := 0
	for range l.Batches(ctx) {
		n++
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("batches = %d, want 2", n)
	}

	// Empty cacheDir skips the disk tier.
	flat, _, err := ProvisionNode(NewMemoryStore(), "", NodeBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := flat.Origin().(*storage.Disk); ok {
		t.Fatal("empty cacheDir should not build a disk tier")
	}
	if got := flat.Capacity(); got != int64(DefaultNodeMemoryBytes)*3/8 {
		t.Fatalf("default budget RAM capacity = %d", got)
	}
}
