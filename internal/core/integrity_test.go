package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// guillotine simulates a writer killed mid-protocol: killAt is asked before
// every mutating op (Put/Delete) — with how many went through so far and the
// key about to be written — whether the writer dies there. A dead writer
// mutates nothing more; everything before the kill landed.
type guillotine struct {
	storage.Provider
	killAt func(ops int, key string) bool
	ops    int
	dead   bool
	// published, when set, runs after every dataset.json Put that lands.
	published func()
}

func (g *guillotine) mutate(key string, op func() error) error {
	if g.dead || (g.killAt != nil && g.killAt(g.ops, key)) {
		g.dead = true
		return errors.New("simulated crash: writer killed before " + key)
	}
	g.ops++
	if err := op(); err != nil {
		return err
	}
	if key == datasetMetaKey && g.published != nil {
		g.published()
	}
	return nil
}

func (g *guillotine) Put(ctx context.Context, key string, data []byte) error {
	return g.mutate(key, func() error { return g.Provider.Put(ctx, key, data) })
}

func (g *guillotine) Delete(ctx context.Context, key string) error {
	return g.mutate(key, func() error { return g.Provider.Delete(ctx, key) })
}

func appendLabels(t *testing.T, ds *Dataset, from, to int) {
	t.Helper()
	ctx := context.Background()
	for i := from; i < to; i++ {
		err := ds.Append(ctx, map[string]*tensor.NDArray{
			"labels": tensor.Scalar(tensor.Int32, float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func readLabel(t *testing.T, ds *Dataset, i int) int {
	t.Helper()
	arr, err := ds.Tensor("labels").At(context.Background(), uint64(i))
	if err != nil {
		t.Fatalf("At(%d): %v", i, err)
	}
	v, _ := arr.Item()
	return int(v)
}

func countIssues(rep *FsckReport, kind string) int {
	n := 0
	for _, i := range rep.Issues {
		if i.Kind == kind {
			n++
		}
	}
	return n
}

// TestCrashBetweenFlushAndPublish is the crash-consistency litmus from the
// integrity work: a writer killed after uploading chunks and staging the
// root but before the atomic dataset.json publish must leave the previous
// generation fully readable, fsck must find only collectable garbage —
// the abandoned root and orphan chunks, nothing missing — and repair must
// bring the dataset back to clean.
func TestCrashBetweenFlushAndPublish(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	g := &guillotine{Provider: mem}
	ds, err := Create(ctx, g, "crash")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 40)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// The kill: more rows land chunks and a staged root, but the publish
	// fails.
	g.killAt = func(_ int, key string) bool { return key == datasetMetaKey }
	appendLabels(t, ds, 40, 80)
	if err := ds.Flush(ctx); err == nil {
		t.Fatal("flush through the guillotine should fail")
	}

	// Survivor reopen: the previous generation, fully readable.
	back, err := Open(ctx, mem)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if n := back.NumRows(); n != 40 {
		t.Fatalf("reopened at %d rows, want the 40 of the published generation", n)
	}
	for _, i := range []int{0, 17, 39} {
		if got := readLabel(t, back, i); got != i {
			t.Fatalf("row %d = %d after crash recovery", i, got)
		}
	}
	info := back.Integrity()
	if info.Generation == 0 {
		t.Fatal("expected a published generation")
	}
	if info.AbandonedGeneration != info.Generation+1 {
		t.Fatalf("abandoned generation = %d, want %d", info.AbandonedGeneration, info.Generation+1)
	}

	// fsck: the abandoned root and its orphan chunks — and NOTHING missing
	// or corrupt.
	rep, err := Fsck(ctx, mem, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck should flag the crashed writer's footprint")
	}
	if countIssues(rep, FsckAbandonedRoot) != 1 {
		t.Fatalf("want 1 abandoned root, got report:\n%s", rep.Format())
	}
	if countIssues(rep, FsckOrphanChunk) == 0 {
		t.Fatalf("want orphan chunks from the dead generation, got report:\n%s", rep.Format())
	}
	if n := countIssues(rep, FsckMissingChunk) + countIssues(rep, FsckChecksumMismatch) + countIssues(rep, FsckMissingObject) + countIssues(rep, FsckMissingRoot); n != 0 {
		t.Fatalf("crash must not lose or corrupt published data, got report:\n%s", rep.Format())
	}
	for _, i := range rep.Issues {
		if !i.Repairable {
			t.Fatalf("all crash footprint must be repairable, got %s", i)
		}
	}

	// Repair, then everything is clean and still readable.
	rep, err = Fsck(ctx, mem, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("repair left issues:\n%s", rep.Format())
	}
	rep, err = Fsck(ctx, mem, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || len(rep.Issues) != 0 {
		t.Fatalf("post-repair fsck not clean:\n%s", rep.Format())
	}
	back, err = Open(ctx, mem)
	if err != nil {
		t.Fatal(err)
	}
	if n := back.NumRows(); n != 40 {
		t.Fatalf("post-repair reopen has %d rows", n)
	}
	if info := back.Integrity(); info.AbandonedGeneration != 0 {
		t.Fatalf("abandoned generation still reported after repair: %+v", info)
	}

	// The repaired dataset accepts new writes.
	ds2, err := Open(ctx, mem)
	if err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds2, 40, 50)
	if err := ds2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := ds2.NumRows(); n != 50 {
		t.Fatalf("rows after recovery write = %d", n)
	}
}

// TestOpenRejectsGarbageMetadata covers the "never panic, always actionable"
// contract for broken root objects.
func TestOpenRejectsGarbageMetadata(t *testing.T) {
	ctx := context.Background()

	newFlushed := func(t *testing.T) *storage.Memory {
		mem := storage.NewMemory()
		ds, err := Create(ctx, mem, "garbage")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
			t.Fatal(err)
		}
		appendLabels(t, ds, 0, 10)
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		return mem
	}

	t.Run("garbage dataset.json", func(t *testing.T) {
		mem := newFlushed(t)
		if err := mem.Put(ctx, datasetMetaKey, []byte("{not json")); err != nil {
			t.Fatal(err)
		}
		_, err := Open(ctx, mem)
		if err == nil || !strings.Contains(err.Error(), "corrupt dataset.json") {
			t.Fatalf("Open = %v, want corrupt dataset.json error", err)
		}
	})

	t.Run("truncated dataset.json", func(t *testing.T) {
		mem := newFlushed(t)
		raw, err := mem.Get(ctx, datasetMetaKey)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(ctx, datasetMetaKey, raw[:len(raw)/2]); err != nil {
			t.Fatal(err)
		}
		_, err = Open(ctx, mem)
		if err == nil || !strings.Contains(err.Error(), "corrupt dataset.json") {
			t.Fatalf("Open = %v, want corrupt dataset.json error", err)
		}
	})

	published := func(t *testing.T, mem *storage.Memory) string {
		t.Helper()
		var meta datasetMeta
		raw, err := mem.Get(ctx, datasetMetaKey)
		if err != nil {
			t.Fatal(err)
		}
		if err := unmarshalJSON(raw, &meta); err != nil {
			t.Fatal(err)
		}
		return rootKey(meta.Generation)
	}

	t.Run("garbage root snapshot", func(t *testing.T) {
		mem := newFlushed(t)
		if err := mem.Put(ctx, published(t, mem), []byte("}{")); err != nil {
			t.Fatal(err)
		}
		_, err := Open(ctx, mem)
		if err == nil || !strings.Contains(err.Error(), "corrupt root snapshot") {
			t.Fatalf("Open = %v, want corrupt root snapshot error", err)
		}
		rep, err := Fsck(ctx, mem, FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if countIssues(rep, FsckCorruptObject) == 0 {
			t.Fatalf("fsck should name the corrupt snapshot:\n%s", rep.Format())
		}
	})

	t.Run("root snapshot missing", func(t *testing.T) {
		mem := newFlushed(t)
		key := published(t, mem)
		if err := mem.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
		_, err := Open(ctx, mem)
		if err == nil || !strings.Contains(err.Error(), key) || !storage.IsNotFound(err) {
			t.Fatalf("Open = %v, want a not-found error naming %s", err, key)
		}
		rep, err := Fsck(ctx, mem, FsckOptions{Repair: true})
		if err != nil {
			t.Fatal(err)
		}
		if countIssues(rep, FsckMissingRoot) != 1 || rep.Clean() {
			t.Fatalf("fsck should report the missing root and stay dirty:\n%s", rep.Format())
		}
	})

	t.Run("older layout is refused by name", func(t *testing.T) {
		mem := newFlushed(t)
		raw, err := mem.Get(ctx, datasetMetaKey)
		if err != nil {
			t.Fatal(err)
		}
		old := strings.Replace(string(raw), fmt.Sprintf(`"format_version":%d`, FormatVersion), `"format_version":1`, 1)
		if old == string(raw) {
			t.Fatalf("dataset.json carries no format_version: %s", raw)
		}
		if err := mem.Put(ctx, datasetMetaKey, []byte(old)); err != nil {
			t.Fatal(err)
		}
		_, err = Open(ctx, mem)
		if err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
			t.Fatalf("Open = %v, want the format version refused", err)
		}
	})

	t.Run("garbage version state", func(t *testing.T) {
		mem := storage.NewMemory()
		ds, err := Create(ctx, mem, "garbage")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
			t.Fatal(err)
		}
		appendLabels(t, ds, 0, 10)
		commit, err := ds.Commit(ctx, "first")
		if err != nil {
			t.Fatal(err)
		}
		key := versionStateKey(commit)
		if err := mem.Put(ctx, key, []byte("{not json")); err != nil {
			t.Fatal(err)
		}
		if err := ds.Checkout(ctx, commit, false); err == nil || !strings.Contains(err.Error(), key) {
			t.Fatalf("Checkout = %v, want an error naming %s", err, key)
		}
		if ds.Branch() != "main" || ds.NumRows() != 10 {
			t.Fatalf("failed checkout moved the handle: branch %q, %d rows", ds.Branch(), ds.NumRows())
		}
		rep, err := Fsck(ctx, mem, FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		named := false
		for _, i := range rep.Issues {
			named = named || (i.Kind == FsckCorruptObject && i.Key == key)
		}
		if !named {
			t.Fatalf("fsck should name %s as corrupt:\n%s", key, rep.Format())
		}
	})
}

// TestMissingChunkIsNamedExactly: deleting a manifest-referenced chunk makes
// reads fail with a wrapped error naming the exact object (IsNotFound still
// true through the wrap), and fsck reports that object as missing.
func TestMissingChunkIsNamedExactly(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "missing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 60)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	keys, err := mem.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, k := range keys {
		if strings.Contains(k, "/labels/chunks/") {
			victim = k
			break
		}
	}
	if victim == "" {
		t.Fatal("no chunk key found")
	}
	if err := mem.Delete(ctx, victim); err != nil {
		t.Fatal(err)
	}

	back, err := Open(ctx, mem)
	if err != nil {
		t.Fatalf("Open must survive a missing chunk (reads fail lazily): %v", err)
	}
	var readErr error
	for i := 0; i < 60; i++ {
		if _, err := back.Tensor("labels").At(ctx, uint64(i)); err != nil {
			readErr = err
			break
		}
	}
	if readErr == nil {
		t.Fatal("reading every row should hit the missing chunk")
	}
	if !strings.Contains(readErr.Error(), victim) {
		t.Fatalf("read error %q does not name the missing object %q", readErr, victim)
	}
	if !storage.IsNotFound(readErr) {
		t.Fatalf("wrapped missing-chunk error lost IsNotFound: %v", readErr)
	}

	rep, err := Fsck(ctx, mem, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck cannot repair a missing chunk; report must stay dirty")
	}
	found := false
	for _, i := range rep.Issues {
		if i.Kind == FsckMissingChunk && i.Key == victim {
			found = true
			if i.Repairable || i.Repaired {
				t.Fatalf("missing chunk marked repairable: %s", i)
			}
		}
	}
	if !found {
		t.Fatalf("fsck does not name %q:\n%s", victim, rep.Format())
	}
}

// TestChecksumMismatchDetected: flip one byte of a stored chunk and fsck
// must name it; a reader over a Verify chain must classify the failure as
// corruption.
func TestChecksumMismatchDetected(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "flip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 60)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	keys, err := mem.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, k := range keys {
		if strings.Contains(k, "/labels/chunks/") {
			victim = k
			break
		}
	}
	raw, err := mem.Get(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := mem.Put(ctx, victim, raw); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(ctx, mem, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for _, i := range rep.Issues {
		if i.Kind == FsckChecksumMismatch {
			mismatches++
			if i.Key != victim {
				t.Fatalf("mismatch names %q, want %q", i.Key, victim)
			}
		}
	}
	if mismatches != 1 {
		t.Fatalf("want exactly 1 checksum mismatch:\n%s", rep.Format())
	}

	// A reader over the verifying chain fails with a corruption-classified
	// error (at-rest damage in Memory is permanent, so no heal can succeed).
	verify := storage.NewVerify(mem, storage.VerifyOptions{HealAttempts: 1, QuarantineAfter: -1})
	back, err := Open(ctx, storage.NewLRU(verify, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	info := back.Integrity()
	if info.SeededDigests == 0 || info.ChunksWithChecksum == 0 {
		t.Fatalf("digest seeding at open: %+v", info)
	}
	var readErr error
	for i := 0; i < 60; i++ {
		if _, err := back.Tensor("labels").At(ctx, uint64(i)); err != nil {
			readErr = err
			break
		}
	}
	if readErr == nil {
		t.Fatal("corrupted chunk should fail verified reads")
	}
	if !storage.IsCorrupted(readErr) {
		t.Fatalf("read error not classified corrupted: %v", readErr)
	}
}

// TestSelfHealingReadThroughVerifyChain: transient in-flight corruption is
// healed invisibly — every row reads back clean and the verify layer records
// a detected+repaired pair, at exactly one extra origin request.
func TestSelfHealingReadThroughVerifyChain(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "heal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 120)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	faulty := storage.NewFaulty(mem, storage.FaultConfig{Seed: 7, CorruptRate: 1, MaxFaults: 2})
	faulty.SetArmed(false) // no faults while Open reads metadata and seeds digests
	counting := storage.NewCounting(faulty)
	verify := storage.NewVerify(counting, storage.VerifyOptions{})
	cache := storage.NewLRU(verify, 1<<30)

	back, err := Open(ctx, cache)
	if err != nil {
		t.Fatal(err)
	}
	if info := back.Integrity(); info.SeededDigests == 0 {
		t.Fatalf("no digests seeded: %+v", info)
	}
	counting.Reset()
	faulty.SetArmed(true)
	for i := 0; i < 120; i++ {
		if got := readLabel(t, back, i); got != i {
			t.Fatalf("row %d = %d through corrupting wire", i, got)
		}
	}
	faulty.SetArmed(false)
	vs := verify.Stats()
	fs := faulty.Stats()
	if fs.Corruptions == 0 {
		t.Fatal("fault schedule injected no corruption")
	}
	if vs.Detected != vs.Repaired || vs.Repaired == 0 {
		t.Fatalf("verify stats %+v: every injected corruption must heal", vs)
	}
	stats := cache.Stats()
	if stats.CorruptionsDetected != vs.Detected || stats.CorruptionsRepaired != vs.Repaired {
		t.Fatalf("cache stats do not surface verify counters: %+v", stats)
	}
	// Each corrupted transfer costs exactly one extra origin request: the
	// LRU fetches every chunk once, and every injected corruption adds one
	// heal re-fetch — nothing more.
	chunks := int64(back.Tensor("labels").NumChunks())
	if moved := counting.Snapshot().Requests(); moved != chunks+fs.Corruptions {
		t.Fatalf("origin requests = %d, want %d chunks + %d corruptions", moved, chunks, fs.Corruptions)
	}
}

// TestFsckCleanAcrossVersions: a dataset with commits, branches and multiple
// flushes must produce a clean report — no false positives from the
// multi-version layout.
func TestFsckCleanAcrossVersions(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "versions")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 25)
	if _, err := ds.Commit(ctx, "first"); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 25, 50)
	if err := ds.Checkout(ctx, "side", true); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 50, 60)
	if _, err := ds.Commit(ctx, "side work"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkout(ctx, "main", false); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(ctx, mem, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || len(rep.Issues) != 0 {
		t.Fatalf("healthy multi-version dataset flagged:\n%s", rep.Format())
	}
	if rep.ChunksVerified == 0 {
		t.Fatalf("no chunks verified: %+v", rep)
	}

	// And a reopened handle round-trips through the snapshot path.
	back, err := Open(ctx, mem)
	if err != nil {
		t.Fatal(err)
	}
	if n := back.NumRows(); n != 50 {
		t.Fatalf("main rows = %d, want 50", n)
	}
	if got := fmt.Sprint(back.Integrity().Generation); got == "0" {
		t.Fatal("expected generation-based open")
	}
}
