package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// guillotine simulates a writer killed mid-protocol: killAt is asked before
// every mutating op (Put/Delete) — with how many went through so far and the
// key about to be written — whether the writer dies there. A dead writer
// mutates nothing more; everything before the kill landed. Mutations are
// serialized, kill decision included, so under concurrent uploads every op
// either completed before the kill or never reaches storage.
type guillotine struct {
	storage.Provider
	killAt func(ops int, key string) bool
	// published, when set, runs after every root Put that lands.
	published func()

	mu   sync.Mutex
	ops  int
	dead bool
}

// state reports how many mutating ops went through and whether the writer
// was killed.
func (g *guillotine) state() (ops int, dead bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ops, g.dead
}

func (g *guillotine) mutate(key string, op func() error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dead || (g.killAt != nil && g.killAt(g.ops, key)) {
		g.dead = true
		return errors.New("simulated crash: writer killed before " + key)
	}
	g.ops++
	return op()
}

func (g *guillotine) Put(ctx context.Context, key string, data []byte) error {
	return g.mutate(key, func() error {
		if err := g.Provider.Put(ctx, key, data); err != nil {
			return err
		}
		if strings.HasPrefix(key, rootsPrefix) && g.published != nil {
			g.published()
		}
		return nil
	})
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
// integrity work: a writer killed after uploading chunks but before the
// atomic root Put must leave the previous generation fully readable, fsck
// must find only collectable garbage — orphan chunks, nothing missing — and
// repair must bring the dataset back to clean.
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

	// The kill: more rows land chunks, but the root Put fails.
	next := rootKey(ds.gen + 1)
	g.killAt = func(_ int, key string) bool { return key == next }
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

	// fsck: the lost generation's orphan chunks — and NOTHING missing or
	// corrupt.
	rep, err := Fsck(ctx, mem, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck should flag the crashed writer's footprint")
	}
	if countIssues(rep, FsckOrphanChunk) == 0 {
		t.Fatalf("want orphan chunks from the dead generation, got report:\n%s", rep.Format())
	}
	if n := countIssues(rep, FsckMissingChunk) + countIssues(rep, FsckChecksumMismatch) + countIssues(rep, FsckMissingObject); n != 0 {
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

	published := func(t *testing.T, mem *storage.Memory) string {
		t.Helper()
		gen, err := publishedGeneration(ctx, mem)
		if err != nil {
			t.Fatal(err)
		}
		return rootKey(gen)
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

	t.Run("truncated root snapshot", func(t *testing.T) {
		mem := newFlushed(t)
		key := published(t, mem)
		raw, err := mem.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(ctx, key, raw[:len(raw)/2]); err != nil {
			t.Fatal(err)
		}
		_, err = Open(ctx, mem)
		if err == nil || !strings.Contains(err.Error(), "corrupt root snapshot "+key) {
			t.Fatalf("Open = %v, want corrupt root snapshot error naming %s", err, key)
		}
	})

	t.Run("no root left", func(t *testing.T) {
		mem := newFlushed(t)
		keys, err := mem.List(ctx, rootsPrefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if err := mem.Delete(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(ctx, mem); err == nil || !strings.Contains(err.Error(), "no dataset") {
			t.Fatalf("Open = %v, want no dataset reported", err)
		}
		if _, err := Fsck(ctx, mem, FsckOptions{}); err == nil || !strings.Contains(err.Error(), "no dataset") {
			t.Fatalf("Fsck = %v, want no dataset reported", err)
		}
	})

	t.Run("older layout is refused by name", func(t *testing.T) {
		mem := newFlushed(t)
		key := published(t, mem)
		raw, err := mem.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		old := strings.Replace(string(raw), fmt.Sprintf(`"format_version":%d`, FormatVersion), `"format_version":2`, 1)
		if old == string(raw) {
			t.Fatalf("%s carries no format_version: %s", key, raw)
		}
		if err := mem.Put(ctx, key, []byte(old)); err != nil {
			t.Fatal(err)
		}
		_, err = Open(ctx, mem)
		if err == nil || !strings.Contains(err.Error(), key+": unsupported format version 2") {
			t.Fatalf("Open = %v, want format version 2 refused naming %s", err, key)
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

// TestFsckNamesUnboundChunks: a published state whose encoders reference
// chunk ids its chunk_versions binds to no version — rows nothing can read —
// is data loss fsck must name, once per id, by the state object and tensor,
// and never claim to repair.
func TestFsckNamesUnboundChunks(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "unbound")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 60)
	committed, err := ds.Commit(ctx, "first")
	if err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 60, 70)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rep, err := Fsck(ctx, mem, FsckOptions{}); err != nil || len(rep.Issues) != 0 {
		t.Fatalf("fsck before the damage: %v\n%s", err, rep.Format())
	}

	// Drop the committed version's group from the published root: its
	// chunks stay stored and referenced by the commit's own state, but the
	// head no longer says where its first 60 rows live.
	gen := ds.gen
	root, err := loadRoot(ctx, mem, gen)
	if err != nil {
		t.Fatal(err)
	}
	st := root.Tensors["labels"]
	var dropped []uint64
	kept := st.ChunkVersions[:0]
	for _, g := range st.ChunkVersions {
		if g.Version == committed {
			dropped = g.Chunks
			continue
		}
		kept = append(kept, g)
	}
	if len(dropped) < 2 {
		t.Fatalf("committed version binds %d chunks; the damage would mean little", len(dropped))
	}
	st.ChunkVersions = kept
	root.Tensors["labels"] = st
	if err := mem.Put(ctx, rootKey(gen), mustJSON(root)); err != nil {
		t.Fatal(err)
	}

	for _, repair := range []bool{false, true} {
		rep, err := Fsck(ctx, mem, FsckOptions{Repair: repair})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Issues) != len(dropped) || rep.Clean() {
			t.Fatalf("repair=%v: want one issue per unbound chunk (%d), got:\n%s", repair, len(dropped), rep.Format())
		}
		for i, issue := range rep.Issues {
			want := fmt.Sprintf("tensor %q: chunk %d ", "labels", dropped[i])
			if issue.Kind != FsckMissingChunk || issue.Key != rootKey(gen) || !strings.Contains(issue.Detail, want) || issue.Repairable || issue.Repaired {
				t.Fatalf("repair=%v: issue %d = %s, want a non-repairable %s on %s naming %s", repair, i, issue, FsckMissingChunk, rootKey(gen), want)
			}
		}
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

// TestCorruptLZ4SizeHeaderIsACorruptChunk: a stored lz4 chunk whose size
// header claims 2^40 bytes fails to decompress instead of sizing an
// allocation the process cannot survive. The read evicts the chunk, fetches
// it once more, and reports an error wrapping chunk.ErrCorrupt.
func TestCorruptLZ4SizeHeaderIsACorruptChunk(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "lz4header")
	if err != nil {
		t.Fatal(err)
	}
	lbl, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	if lbl.Meta().ChunkCompression != "lz4" {
		t.Fatalf("labels chunk compression = %q, want lz4", lbl.Meta().ChunkCompression)
	}
	appendLabels(t, ds, 0, 40)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	keys, err := mem.List(ctx, "versions/")
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, key := range keys {
		if !strings.Contains(key, "/chunks/") {
			continue
		}
		raw, err := mem.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		_, n := binary.Uvarint(raw[1:])
		bad := append(binary.AppendUvarint([]byte{0x01}, 1<<40), raw[1+n:]...)
		if err := mem.Put(ctx, key, bad); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("no chunk objects to damage")
	}

	counting := storage.NewCounting(mem)
	back, err := Open(ctx, counting)
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()
	_, err = back.Tensor("labels").At(ctx, 0)
	if !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("At over a chunk with a corrupt lz4 size header = %v, want chunk.ErrCorrupt", err)
	}
	if gets := counting.Snapshot().Gets; gets != 2 {
		t.Fatalf("read made %d Gets, want 2: the fetch and one re-fetch", gets)
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
