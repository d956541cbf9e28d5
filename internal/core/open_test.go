package core

import (
	"context"
	"encoding/base64"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/version"
)

// chunkedInts stores one int32 tensor of n chunks, eight rows each.
func chunkedInts(tb testing.TB, n int) *storage.Memory {
	tb.Helper()
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "ints")
	if err != nil {
		tb.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: chunk.Bounds{Min: 32, Target: 32, Max: 32}})
	if err != nil {
		tb.Fatal(err)
	}
	if err := x.AppendBatch(ctx, tensor.MustNew(tensor.Int32, 8*n)); err != nil {
		tb.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		tb.Fatal(err)
	}
	if got := x.NumChunks(); got != n {
		tb.Fatalf("%d chunks, want %d", got, n)
	}
	return mem
}

// dimgShaped stores a dataset whose root has D_img's shape: raw images,
// lz4 masks, labels and boxes, 84 chunks in all.
func dimgShaped(tb testing.TB) *storage.Memory {
	tb.Helper()
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "dimg")
	if err != nil {
		tb.Fatal(err)
	}
	const rows = 1000
	// 40, 40, 2 and 2 chunks.
	media := chunk.Bounds{Min: 16 << 10, Target: 25 * 768, Max: 24 << 10}
	for _, c := range []struct {
		spec  TensorSpec
		shape []int
	}{
		{TensorSpec{Name: "images", Htype: "image", SampleCompression: "none", Bounds: media}, []int{rows, 16, 16, 3}},
		{TensorSpec{Name: "masks", Dtype: tensor.UInt8, ChunkCompression: "lz4", Bounds: media}, []int{rows, 16, 16, 3}},
		{TensorSpec{Name: "labels", Htype: "class_label", Bounds: chunk.Bounds{Min: 1 << 10, Target: 2 << 10, Max: 4 << 10}}, []int{rows}},
		{TensorSpec{Name: "boxes", Htype: "bbox", Bounds: chunk.Bounds{Min: 16 << 10, Target: 32 << 10, Max: 48 << 10}}, []int{rows, 4, 4}},
	} {
		x, err := ds.CreateTensor(ctx, c.spec)
		if err != nil {
			tb.Fatal(err)
		}
		if err := x.AppendBatch(ctx, tensor.MustNew(x.Dtype(), c.shape...)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		tb.Fatal(err)
	}
	total := 0
	for _, name := range ds.order {
		total += ds.tensors[name].NumChunks()
	}
	if total != 84 {
		tb.Fatalf("%d chunks, want 84", total)
	}
	return mem
}

// rootBytes is the size of the published root.
func rootBytes(tb testing.TB, store storage.Provider) int {
	tb.Helper()
	ctx := context.Background()
	gen, err := publishedGeneration(ctx, store)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := store.Get(ctx, rootKey(gen))
	if err != nil {
		tb.Fatal(err)
	}
	return len(raw)
}

// BenchmarkOpen opens a D_img-shaped root and a 2 000-chunk root behind a
// byte LRU, with and without a Verify layer, which is the one case where
// Open builds and seeds every chunk's digest key.
func BenchmarkOpen(b *testing.B) {
	ctx := context.Background()
	for _, d := range []struct {
		name  string
		build func(testing.TB) *storage.Memory
	}{
		{"dimg", dimgShaped},
		{"ints2000", func(tb testing.TB) *storage.Memory { return chunkedInts(tb, 2000) }},
	} {
		mem := d.build(b)
		for _, verify := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/verify=%v", d.name, verify), func(b *testing.B) {
				var inner storage.Provider = mem
				if verify {
					inner = storage.NewVerify(mem, storage.VerifyOptions{})
				}
				chain := storage.NewLRU(inner, 1<<30)
				b.ReportAllocs()
				for range b.N {
					if _, err := Open(ctx, chain); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rootBytes(b, chain)), "root_B")
			})
		}
	}
}

// openSlack is what Open at 2 000 chunks may allocate beyond Open at 100 on
// a chain that takes no digests: the chunk→version map's larger table.
const openSlack = 6

// TestOpenAllocsIndependentOfChunks: Open reads a root's per-chunk runs
// without a per-chunk allocation, so twenty times the chunks costs at most
// the chunk→version map's growth.
func TestOpenAllocsIndependentOfChunks(t *testing.T) {
	ctx := context.Background()
	allocs := func(chunks int) float64 {
		chain := storage.NewLRU(chunkedInts(t, chunks), 1<<30)
		return testing.AllocsPerRun(50, func() {
			if _, err := Open(ctx, chain); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(2000)
	t.Logf("Open allocates %.0f at 100 chunks, %.0f at 2 000", small, large)
	if large > small+openSlack {
		t.Fatalf("Open allocates %.0f at 2 000 chunks against %.0f at 100, want at most %d more", large, small, openSlack)
	}
}

// boundChunks counts the chunks a version's state binds, over all tensors.
func boundChunks(vs versionState) int {
	n := 0
	for _, st := range vs.Tensors {
		for _, g := range st.ChunkVersions {
			n += len(g.Chunks)
		}
	}
	return n
}

// TestDigestCoverage: on a chain with Verify, Open, a Checkout and a
// ReadAtVersion twin seed every bound chunk's digest, and Verify holds
// exactly the recorded one; on a chain without a layer that takes digests
// none is seeded, and the manifest covers the same chunks.
func TestDigestCoverage(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "coverage")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 0, 60)
	commit, err := ds.Commit(ctx, "first")
	if err != nil {
		t.Fatal(err)
	}
	appendLabels(t, ds, 60, 100)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	verify := storage.NewVerify(mem, storage.VerifyOptions{})
	check := func(step string, h *Dataset, seeded bool) IntegrityInfo {
		t.Helper()
		h.mu.RLock()
		vs := h.savedVersionState()
		h.mu.RUnlock()
		want := boundChunks(vs)
		info := h.Integrity()
		if want == 0 || info.ChunksWithChecksum != want {
			t.Fatalf("%s: %d chunks with a checksum, want %d: %+v", step, info.ChunksWithChecksum, want, info)
		}
		if !seeded {
			if info.SeededDigests != 0 {
				t.Fatalf("%s: %d digests seeded on a chain that takes none", step, info.SeededDigests)
			}
			return info
		}
		if info.SeededDigests != want {
			t.Fatalf("%s: %d digests seeded, want %d", step, info.SeededDigests, want)
		}
		for name, st := range vs.Tensors {
			for _, g := range st.ChunkVersions {
				for _, id := range g.Chunks {
					key := chunkKey(g.Version, name, id)
					raw, err := mem.Get(ctx, key)
					if err != nil {
						t.Fatal(err)
					}
					if got, ok := verify.Digest(key); !ok || got != storage.Checksum(raw) {
						t.Fatalf("%s: Verify holds %08x (%v) for %s, want its CRC32C %08x", step, got, ok, key, storage.Checksum(raw))
					}
				}
			}
		}
		return info
	}

	checked := mustOpen(t, storage.NewLRU(verify, 1<<20))
	withVerify := check("Open with Verify", checked, true)
	plain := check("Open without", mustOpen(t, storage.NewLRU(mem, 1<<20)), false)
	if plain.ChunksWithChecksum != withVerify.ChunksWithChecksum {
		t.Fatalf("%d chunks with a checksum without Verify, %d with", plain.ChunksWithChecksum, withVerify.ChunksWithChecksum)
	}
	twin, err := checked.ReadAtVersion(ctx, commit)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadAtVersion twin", twin, true)
	if err := checked.Checkout(ctx, commit, false); err != nil {
		t.Fatal(err)
	}
	check("Checkout", checked, true)
}

// TestSnapshotsKeepTheirDigests: the live manifest appends past every
// snapshot sharing its records and is replaced by a copy otherwise, so a
// seal's snapshot, a twin reading it and a handle opened before a SetAt and
// a Flush keep their generation's digests, and fsck is clean at every step.
func TestSnapshotsKeepTheirDigests(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "aliasing")
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
	assertFsckClean(t, mem)

	type held struct {
		sums, frozen chunkSums
		rows         []int
	}
	var snapshots []held
	hold := func(sums chunkSums, rows []int) {
		snapshots = append(snapshots, held{sums, slices.Clone(sums), slices.Clone(rows)})
	}
	rows := identityInts(120)
	reader := mustOpen(t, mem)
	twin, err := ds.ReadAtVersion(ctx, "main")
	if err != nil {
		t.Fatal(err)
	}
	hold(x.savedState.Sums, rows)
	hold(twin.Tensor("x").sums, rows)
	hold(reader.Tensor("x").sums, rows)

	shared := 0
	for step := range 6 {
		// A SetAt rewrites an earlier chunk under a fresh id, which the
		// live run appends, in place when it has room, and the seal drops
		// the rewritten chunk. On odd steps rows are buffered first in a
		// chunk whose id is allocated, so the seal records it below the
		// rewritten one.
		if step%2 == 1 {
			appendInts(t, x, 1000+step, 2000+step)
			rows = append(rows, 1000+step, 2000+step)
		} else if cap(x.sums)-len(x.sums) >= sumSize {
			shared++
		}
		if err := x.SetAt(ctx, uint64(7*step), tensor.Scalar(tensor.Int32, float64(-step-1))); err != nil {
			t.Fatal(err)
		}
		rows[7*step] = -step - 1
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		assertFsckClean(t, mem)
		for i, h := range snapshots {
			if !slices.Equal(h.sums, h.frozen) {
				t.Fatalf("step %d: snapshot %d's manifest changed under it", step, i)
			}
		}
		if got, want := x.savedState.Sums.len(), x.NumChunks(); got != want {
			t.Fatalf("step %d: the manifest holds %d digests for %d chunks", step, got, want)
		}
		hold(x.savedState.Sums, rows)
	}
	if shared == 0 {
		t.Fatal("no step appended into records a snapshot shares")
	}
	// The handle opened first still reads its generation: the chunks it
	// binds outlive it by the root window only, so read before collecting.
	back := mustOpen(t, mem)
	for i, want := range rows {
		if got := readInt(t, back.Tensor("x"), uint64(i)); got != want {
			t.Fatalf("x[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestPersistedTimesHaveFixedWidth: the same operations under clocks whose
// nanoseconds do and do not end in zeros store roots and state objects of
// equal length, and the times read back as written.
func TestPersistedTimesHaveFixedWidth(t *testing.T) {
	ctx := context.Background()
	build := func(clock time.Time) map[string]int {
		mem := storage.NewMemory()
		ds, err := Create(ctx, mem, "times")
		if err != nil {
			t.Fatal(err)
		}
		ds.now = func() time.Time { return clock }
		ds.meta.CreatedAt = version.Stamp{Time: clock}
		for _, n := range ds.tree.Nodes {
			n.CreatedAt = version.Stamp{Time: clock}
		}
		x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
		if err != nil {
			t.Fatal(err)
		}
		appendInts(t, x, identityInts(40)...)
		if _, err := ds.Commit(ctx, "first"); err != nil {
			t.Fatal(err)
		}
		if err := ds.Checkout(ctx, "dev", true); err != nil {
			t.Fatal(err)
		}
		appendInts(t, ds.Tensor("x"), identityInts(10)...)
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		back := mustOpen(t, mem)
		if !back.meta.CreatedAt.Equal(clock) {
			t.Fatalf("created_at reads back %v, want %v", back.meta.CreatedAt, clock)
		}
		for _, n := range back.tree.Nodes {
			if !n.CreatedAt.Equal(clock) || (n.Committed && !n.CommittedAt.Equal(clock)) {
				t.Fatalf("version %s reads back created %v, committed %v, want %v", n.ID, n.CreatedAt, n.CommittedAt, clock)
			}
		}
		keys, err := mem.List(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		sizes := map[string]int{}
		for _, key := range keys {
			if strings.HasPrefix(key, rootsPrefix) || strings.HasSuffix(key, "/state.json") {
				raw, err := mem.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				sizes[key] = len(raw)
			}
		}
		return sizes
	}
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	want := build(base)
	for _, ns := range []int{100_000_000, 120_000_000, 123_456_789} {
		if got := build(base.Add(time.Duration(ns))); !maps.Equal(got, want) {
			t.Fatalf("objects at +%dns have sizes %v, at +0 %v", ns, got, want)
		}
	}
}

// FuzzTensorState feeds arbitrary bytes to the two run decoders, through
// the parse of a version state. A run either decodes into a well-formed
// manifest and chunk→version map, which marshal back to themselves, or
// fails with an error naming the object; it never panics.
func FuzzTensorState(f *testing.F) {
	mem := chunkedInts(f, 3)
	ctx := context.Background()
	gen, err := publishedGeneration(ctx, mem)
	if err != nil {
		f.Fatal(err)
	}
	root, err := loadRoot(ctx, mem, gen)
	if err != nil {
		f.Fatal(err)
	}
	st := root.Tensors["x"]
	groups, _ := st.ChunkVersions.MarshalText()
	rawGroups, _ := base64.StdEncoding.DecodeString(string(groups))
	f.Add([]byte(st.Sums), rawGroups)
	f.Add([]byte(st.Sums[:sumSize+3]), rawGroups[:len(rawGroups)-1])
	f.Add([]byte(slices.Concat(st.Sums[sumSize:2*sumSize], st.Sums[:sumSize])), slices.Concat(rawGroups, rawGroups))
	f.Fuzz(func(t *testing.T, sums, groups []byte) {
		const key = "versions/v00000001/state.json"
		state := fmt.Sprintf(`{"schema":{"tensors":["x"]},"tensors":{"x":{"chunk_sums":%q,"chunk_version_run":%q}}}`,
			base64.StdEncoding.EncodeToString(sums), base64.StdEncoding.EncodeToString(groups))
		vs, err := parseVersionState(key, []byte(state))
		if err != nil {
			if !strings.Contains(err.Error(), key) {
				t.Fatalf("error does not name %s: %v", key, err)
			}
			return
		}
		st := vs.Tensors["x"]
		if !slices.Equal(st.Sums, sums) {
			t.Fatalf("manifest decodes to %x from %x", []byte(st.Sums), sums)
		}
		for i := 1; i < st.Sums.len(); i++ {
			if st.Sums.id(i) <= st.Sums.id(i-1) {
				t.Fatalf("manifest ids %d then %d accepted", st.Sums.id(i-1), st.Sums.id(i))
			}
		}
		seen := map[uint64]bool{}
		for i, g := range st.ChunkVersions {
			if i > 0 && g.Version <= st.ChunkVersions[i-1].Version {
				t.Fatalf("version %q after %q accepted", g.Version, st.ChunkVersions[i-1].Version)
			}
			for j, id := range g.Chunks {
				if seen[id] || (j > 0 && id <= g.Chunks[j-1]) {
					t.Fatalf("chunk %d of version %q accepted out of order or twice", id, g.Version)
				}
				seen[id] = true
			}
		}
		again, err := parseVersionState(key, mustJSON(vs))
		if err != nil || !slices.Equal(again.Tensors["x"].Sums, st.Sums) || !slices.EqualFunc(again.Tensors["x"].ChunkVersions, st.ChunkVersions,
			func(a, b chunkVersionGroup) bool { return a.Version == b.Version && slices.Equal(a.Chunks, b.Chunks) }) {
			t.Fatalf("state does not marshal back to itself: %v", err)
		}
	})
}

// TestDamagedRunsAreRefusedByName: a truncated, unsorted or duplicate-id
// run in the published root fails Open with an error naming the root.
func TestDamagedRunsAreRefusedByName(t *testing.T) {
	ctx := context.Background()
	mem := chunkedInts(t, 4)
	gen, err := publishedGeneration(ctx, mem)
	if err != nil {
		t.Fatal(err)
	}
	root, err := loadRoot(ctx, mem, gen)
	if err != nil {
		t.Fatal(err)
	}
	st := root.Tensors["x"]
	g := st.ChunkVersions[0]
	for _, c := range []struct {
		name   string
		damage func(st *tensorRootState)
		want   string
	}{
		{"truncated manifest", func(st *tensorRootState) { st.Sums = st.Sums[:len(st.Sums)-1] }, "checksum run"},
		{"unsorted manifest", func(st *tensorRootState) {
			st.Sums = slices.Concat(st.Sums[sumSize:], st.Sums[:sumSize])
		}, "checksum run"},
		{"duplicate manifest id", func(st *tensorRootState) { st.Sums = slices.Concat(st.Sums[:sumSize], st.Sums) }, "checksum run"},
		{"unsorted chunk ids", func(st *tensorRootState) {
			st.ChunkVersions = chunkVersionRun{{g.Version, slices.Concat(g.Chunks[1:], g.Chunks[:1])}}
		}, "chunk version run"},
		{"chunk bound twice", func(st *tensorRootState) {
			st.ChunkVersions = chunkVersionRun{{g.Version, g.Chunks}, {g.Version + "x", g.Chunks[:1]}}
		}, "chunk version run"},
	} {
		damaged := st
		c.damage(&damaged)
		bad := *root
		bad.Tensors = map[string]tensorRootState{"x": damaged}
		if err := mem.Put(ctx, rootKey(gen), mustJSON(bad)); err != nil {
			t.Fatal(err)
		}
		_, err := Open(ctx, mem)
		if err == nil || !strings.Contains(err.Error(), rootKey(gen)) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Open = %v, want a %s error naming %s", c.name, err, c.want, rootKey(gen))
		}
	}
}

// TestFormat4RootIsRefusedByVersion: a root of the previous format, the
// current layout without the schema's tombstones, is refused by its format
// version: a format-4 reader would drop them and reuse a deleted tensor's
// keys.
func TestFormat4RootIsRefusedByVersion(t *testing.T) {
	ctx := context.Background()
	mem := chunkedInts(t, 2)
	gen, err := publishedGeneration(ctx, mem)
	if err != nil {
		t.Fatal(err)
	}
	key := rootKey(gen)
	raw, err := mem.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw), fmt.Sprintf(`"format_version":%d`, FormatVersion), `"format_version":4`, 1)
	if !strings.Contains(old, `"format_version":4`) || strings.Contains(old, `"deleted"`) {
		t.Fatalf("%s is not in the expected shape: %s", key, raw)
	}
	if err := mem.Put(ctx, key, []byte(old)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, mem); err == nil || !strings.Contains(err.Error(), key+": unsupported format version 4") {
		t.Fatalf("Open = %v, want format version 4 refused naming %s", err, key)
	}
}
