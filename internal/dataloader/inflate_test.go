package dataloader

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
)

// maskSide makes a mask of maskSide² bytes, which no block size divides, so
// masks straddle block edges.
const maskSide = 60

// maskDataset builds n rows of one lz4 column, "masks": maskSide² uint8
// masks of a few filled discs, in 64 KiB chunks of many blocks each, behind
// a byte cache (whose bytes the cachecheck build guards against writes).
func maskDataset(t testing.TB, n int) *core.Dataset {
	return maskDatasetOver(t, storage.NewLRU(storage.NewMemory(), 64<<20), n)
}

// maskDatasetOver is maskDataset over store.
func maskDatasetOver(t testing.TB, store storage.Provider, n int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "masks")
	if err != nil {
		t.Fatal(err)
	}
	masks, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "masks", Dtype: tensor.UInt8, ChunkCompression: "lz4",
		Bounds: chunk.Bounds{Min: 32 << 10, Target: 64 << 10, Max: 128 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := masks.Append(ctx, maskOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

// maskOf is row i's mask.
func maskOf(i int) *tensor.NDArray {
	rng := rand.New(rand.NewSource(int64(i)))
	m := tensor.MustNew(tensor.UInt8, maskSide, maskSide)
	for k := 0; k < 3; k++ {
		cx, cy, r := rng.Intn(maskSide), rng.Intn(maskSide), 4+rng.Intn(12)
		for y := 0; y < maskSide; y++ {
			for x := 0; x < maskSide; x++ {
				if (x-cx)*(x-cx)+(y-cy)*(y-cy) < r*r {
					m.Bytes()[y*maskSide+x] = byte(k + 1)
				}
			}
		}
	}
	return m
}

// spannedBytes is the decoded bytes of the compressed blocks rows span: what
// reading exactly those rows inflates.
func spannedBytes(t *testing.T, x *core.Tensor, rows []uint64) int64 {
	t.Helper()
	const bs, size = chunk.CompressedBlockSize, maskSide * maskSide
	spans := map[uint64]core.ChunkSpan{}
	for _, sp := range x.ChunkSpans() {
		spans[sp.ChunkID] = sp
	}
	type block struct{ chunk, b uint64 }
	seen := map[block]bool{}
	var n int64
	for _, row := range rows {
		id, local, err := x.ChunkOf(row)
		if err != nil {
			t.Fatal(err)
		}
		total := (spans[id].Last - spans[id].First + 1) * size
		lo, hi := uint64(local)*size, uint64(local+1)*size
		for b := lo / bs; b <= (hi-1)/bs; b++ {
			if !seen[block{id, b}] {
				seen[block{id, b}] = true
				n += int64(min(bs, total-b*bs))
			}
		}
	}
	return n
}

// checkMasks fails unless the batches deliver each row's mask once, in any
// order.
func checkMasks(t *testing.T, batches []Batch, rows []uint64) {
	t.Helper()
	want := map[string]int{}
	for _, row := range rows {
		want[string(maskOf(int(row)).Bytes())]++
	}
	for _, b := range batches {
		for k, s := range b.Samples {
			m := string(s["masks"].Bytes())
			if want[m] == 0 {
				t.Fatalf("batch %d sample %d is no mask of the rows read, or one read twice", b.Index, k)
			}
			want[m]--
		}
	}
	for _, n := range want {
		if n != 0 {
			t.Fatal("a row's mask was not delivered")
		}
	}
}

// TestShuffledBatchInflatesOnlyItsBlocks: a batch of 32 shuffled rows of an
// lz4 column — a shuffled epoch's first batch — inflates exactly the blocks
// its rows span, each once, not the ≈ 16 blocks of every chunk it touches.
func TestShuffledBatchInflatesOnlyItsBlocks(t *testing.T) {
	ds := maskDataset(t, 400)
	x := ds.Tensor("masks")
	perm := rand.New(rand.NewSource(7)).Perm(400)
	rows := make([]uint64, 32)
	for i := range rows {
		rows[i] = uint64(perm[i])
	}
	l := New(view.New(ds, rows, nil), Options{BatchSize: 32, Workers: 4})
	batches := drain(t, l)
	checkMasks(t, batches, rows)

	want := spannedBytes(t, x, rows)
	st := l.Cache().Stats()
	if st.Inflated != want {
		t.Fatalf("the batch inflated %d bytes, want the %d of the blocks its rows span", st.Inflated, want)
	}
	var touched int64
	for _, sp := range x.ChunkSpans() {
		for _, row := range rows {
			if row >= sp.First && row <= sp.Last {
				touched += int64(sp.Last-sp.First+1) * maskSide * maskSide
				break
			}
		}
	}
	if 2*want > touched {
		t.Fatalf("the blocks its rows span hold %d of the %d bytes of the chunks the batch touches; the test shows nothing", want, touched)
	}
}

// TestEpochInflatesEachBlockOnce: a shuffled epoch over an lz4 column, four
// workers reading rows of one chunk at a time, opens each chunk once and
// inflates each block of it exactly once.
func TestEpochInflatesEachBlockOnce(t *testing.T) {
	const n = 400
	ds := maskDataset(t, n)
	x := ds.Tensor("masks")
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 4, Shuffle: true, Seed: 3})
	delivered := 0
	for _, b := range drain(t, l) {
		delivered += len(b.Samples)
	}
	if delivered != n {
		t.Fatalf("%d samples, want %d", delivered, n)
	}
	st := l.Cache().Stats()
	if st.Inflated != n*maskSide*maskSide {
		t.Fatalf("the epoch inflated %d bytes, want each of the %d decoded bytes once", st.Inflated, n*maskSide*maskSide)
	}
	if st.Decodes != int64(x.NumChunks()) {
		t.Fatalf("%d chunk loads for %d chunks: decodes_per_chunk_epoch is not 1", st.Decodes, x.NumChunks())
	}
}

// flipOnce serves key's first Get with one byte flipped, as a flip on the
// wire would, and every later Get clean.
type flipOnce struct {
	storage.Provider
	key     string
	at      int
	flipped atomic.Bool
}

func (f *flipOnce) Get(ctx context.Context, key string) ([]byte, error) {
	b, err := f.Provider.Get(ctx, key)
	if err != nil || key != f.key || !f.flipped.CompareAndSwap(false, true) {
		return b, err
	}
	b = bytes.Clone(b)
	b[f.at] ^= 0x40
	return b, nil
}

// TestLoaderHealsATransientBlockFlip: a shuffled epoch over an lz4 column
// behind a byte cache and no Verify, whose origin serves one chunk's first
// Get with a byte of its last compressed block flipped. The worker whose
// read finds the block damaged drops the chunk from the NodeCache and its
// copy from the byte cache and fetches it again: the epoch delivers every
// row right, for exactly one extra request and one extra chunk load.
func TestLoaderHealsATransientBlockFlip(t *testing.T) {
	const n = 400
	ctx := context.Background()
	mem := storage.NewMemory()
	x := maskDatasetOver(t, mem, n).Tensor("masks")
	key := x.ChunkIdentity(x.ChunkSpans()[0].ChunkID)
	obj, err := mem.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	// The last stored byte of the last block: the table's per-block
	// entries, block count and seal follow it.
	nb := int(binary.LittleEndian.Uint32(obj[len(obj)-8:]))
	counting := storage.NewCounting(mem)
	ds, err := core.Open(ctx, storage.NewLRU(&flipOnce{Provider: counting, key: key, at: len(obj) - 8 - 8*nb - 4 - 1}, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 4, Shuffle: true, Seed: 3})
	rows := make([]uint64, n)
	for i := range rows {
		rows[i] = uint64(i)
	}
	checkMasks(t, drain(t, l), rows)
	chunks := int64(x.NumChunks())
	if got := counting.Snapshot().Gets; got != chunks+1 {
		t.Fatalf("%d Gets for %d chunks, want one each and one heal", got, chunks)
	}
	if st := l.Cache().Stats(); st.Decodes != chunks+1 {
		t.Fatalf("%d chunk loads for %d chunks, want one each and one heal", st.Decodes, chunks)
	}
}

// TestLoaderHealsAnUncompressedBlockFlip: as TestLoaderHealsATransientBlockFlip,
// over an uncompressed column, whose blocks are checked on first touch
// too. The damaged chunk object opens, and the worker whose read touches
// the flipped block heals it: the epoch delivers every row right, for
// exactly one extra request and one extra chunk load.
func TestLoaderHealsAnUncompressedBlockFlip(t *testing.T) {
	const n = 400
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := core.Create(ctx, mem, "masks")
	if err != nil {
		t.Fatal(err)
	}
	masks, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "masks", Dtype: tensor.UInt8,
		Bounds: chunk.Bounds{Min: 32 << 10, Target: 64 << 10, Max: 128 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := masks.Append(ctx, maskOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	key := masks.ChunkIdentity(masks.ChunkSpans()[0].ChunkID)
	obj, err := mem.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	off, _, _, err := chunk.SampleRange(obj, 5)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(obj)
	bad[off] ^= 0x40
	c, err := chunk.Open(bad)
	if err != nil {
		t.Fatalf("Open = %v; a damaged data block fails only its reads", err)
	}
	if _, err := c.Sample(5); !errors.Is(err, chunk.ErrCorrupt) || !strings.Contains(err.Error(), "block ") {
		t.Fatalf("the damaged sample reads %v, want ErrCorrupt naming its block", err)
	}
	if _, err := c.Sample(c.Len() - 1); err != nil {
		t.Fatalf("a sample outside the damaged block: %v", err)
	}

	counting := storage.NewCounting(mem)
	back, err := core.Open(ctx, storage.NewLRU(&flipOnce{Provider: counting, key: key, at: int(off)}, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()
	l := ForDataset(back, Options{BatchSize: 16, Workers: 4, Shuffle: true, Seed: 3})
	rows := make([]uint64, n)
	for i := range rows {
		rows[i] = uint64(i)
	}
	checkMasks(t, drain(t, l), rows)
	chunks := int64(masks.NumChunks())
	if got := counting.Snapshot().Gets; got != chunks+1 {
		t.Fatalf("%d Gets for %d chunks, want one each and one heal", got, chunks)
	}
	if st := l.Cache().Stats(); st.Decodes != chunks+1 {
		t.Fatalf("%d chunk loads for %d chunks, want one each and one heal", st.Decodes, chunks)
	}
}
