package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// lz4Rows builds n rows of an lz4 column "x", row i a 1000-byte run of byte
// i%251 — well compressible, and straddling block edges — in 128 KiB chunks
// of several blocks over store.
func lz4Rows(t *testing.T, store storage.Provider, n int) (*Dataset, *Tensor) {
	t.Helper()
	ctx := context.Background()
	ds, err := Create(ctx, store, "lz4rows")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.UInt8, ChunkCompression: "lz4",
		Bounds: chunk.Bounds{Min: 64 << 10, Target: 128 << 10, Max: 256 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := x.Append(ctx, rowOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds, x
}

func rowOf(i int) *tensor.NDArray {
	arr, _ := tensor.FromBytes(tensor.UInt8, []int{1000}, bytes.Repeat([]byte{byte(i % 251)}, 1000))
	return arr
}

// TestConcurrentFirstTouchInflatesOnce: eight readers walking every row of
// an lz4 column at once, each from its own starting row, through the
// handle's cache over a byte cache, read every row right and inflate each
// block exactly once between them.
func TestConcurrentFirstTouchInflatesOnce(t *testing.T) {
	const n = 300
	ctx := context.Background()
	ds, x := lz4Rows(t, storage.NewLRU(storage.NewMemory(), 64<<20), n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := x.NewScanReader()
			for k := 0; k < n; k++ {
				i := (w*37 + k) % n
				arr, err := r.At(ctx, uint64(i))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(arr.Bytes(), rowOf(i).Bytes()) {
					t.Errorf("row %d reads other bytes", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := ds.ChunkCacheStats()
	if st.Inflated != n*1000 {
		t.Fatalf("%d bytes inflated, want each of the %d decoded bytes once", st.Inflated, n*1000)
	}
	if st.Decodes != int64(x.NumChunks()) {
		t.Fatalf("%d chunk loads for %d chunks", st.Decodes, x.NumChunks())
	}
}

// block1Byte is the offset in lz4 chunk object obj of a byte in the middle
// of its chunk's block 1 as stored: block 1's stored bytes end where its
// table entry says, and start where block 0's entry does.
func block1Byte(t *testing.T, obj []byte) int {
	t.Helper()
	raw, err := compress.LZ4StoredPayload(obj)
	if err != nil {
		t.Fatal(err)
	}
	nb := int(binary.LittleEndian.Uint32(raw[len(raw)-8:]))
	entries := raw[len(raw)-8-8*nb:]
	dataStart := 16 + int(binary.LittleEndian.Uint32(raw[10:]))
	from, to := binary.LittleEndian.Uint32(entries), binary.LittleEndian.Uint32(entries[8:])
	return len(obj) - len(raw) + dataStart + int(from+to)/2
}

// TestCorruptBlockFailsOnlyItsReads: on a chain without Verify, a flipped
// byte inside one compressed block of an lz4 chunk fails the reads of the
// rows that block holds, with an error naming the block and the object,
// and no other read. Each failed read re-fetches the object once, its heal;
// no other read fetches anything.
func TestCorruptBlockFailsOnlyItsReads(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	_, x := lz4Rows(t, mem, 200)
	key := x.ChunkIdentity(0)
	obj, err := mem.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(obj)
	bad[block1Byte(t, obj)] ^= 0x40
	if err := mem.Put(ctx, key, bad); err != nil {
		t.Fatal(err)
	}

	counting := storage.NewCounting(mem)
	back, err := Open(ctx, counting)
	if err != nil {
		t.Fatal(err)
	}
	y := back.Tensor("x")
	counting.Reset()
	// Block 1 holds decoded bytes [bs, 2bs) of the chunk.
	const bs = chunk.CompressedBlockSize
	first, last := y.ChunkSpans()[0].First, y.ChunkSpans()[0].Last
	failed, good := 0, 0
	for i := first; i <= last; i++ {
		lo, hi := (i-first)*1000, (i-first+1)*1000
		touches := lo < 2*bs && hi > bs
		arr, err := y.At(ctx, i)
		switch {
		case touches && (!errors.Is(err, chunk.ErrCorrupt) || !strings.Contains(err.Error(), "block 1 ") || !strings.Contains(err.Error(), key)):
			t.Fatalf("row %d, in the damaged block: At = %v, want ErrCorrupt naming block 1 of %s", i, err, key)
		case touches:
			failed++
		case err != nil:
			t.Fatalf("row %d, outside the damaged block: %v", i, err)
		case !bytes.Equal(arr.Bytes(), rowOf(int(i)).Bytes()):
			t.Fatalf("row %d reads other bytes", i)
		default:
			good++
		}
	}
	if failed == 0 || good == 0 {
		t.Fatalf("%d reads failed and %d passed; the damage shows nothing", failed, good)
	}
	if got := counting.Snapshot().Gets; got != int64(1+failed) {
		t.Fatalf("%d Gets, want the chunk's one and one heal for each of the %d failed reads", got, failed)
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

// TestTransientBlockFlipHeals: on a chain without Verify, a byte cache over
// an origin whose first Get of an lz4 chunk flips a byte in one of its
// compressed blocks. The first read touching that block drops the damaged
// chunk from the handle's cache and its copy from the byte cache, and
// re-fetches it: every row reads right, for exactly one extra request.
func TestTransientBlockFlipHeals(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	_, x := lz4Rows(t, mem, 200)
	key := x.ChunkIdentity(0)
	obj, err := mem.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	counting := storage.NewCounting(mem)
	back, err := Open(ctx, storage.NewLRU(&flipOnce{Provider: counting, key: key, at: block1Byte(t, obj)}, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	y := back.Tensor("x")
	counting.Reset()
	span := y.ChunkSpans()[0]
	for pass := 0; pass < 2; pass++ {
		for i := span.First; i <= span.Last; i++ {
			arr, err := y.At(ctx, i)
			if err != nil {
				t.Fatalf("pass %d, row %d: %v", pass, i, err)
			}
			if !bytes.Equal(arr.Bytes(), rowOf(int(i)).Bytes()) {
				t.Fatalf("pass %d, row %d reads other bytes", pass, i)
			}
		}
	}
	if got := counting.Snapshot().Gets; got != 2 {
		t.Fatalf("%d Gets, want the chunk's one and one heal", got)
	}
	if st := back.ChunkCacheStats(); st.Decodes != 2 {
		t.Fatalf("%d chunk loads, want the damaged one and its heal", st.Decodes)
	}
}

// TestTransientBlockFlipHealsWholeChunkReads: the flip of
// TestTransientBlockFlipHeals met first by a read of a whole chunk — a tiled
// sample's, SetAt's and Rechunk's, each on a handle of its own. Each heals
// it for exactly one extra Get, and every row reads right, on the handle and,
// after a Flush, from what SetAt and Rechunk wrote.
func TestTransientBlockFlipHealsWholeChunkReads(t *testing.T) {
	ctx := context.Background()
	// A 64 KiB sample in 8 KiB tiles of two blocks each.
	tile := func(int) *tensor.NDArray {
		pixels := make([]byte, 256*256)
		for p := range pixels {
			pixels[p] = byte(p / 1000)
		}
		arr, _ := tensor.FromBytes(tensor.UInt8, []int{256, 256}, pixels)
		return arr
	}
	for _, c := range []struct {
		name string
		// build writes x over mem and returns the chunk to damage.
		build func(t *testing.T, mem storage.Provider) uint64
		// run is the whole-chunk read, and gets the Gets it makes of y's
		// chunks with none of them cached, the damaged one's heal included.
		run  func(y *Tensor) error
		gets func(y *Tensor) int64
		// row is what row i holds after run.
		row func(int) *tensor.NDArray
	}{{
		name: "tiled read",
		build: func(t *testing.T, mem storage.Provider) uint64 {
			ds, err := Create(ctx, mem, "tiles")
			if err != nil {
				t.Fatal(err)
			}
			x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.UInt8, ChunkCompression: "lz4",
				Bounds: chunk.Bounds{Min: 4 << 10, Target: 8 << 10, Max: 16 << 10}})
			if err != nil {
				t.Fatal(err)
			}
			if err := x.Append(ctx, tile(0)); err != nil {
				t.Fatal(err)
			}
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			entry, _ := x.tileEnc.Get(0)
			return entry.ChunkIDs[0]
		},
		run: func(y *Tensor) error { _, err := y.At(ctx, 0); return err },
		gets: func(y *Tensor) int64 {
			entry, _ := y.tileEnc.Get(0)
			return int64(len(entry.ChunkIDs)) + 1
		},
		row: tile,
	}, {
		name: "SetAt",
		build: func(t *testing.T, mem storage.Provider) uint64 {
			lz4Rows(t, mem, 200)
			return 0
		},
		run:  func(y *Tensor) error { return y.SetAt(ctx, 0, rowOf(250)) },
		gets: func(*Tensor) int64 { return 2 },
		row: func(i int) *tensor.NDArray {
			if i == 0 {
				return rowOf(250)
			}
			return rowOf(i)
		},
	}, {
		name: "Rechunk",
		build: func(t *testing.T, mem storage.Provider) uint64 {
			lz4Rows(t, mem, 200)
			return 0
		},
		run:  func(y *Tensor) error { return y.Rechunk(ctx) },
		gets: func(y *Tensor) int64 { return int64(y.NumChunks()) + 1 },
		row:  rowOf,
	}} {
		t.Run(c.name, func(t *testing.T) {
			mem := storage.NewMemory()
			id := c.build(t, mem)
			back, err := Open(ctx, mem)
			if err != nil {
				t.Fatal(err)
			}
			key := back.Tensor("x").ChunkIdentity(id)
			obj, err := mem.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			counting := storage.NewCounting(mem)
			ds, err := Open(ctx, storage.NewLRU(&flipOnce{Provider: counting, key: key, at: block1Byte(t, obj)}, 64<<20))
			if err != nil {
				t.Fatal(err)
			}
			y := ds.Tensor("x")
			want := c.gets(y)
			counting.Reset()
			if err := c.run(y); err != nil {
				t.Fatal(err)
			}
			if gets := counting.Snapshot().Gets; gets != want {
				t.Fatalf("%d Gets, want %d: each chunk's one and one heal", gets, want)
			}
			if st := ds.ChunkCacheStats(); st.Decodes != want {
				t.Fatalf("%d chunk loads, want %d: each chunk's, the damaged one's heal included", st.Decodes, want)
			}
			checkEvery(t, y, c.row)
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			fresh, err := Open(ctx, mem)
			if err != nil {
				t.Fatal(err)
			}
			checkEvery(t, fresh.Tensor("x"), c.row)
		})
	}
}

// checkEvery fails unless row i of x holds want(i), for its every row.
func checkEvery(t *testing.T, x *Tensor, want func(i int) *tensor.NDArray) {
	t.Helper()
	for i := 0; i < int(x.Len()); i++ {
		arr, err := x.At(context.Background(), uint64(i))
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !bytes.Equal(arr.Bytes(), want(i).Bytes()) {
			t.Fatalf("row %d reads other bytes", i)
		}
	}
}
