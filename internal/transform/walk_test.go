package transform

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/tql"
	"repro/internal/view"
)

// setProcs sets GOMAXPROCS to n until the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// mixedView is a sparse view over a dataset of 120 rows: TQL keeps the rows
// whose ints are not 2 mod 3 and selects an int32 column, an lz4 column, a
// JPEG column and an identity link[image] column, plus a computed column;
// a LinkedColumn resolves the links through a resolver over bucket, which
// holds one 8×8 PNG per row.
func mixedView(t testing.TB, bucket storage.Provider) *view.View {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "mixed")
	if err != nil {
		t.Fatal(err)
	}
	flushOnCleanup(t, ds)
	specs := []core.TensorSpec{
		{Name: "ints", Dtype: tensor.Int32, Bounds: smallBounds},
		{Name: "vecs", Dtype: tensor.Int32, ChunkCompression: "lz4", Bounds: smallBounds},
		{Name: "imgs", Htype: "image", SampleCompression: "jpeg"},
		{Name: "links", Htype: "link[image]"},
	}
	for _, s := range specs {
		if _, err := ds.CreateTensor(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	png, err := compress.SampleByName("png")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		vec := tensor.MustNew(tensor.Int32, 5)
		for j := 0; j < 5; j++ {
			vec.SetAt(float64(100*i+j), j)
		}
		pix, err := png.Encode(noise(7000+i, 8, 8).Bytes(), 8, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := bucket.Put(ctx, fmt.Sprintf("img/%d.png", i), pix); err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{
			ds.Tensor("ints").Append(ctx, tensor.Scalar(tensor.Int32, float64(i))),
			ds.Tensor("vecs").Append(ctx, vec),
			ds.Tensor("imgs").Append(ctx, noise(i, 16, 16)),
			ds.Tensor("links").AppendLink(ctx, fmt.Sprintf("sim://ext/img/%d.png", i)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	q, err := tql.Run(ctx, ds, "SELECT ints, vecs, imgs, links, ints * 3 + 1 AS tripled FROM mixed WHERE MEAN(vecs) % 3 != 1")
	if err != nil {
		t.Fatal(err)
	}
	cols := append(q.Columns()[:len(q.Columns()):len(q.Columns())], view.LinkedColumn("resolved", ds.Tensor("links"), resolverOver(bucket)))
	return view.New(ds, q.Indices(), cols)
}

// layoutHash hashes every chunk object's key and bytes in store, in key
// order, and each of out's tensors' metadata. Roots and version states carry
// timestamps and are left out.
func layoutHash(t *testing.T, store storage.Provider, out *core.Dataset) string {
	t.Helper()
	ctx := context.Background()
	keys, err := store.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	h := sha256.New()
	chunks := 0
	for _, k := range keys {
		if !strings.Contains(k, "/chunks/") {
			continue
		}
		b, err := store.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", k, len(b))
		h.Write(b)
		chunks++
	}
	if chunks < 10 {
		t.Fatalf("only %d chunk objects: the view is too small to pin a layout", chunks)
	}
	for _, name := range out.Tensors() {
		m, err := json.Marshal(out.Tensor(name).Meta())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s\n", name, m)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// materializedLayout is the hash the serial copy loop that Materialize
// replaced (47bc23b) stored for mixedView: the walk stores the same bytes.
const materializedLayout = "271d89d1ed1b22283073d4c2699cbd6a3fbaa1e7e2ff0cd77d74353d3e8259ff"

// TestMaterializeLayoutIdenticalAcrossWorkerCounts: Materialize stores the
// same chunk objects and tensor metadata for a sparse view of stored, lz4,
// JPEG, link, computed and resolved-link columns at 1 and 8 workers, and
// they are the serial loop's.
func TestMaterializeLayoutIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			v := mixedView(t, storage.NewMemory())
			dst := storage.NewMemory()
			out, err := Materialize(context.Background(), v, dst, "")
			if err != nil {
				t.Fatal(err)
			}
			if got := layoutHash(t, dst, out); got != materializedLayout {
				t.Fatalf("layout hash %s, want %s", got, materializedLayout)
			}
		})
	}
}

// pairedGets is a bucket whose Gets wait until two are in flight at once:
// a copy that resolves one link at a time hangs on it.
type pairedGets struct {
	storage.Provider
	mu       sync.Mutex
	inflight int
	paired   chan struct{}
}

func (p *pairedGets) Get(ctx context.Context, key string) ([]byte, error) {
	p.mu.Lock()
	if p.inflight++; p.inflight == 2 {
		close(p.paired)
	}
	p.mu.Unlock()
	select {
	case <-p.paired:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.Provider.Get(ctx, key)
}

// TestMaterializeOverlapsLinkFetches: with two or more workers, Materialize
// resolves links of different rows at once. It hangs until -timeout if
// links are resolved one at a time.
func TestMaterializeOverlapsLinkFetches(t *testing.T) {
	setProcs(t, max(runtime.GOMAXPROCS(0), 2))
	mem := storage.NewMemory()
	v := mixedView(t, mem)
	bucket := &pairedGets{Provider: mem, paired: make(chan struct{})}
	links := view.LinkedColumn("resolved", v.Dataset().Tensor("links"), resolverOver(bucket))
	v = view.New(v.Dataset(), v.Indices(), []view.Column{links})
	out, err := Materialize(context.Background(), v, storage.NewMemory(), "")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Tensor("resolved").Len(); got != uint64(v.Len()) {
		t.Fatalf("%d rows materialized, want %d", got, v.Len())
	}
}

// resolverOver resolves sim://ext URLs through bucket.
func resolverOver(bucket storage.Provider) *view.Resolver {
	r := view.NewResolver()
	r.Register("sim://ext", bucket)
	return r
}

// TestMaterializeFailureCommitsNothing: a computed column that fails at row
// 37 of 100 fails Materialize with the same error at 1 and 8 workers, and
// the destination holds no commit, only the 37 rows before it, flushed.
func TestMaterializeFailureCommitsNothing(t *testing.T) {
	const rows, k = 100, 37
	boom := errors.New("bad row")
	var errs []string
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			ctx := context.Background()
			ds := int32Dataset(t, storage.NewMemory(), rows, smallBounds)
			x := ds.Tensor("x")
			idx := make([]uint64, rows)
			for i := range idx {
				idx[i] = uint64(i)
			}
			v := view.New(ds, idx, []view.Column{
				{Name: "x", Source: "x"},
				{Name: "y", Eval: func(ctx context.Context, row uint64) (*tensor.NDArray, error) {
					if row == k {
						return nil, boom
					}
					arr, err := x.At(ctx, row)
					if err != nil {
						return nil, err
					}
					val, _ := arr.Item()
					return tensor.Scalar(tensor.Float64, val/2), nil
				}},
			})
			dst := storage.NewMemory()
			_, err := Materialize(ctx, v, dst, "")
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			errs = append(errs, err.Error())
			reopened, err := core.Open(ctx, dst)
			if err != nil {
				t.Fatal(err)
			}
			log, err := reopened.Log()
			if err != nil {
				t.Fatal(err)
			}
			if len(log) != 0 {
				t.Fatalf("failed Materialize left %d commits: %v", len(log), log)
			}
			for _, name := range []string{"x", "y"} {
				if got := reopened.Tensor(name).Len(); got != k {
					t.Fatalf("%s holds %d flushed rows, want the %d before the failing one", name, got, k)
				}
			}
		})
	}
	if len(errs) == 2 && errs[0] != errs[1] {
		t.Fatalf("errors differ across worker counts:\n1: %s\n8: %s", errs[0], errs[1])
	}
}
