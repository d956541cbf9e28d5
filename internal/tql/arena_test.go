package tql

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// imageDataset builds n rows of side x side x 3 uint8 "images" whose content
// differs row to row (pixel [1, 2] is black in every third row), a
// "captions" text column, and int "labels".
func imageDataset(t testing.TB, n, side int, bounds chunk.Bounds) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "img")
	if err != nil {
		t.Fatal(err)
	}
	images, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "images", Dtype: tensor.UInt8, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	captions, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "captions", Htype: "text", Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label", Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		img := tensor.MustNew(tensor.UInt8, side, side, 3)
		for j, b := 0, img.Bytes(); j < len(b); j++ {
			b[j] = byte((i*37 + j*5) % 253)
		}
		if i%3 == 0 {
			clear(img.Bytes()[(side+2)*3:][:3])
		}
		if err := images.Append(ctx, img); err != nil {
			t.Fatal(err)
		}
		if err := captions.Append(ctx, tensor.FromString(fmt.Sprintf("cap-%d-%d", (i*5)%7, i))); err != nil {
			t.Fatal(err)
		}
		if err := labels.Append(ctx, tensor.Scalar(tensor.Int32, float64(i%4))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

func parseExprT(t testing.TB, src string) Expr {
	t.Helper()
	q, err := Parse("SELECT " + src + " as out FROM img")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.Selectors[0].Expr
}

func allRows(n int) []uint64 {
	rows := make([]uint64, n)
	for i := range rows {
		rows[i] = uint64(i)
	}
	return rows
}

// TestScanSinksKeepNothingFromTheRowArena enforces eval's ownership rule on
// the real sinks. A scan worker recycles its arena on every row, so a sink
// that kept a row's array (or a string aliasing one) would read the bytes of
// a later row afterwards. Every stage that goes through eval — WHERE, the
// ORDER/GROUP/ARRANGE key batch, SAMPLE BY weights — is compared, at one and
// at several workers, with the same expression evaluated row by row in
// fresh heap-backed envs, which recycle nothing.
func TestScanSinksKeepNothingFromTheRowArena(t *testing.T) {
	ctx := context.Background()
	const n = 90
	ds := imageDataset(t, n, 6, chunk.Bounds{Min: 256, Target: 512, Max: 1024})
	rows := allRows(n)

	heapEval := func(x Expr, row uint64) Value {
		v, err := evalExpr(newEnv(ctx, ds, row), x)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, workers := range []int{1, 4} {
		sc := &scanner{ds: ds, workers: workers}

		for _, src := range []string{
			"MEAN(images) > 120",
			"images[0, 0, 0] > 100",
			"images[1, 2]",             // an array as predicate: truthy when any element is
			"TEXT(captions) > 'cap-3'", // a string built from a row array
		} {
			pred := parseExprT(t, src)
			got, err := sc.filter(ctx, append([]uint64(nil), rows...), pred)
			if err != nil {
				t.Fatalf("workers=%d WHERE %s: %v", workers, src, err)
			}
			var want []uint64
			for _, r := range rows {
				if heapEval(pred, r).IsTruthy() {
					want = append(want, r)
				}
			}
			if len(want) == 0 || len(want) == n {
				t.Fatalf("WHERE %s keeps %d of %d rows: not a discriminating predicate", src, len(want), n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d WHERE %s: scan kept %v, row-by-row heap evaluation %v", workers, src, got, want)
			}
		}

		for _, src := range []string{
			"TEXT(captions)",    // string key copied out of the row's text array
			"images[2, 3, 1]",   // number out of a point index
			"images[0, 0, 0:1]", // one-element array key, reduced by AsNumber
			"L2(images[0])",
		} {
			key := parseExprT(t, src)
			got, err := sc.keys(ctx, rows, key, "ORDER BY")
			if err != nil {
				t.Fatalf("workers=%d key %s: %v", workers, src, err)
			}
			for pos, r := range rows {
				isStr, num, str, err := heapEval(key, r).sortKey()
				if err != nil {
					t.Fatal(err)
				}
				if want := (keyed{isStr, num, str}); got[pos] != want {
					t.Fatalf("workers=%d key %s row %d: scan %+v, heap %+v", workers, src, r, got[pos], want)
				}
			}
		}

		q, err := Parse("SELECT * FROM img SAMPLE BY MAX(images[0]) LIMIT 30")
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := sampleRows(ctx, sc, rows, q)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := sampleRows(ctx, &scanner{ds: ds, workers: 1}, rows, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sampled, serial) {
			t.Fatalf("workers=%d SAMPLE BY differs from the serial scan", workers)
		}
	}

	// What the rule protects against: a sink that does keep the row's array
	// finds it overwritten once the worker has moved on. (This is also the
	// proof that the scan decodes into a recycled arena at all.)
	sc := &scanner{ds: ds, workers: 1}
	images := parseExprT(t, "images")
	kept := make([]*tensor.NDArray, n)
	err := sc.scan(ctx, rows, images, "test", sink{row: func(pos int, _ uint64, v Value) error {
		kept[pos] = v.arr
		if want := heapEval(images, rows[pos]).arr; !v.arr.Equal(want) {
			t.Fatalf("row %d: array differs from the heap decode while the row is current", pos)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for pos, a := range kept[:n-1] {
		if !a.Equal(heapEval(images, rows[pos]).arr) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("arrays kept past their row all survived: the scan env is not recycling its arena")
	}
}

// TestScanMeanAllocs gates what a scan worker allocates per row of a
// MEAN(images) scan inside one chunk — its loop body, reset + evaluate, on
// an env that has loaded the chunk: neither the count nor the bytes may
// depend on how many pixels a row has, i.e. the decode lands in the recycled
// arena and the reduction allocates nothing per element.
func TestScanMeanAllocs(t *testing.T) {
	ctx := context.Background()
	const n, runs = 16, 400
	oneChunk := chunk.Bounds{Min: 1 << 20, Target: 2 << 20, Max: 4 << 20}
	pred := parseExprT(t, "MEAN(images) > 120")
	perRow := func(side int) (allocs, bytes float64) {
		ds := imageDataset(t, n, side, oneChunk)
		if c := ds.Tensor("images").NumChunks(); c != 1 {
			t.Fatalf("side %d: images span %d chunks, want 1", side, c)
		}
		e := (&scanner{ds: ds, workers: 1}).newWorkerEnv(ctx)
		row := uint64(0)
		step := func() {
			e.reset(row % n)
			if _, err := evalExpr(e, pred); err != nil {
				t.Fatal(err)
			}
			row++
		}
		step() // fetch and decode the chunk, take the arena's slab
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallN, smallB := perRow(4)
	largeN, largeB := perRow(64)
	t.Logf("MEAN(images) per row: %.1f allocs / %.0f B at 4x4x3, %.1f allocs / %.0f B at 64x64x3", smallN, smallB, largeN, largeB)
	if largeN > smallN+0.1 || largeB > smallB+64 {
		t.Fatalf("per-row allocation grows with pixel count: %.1f allocs / %.0f B at 4x4x3, %.1f allocs / %.0f B at 64x64x3",
			smallN, smallB, largeN, largeB)
	}
	if largeN > 4 {
		t.Fatalf("MEAN(images) costs %.1f allocs per row, want <= 4", largeN)
	}
}
