package tql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// crossCheckRows is the row count of the cross-check dataset; the last
// crossCheckUnflushed rows stay in the write buffer.
const (
	crossCheckRows      = 160
	crossCheckUnflushed = 20
	crossCheckBadRow    = 97 // the one multi-element sample of "bad"
	crossCheckTiledRow  = 53 // the one tiled sample of "tiled"
)

var crossCheckDtypes = []tensor.Dtype{
	tensor.Bool, tensor.UInt8, tensor.UInt16, tensor.UInt32, tensor.UInt64,
	tensor.Int8, tensor.Int16, tensor.Int32, tensor.Int64, tensor.Float32, tensor.Float64,
}

// crossCheckDataset builds one scalar tensor per numeric dtype, lz4 and
// uncompressed chunks alternating and chunk sizes differing per tensor, so
// that no two tensors share chunk boundaries; "bad", whose row 97 holds three
// elements (an error wherever the row path needs a number); and "tiled",
// whose row 53 is tiled. Values include the dtype extremes and, for floats,
// NaN, ±Inf and -0. Some samples are shaped [1] or [1, 1] rather than [].
// The last 20 rows are appended after the Flush and stay in the write buffer.
func crossCheckDataset(t *testing.T, store storage.Provider) *core.Dataset {
	t.Helper()
	ds, _ := crossCheckHandles(t, store)
	return ds
}

// crossCheckHandles is crossCheckDataset, plus reopen, which opens a new
// handle on store and appends the write-buffered rows to it again: the
// writer's rows behind a handle that has read nothing yet.
func crossCheckHandles(t *testing.T, store storage.Provider) (writer *core.Dataset, reopen func() *core.Dataset) {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "xc")
	if err != nil {
		t.Fatal(err)
	}
	type column struct {
		t     *core.Tensor
		dtype tensor.Dtype
	}
	var cols []column
	add := func(name string, d tensor.Dtype, comp string, bounds chunk.Bounds) {
		tt, err := ds.CreateTensor(ctx, core.TensorSpec{Name: name, Dtype: d, ChunkCompression: comp, Bounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, column{tt, d})
	}
	for k, d := range crossCheckDtypes {
		comp := "lz4"
		if k%2 == 1 {
			comp = "none"
		}
		target := 200 + 24*k
		add("t_"+d.String(), d, comp, chunk.Bounds{Min: 100, Target: target, Max: 2 * target})
	}
	add("bad", tensor.Float32, "none", chunk.Bounds{Min: 100, Target: 240, Max: 480})
	add("tiled", tensor.Float64, "lz4", chunk.Bounds{Min: 256, Target: 384, Max: 512})

	rng := rand.New(rand.NewSource(3))
	value := func(d tensor.Dtype) float64 {
		switch r := rng.Intn(20); {
		case r == 0:
			return math.Inf(1) // saturates to the integer maximum
		case r == 1:
			return math.Inf(-1)
		case r == 2 && d.IsFloat():
			return math.NaN()
		case r == 3 && d.IsFloat():
			return math.Copysign(0, -1)
		case r < 8 && d.IsFloat():
			return rng.Float64()*10 - 5
		}
		return float64(rng.Intn(11) - 3)
	}
	type buffered struct {
		name string
		arr  *tensor.NDArray
	}
	var unflushed []buffered
	for i := 0; i < crossCheckRows; i++ {
		if i == crossCheckRows-crossCheckUnflushed {
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range cols {
			shape := [][]int{{}, {}, {}, {1}, {1, 1}}[rng.Intn(5)]
			switch {
			case c.t.Name() == "bad" && i == crossCheckBadRow:
				shape = []int{3}
			case c.t.Name() == "tiled" && i == crossCheckTiledRow:
				shape = []int{100}
			}
			n := 1
			for _, dim := range shape {
				n *= dim
			}
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = value(c.dtype)
			}
			arr, err := tensor.FromFloat64s(c.dtype, shape, vals)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.t.Append(ctx, arr); err != nil {
				t.Fatal(err)
			}
			if i >= crossCheckRows-crossCheckUnflushed {
				unflushed = append(unflushed, buffered{c.t.Name(), arr})
			}
		}
	}
	return ds, func() *core.Dataset {
		h, err := core.Open(ctx, store)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range unflushed {
			if err := h.Tensor(b.name).Append(ctx, b.arr); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
}

// randomChunkExpr draws a TQL expression over every node the chunk-at-a-time
// evaluator compiles. Scalar references avoid "tiled" (its tiled row would be
// a second error row, and which of two failing partitions reports first is a
// race at any worker count); reductions read every tensor.
func randomChunkExpr(rng *rand.Rand, depth int) string {
	scalars := []string{"bad"}
	for _, d := range crossCheckDtypes {
		scalars = append(scalars, "t_"+d.String())
	}
	reduced := append([]string{"tiled"}, scalars...)
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return pick([]string{"0", "1", "2.5", "-3", "100", "0.5"})
		case 1:
			return pick([]string{"TRUE", "FALSE"})
		case 2:
			return pick([]string{"MEAN", "SUM", "MIN", "MAX"}) + "(" + pick(reduced) + ")"
		default:
			return pick(scalars)
		}
	}
	sub := func() string { return randomChunkExpr(rng, depth-1) }
	switch rng.Intn(8) {
	case 0:
		return "(-" + sub() + ")"
	case 1:
		return "(NOT " + sub() + ")"
	case 2:
		return "(" + sub() + " " + pick([]string{"+", "-", "*", "/", "%"}) + " " + sub() + ")"
	case 3:
		return "(" + sub() + " " + pick([]string{"/", "%"}) + " 0)"
	case 4, 5:
		return "(" + sub() + " " + pick([]string{"==", "!=", "<", "<=", ">", ">="}) + " " + sub() + ")"
	default:
		return "(" + sub() + " " + pick([]string{"AND", "OR"}) + " " + sub() + ")"
	}
}

// sameKey is keyed equality with floats compared bit for bit, NaN to NaN.
func sameKey(a, b keyed) bool {
	if math.IsNaN(a.num) || math.IsNaN(b.num) {
		return a.isStr == b.isStr && a.str == b.str && math.IsNaN(a.num) && math.IsNaN(b.num)
	}
	return a.isStr == b.isStr && a.str == b.str && math.Float64bits(a.num) == math.Float64bits(b.num)
}

// TestChunkEvalMatchesTreeWalkerRandomized cross-checks the chunk-at-a-time
// evaluator against the row-at-a-time tree walker (the rowAtATime hook) on
// random expressions over every node it compiles, as a WHERE filter and as a
// sort key, at 1, 2 and 8 workers: the same rows, the same keys bit for bit,
// the same error text naming the same row (at 2 and 8 workers, the same
// outcome), and — for every scan that succeeds — the same storage requests.
// Requests are counted at the origin, each path on a new handle, since a
// handle decodes a chunk once for all its readers (so the sort key reads
// what the filter decoded): at one worker on a handle holding the writer's
// last rows in its write buffer too (crossCheckHandles' reopen); at two and
// eight on a reopened handle under a fresh byte cache, because partitions
// go to whichever worker is free, and without a cache a chunk two workers'
// partitions share is fetched once or twice by that race, for either path.
// The cache is wrapped so it prefetches nothing: a strip still in flight
// when the scan returns would be counted or not by another race. A failed
// scan's count depends on where each path stopped, which is racy across
// workers anyway.
func TestChunkEvalMatchesTreeWalkerRandomized(t *testing.T) {
	ctx := context.Background()
	count := storage.NewCounting(storage.NewMemory())
	writer, reopen := crossCheckHandles(t, count)
	rows := allRows(crossCheckRows)
	flushed := allRows(crossCheckRows - crossCheckUnflushed)
	rng := rand.New(rand.NewSource(17))
	var compiled, failed, succeeded int
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		src := randomChunkExpr(rng, 1+rng.Intn(4))
		x := parseExprT(t, src)
		if p := compileChunk(x); p != nil && p.bind(writer) {
			compiled++
		}
		for _, workers := range []int{1, 2, 8} {
			run := func(rowAtATime bool) (kept []uint64, keys []keyed, ferr, kerr error, reqs int64) {
				var ds *core.Dataset
				rows := rows
				if workers > 1 {
					var err error
					cache := struct{ storage.Provider }{storage.NewShardedLRU(count, 1<<30, 1)}
					if ds, err = core.Open(ctx, cache); err != nil {
						t.Fatal(err)
					}
					rows = flushed
				} else {
					ds = reopen()
				}
				sc := &scanner{ds: ds, workers: workers, rowAtATime: rowAtATime}
				count.Reset()
				kept, ferr = sc.filter(ctx, append([]uint64(nil), rows...), x)
				keys, kerr = sc.keys(ctx, rows, x, "sort key")
				return kept, keys, ferr, kerr, count.Requests()
			}
			kept, keys, ferr, kerr, reqs := run(false)
			wKept, wKeys, wFerr, wKerr, wReqs := run(true)
			where := fmt.Sprintf("workers=%d %s", workers, src)
			// An expression that fails on several rows (% of an array fails
			// on every row) fails in several partitions at once; either path
			// reports the lowest failing partition's error at any worker
			// count.
			sameErr := func(a, b error) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
			if !sameErr(ferr, wFerr) || !sameErr(kerr, wKerr) {
				t.Fatalf("%s: errors differ:\n chunk:  %v / %v\n walker: %v / %v", where, ferr, kerr, wFerr, wKerr)
			}
			if ferr == nil && !reflect.DeepEqual(kept, wKept) {
				t.Fatalf("%s: WHERE keeps %v, walker %v", where, kept, wKept)
			}
			if kerr == nil {
				for pos := range keys {
					if !sameKey(keys[pos], wKeys[pos]) {
						t.Fatalf("%s: key of row %d is %+v, walker %+v", where, pos, keys[pos], wKeys[pos])
					}
				}
			}
			if ferr == nil && kerr == nil {
				succeeded++
				if reqs != wReqs {
					t.Fatalf("%s: %d storage requests, walker %d", where, reqs, wReqs)
				}
			} else {
				failed++
			}
		}
	}
	t.Logf("%d of %d expressions compiled; %d runs succeeded, %d failed alike", compiled, trials, succeeded, failed)
	if compiled < trials*3/4 || succeeded < trials/2 || failed == 0 {
		t.Fatalf("weak cross-check: %d of %d expressions compiled, %d runs succeeded, %d failed", compiled, trials, succeeded, failed)
	}
}

// TestChunkEvalQueriesMatchTreeWalker runs whole queries — filter, order,
// group, arrange and limit stages over the cross-check dataset — both ways.
func TestChunkEvalQueriesMatchTreeWalker(t *testing.T) {
	ctx := context.Background()
	ds := crossCheckDataset(t, storage.NewMemory())
	for _, q := range []string{
		"SELECT * FROM xc WHERE t_int32 < 3 AND MEAN(tiled) > -2 ORDER BY t_float64 DESC LIMIT 40",
		"SELECT * FROM xc WHERE NOT t_bool OR t_uint8 % 2 == 1 GROUP BY t_int16",
		"SELECT * FROM xc WHERE t_float32 / 0 > 0 ARRANGE BY t_uint64 LIMIT 30",
		"SELECT * FROM xc ORDER BY SUM(tiled) + t_int8 * 2",
		"SELECT * FROM xc WHERE bad > 0",
	} {
		for _, workers := range []int{1, 2, 8} {
			got, err := RunWith(ctx, ds, q, Options{Workers: workers})
			want, werr := RunWith(ctx, ds, q, Options{Workers: workers, rowAtATime: true})
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("workers=%d %s: error %v, walker %v", workers, q, err, werr)
			}
			if err == nil && !reflect.DeepEqual(got.Indices(), want.Indices()) {
				t.Fatalf("workers=%d %s: rows %v, walker %v", workers, q, got.Indices(), want.Indices())
			}
		}
	}
	if _, err := RunWith(ctx, ds, "SELECT * FROM xc WHERE bad > 0", Options{}); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("at row %d: tql: array of 3 elements is not a scalar", crossCheckBadRow)) {
		t.Fatalf("multi-element sample: %v", err)
	}
}

// TestScanErrorIsTheOneWorkerError: a query that fails in several partitions
// reports, at any worker count and on either evaluation path, the error a
// 1-worker scan reports, which names the lowest failing row.
func TestScanErrorIsTheOneWorkerError(t *testing.T) {
	ctx := context.Background()
	ds := crossCheckDataset(t, storage.NewMemory())
	for _, q := range []string{
		"SELECT * FROM xc WHERE NOT t_bool OR t_uint8 % 2 == 1",
		"SELECT * FROM xc ORDER BY t_float64 % 3",
	} {
		_, want := RunWith(ctx, ds, q, Options{Workers: 1})
		if want == nil {
			t.Fatalf("%s: no error at 1 worker", q)
		}
		for _, workers := range []int{2, 8} {
			for _, rowAtATime := range []bool{false, true} {
				for run := 0; run < 5; run++ {
					_, err := RunWith(ctx, ds, q, Options{Workers: workers, rowAtATime: rowAtATime})
					if fmt.Sprint(err) != fmt.Sprint(want) {
						t.Fatalf("workers=%d rowAtATime=%v %s:\n got  %v\n want %v", workers, rowAtATime, q, err, want)
					}
				}
			}
		}
	}
}

// TestSortRowsMatchesStableSort checks sortRows against sort.SliceStable
// over numeric, string, -0 and NaN keys, ascending and descending.
func TestSortRowsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		keys := make([]keyed, n)
		for i := range keys {
			switch r := rng.Intn(10); {
			case r == 0 && trial%2 == 0:
				keys[i] = keyed{num: math.NaN()}
			case r == 1:
				keys[i] = keyed{num: math.Copysign(0, -1)}
			case r == 2 && trial%3 == 0:
				keys[i] = keyed{isStr: true, str: fmt.Sprint(rng.Intn(5))}
			default:
				keys[i] = keyed{num: float64(rng.Intn(20))}
			}
		}
		for _, desc := range []bool{false, true} {
			rows := make([]uint64, n)
			for i := range rows {
				rows[i] = uint64(rng.Intn(1000))
			}
			want := append([]uint64(nil), rows...)
			ord := make([]int, n)
			for i := range ord {
				ord[i] = i
			}
			sort.SliceStable(ord, func(i, j int) bool {
				a, b := keys[ord[i]], keys[ord[j]]
				if desc {
					return b.less(a)
				}
				return a.less(b)
			})
			for i, o := range ord {
				want[i] = rows[o]
			}
			sortByKeys(rows, keys, desc, -1)
			if !reflect.DeepEqual(rows, want) {
				t.Fatalf("trial %d desc=%v: %v, stable sort %v", trial, desc, rows, want)
			}
		}
	}
}

// TestExplainNamesChunkAtATimeStages: Explain marks the stages scanner.eval
// may run a chunk at a time — an expression in the subset over rows still in
// stored order — and no other.
func TestExplainNamesChunkAtATimeStages(t *testing.T) {
	q, err := Parse("SELECT * FROM x WHERE SHAPE(images)[0] > 2 AND labels < 100 GROUP BY MEAN(boxes) ORDER BY labels LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	const note = "[chunk-at-a-time over raw numeric tensors]"
	marked := 0
	for _, line := range strings.Split(plan.Explain(), "\n") {
		want := strings.HasPrefix(line, "filter ") || strings.HasPrefix(line, "order by ")
		if strings.Contains(line, note) != want {
			t.Errorf("stage %q: chunk-at-a-time note %v, want %v", line, !want, want)
		}
		if want {
			marked++
		}
	}
	if marked != 2 {
		t.Fatalf("plan has %d filter/order stages, want 2:\n%s", marked, plan.Explain())
	}
}
