package tql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Typed column loads, the O(chunks) planner, top-k and the shape-run
// prefilter, each checked against the path it replaces.

const (
	typedRows       = 300
	typedUnflushed  = 25 // the last rows stay in the write buffer
	typedEmptyRow   = 61 // "b_" tensors: an empty sample mid-chunk
	typedMultiRow   = 143
	typedMultiElems = 2 // "b_" tensors: a two-element sample mid-chunk
)

// typedDataset builds, for every dtype, "t_<dtype>", whose samples each hold
// one element (shaped [], [1] or [1, 1]) of random bits — integers of every
// magnitude, past 2^53 for the 64-bit ones, and for floats NaN, ±Inf and −0
// besides — and "b_<dtype>", the same with an empty sample at typedEmptyRow
// and a two-element one at typedMultiRow, which break their chunks' column.
// lz4 and uncompressed chunks alternate by dtype, and chunk sizes differ per
// tensor. The last typedUnflushed rows stay in the write buffer.
func typedDataset(t *testing.T) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "typed")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	type column struct {
		t     *core.Tensor
		dtype tensor.Dtype
		broke bool
	}
	var cols []column
	for k, d := range crossCheckDtypes {
		comp := "lz4"
		if k%2 == 1 {
			comp = "none"
		}
		for _, broke := range []bool{false, true} {
			name := "t_" + d.String()
			target := d.Size() * (40 + 7*k)
			if broke {
				name, target = "b_"+d.String(), d.Size()*(90+5*k)
			}
			tt, err := ds.CreateTensor(ctx, core.TensorSpec{Name: name, Dtype: d, ChunkCompression: comp,
				Bounds: chunk.Bounds{Min: target / 2, Target: target, Max: 2 * target}})
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, column{tt, d, broke})
		}
	}
	element := func(d tensor.Dtype) []byte {
		b := make([]byte, d.Size())
		rng.Read(b)
		switch {
		case d == tensor.Bool:
			b[0] &= 1
		case d.IsFloat() && rng.Intn(4) == 0:
			f := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}[rng.Intn(5)]
			arr := tensor.Scalar(d, f)
			copy(b, arr.Bytes())
		case d.IsInteger() && rng.Intn(3) == 0:
			clear(b[1:]) // small values too, so comparisons with literals go both ways
		}
		return b
	}
	for i := 0; i < typedRows; i++ {
		if i == typedRows-typedUnflushed {
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range cols {
			shape := [][]int{{}, {}, {1}, {1, 1}}[rng.Intn(4)]
			data := element(c.dtype)
			switch {
			case c.broke && i == typedEmptyRow:
				shape, data = []int{0}, nil
			case c.broke && i == typedMultiRow:
				shape, data = []int{typedMultiElems}, append(element(c.dtype), element(c.dtype)...)
			}
			arr, err := tensor.FromBytes(c.dtype, shape, data)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.t.Append(ctx, arr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// TestTypedColumnLoadsMatchTreeWalker checks the typed column loads against
// the row-at-a-time tree walker at 1, 2 and 8 workers, as a WHERE filter and
// as a sort key, over every dtype: the same rows, the same keys bit for bit
// and the same errors. It first checks which chunks load as a column: every
// stored chunk of a "t_" tensor, no "b_" chunk holding a broken sample, and
// no write-buffered row.
func TestTypedColumnLoadsMatchTreeWalker(t *testing.T) {
	ctx := context.Background()
	ds := typedDataset(t)
	flushed := uint64(typedRows - typedUnflushed)
	for _, d := range crossCheckDtypes {
		for _, name := range []string{"t_" + d.String(), "b_" + d.String()} {
			tt := ds.Tensor(name)
			r := tt.NewScanReader()
			for _, sp := range tt.ChunkSpans() {
				ch, ok, err := r.Chunk(ctx, sp.First)
				if err != nil {
					t.Fatal(err)
				}
				if sp.First >= flushed {
					if ok {
						t.Fatalf("%s: write-buffered rows %d-%d read as a stored chunk", name, sp.First, sp.Last)
					}
					continue
				}
				broken := name[0] == 'b' && (sp.First <= typedEmptyRow && typedEmptyRow <= sp.Last ||
					sp.First <= typedMultiRow && typedMultiRow <= sp.Last)
				if !ok || (ch.Column == nil) != broken {
					t.Fatalf("%s rows %d-%d: column %v (ok %v), want a column: %v", name, sp.First, sp.Last, ch.Column != nil, ok, !broken)
				}
				if ch.Column != nil && len(ch.Column) != len(ch.Samples)*d.Size() {
					t.Fatalf("%s rows %d-%d: column of %d bytes for %d samples", name, sp.First, sp.Last, len(ch.Column), len(ch.Samples))
				}
			}
		}
	}
	var exprs []string
	for k, d := range crossCheckDtypes {
		a, b := "t_"+d.String(), "t_"+crossCheckDtypes[(k+5)%len(crossCheckDtypes)].String()
		exprs = append(exprs,
			a,
			a+" < 0",
			a+" * 2 + 1 >= "+b,
			"NOT "+a+" OR "+b+" > 3",
			a+" - "+b,
			"SUM(b_"+d.String()+") > 0 AND "+a+" != 0",
			"b_"+d.String()+" > 0", // fails at the empty sample
			"MAX(b_"+d.String()+") - "+a,
		)
	}
	rows := allRows(typedRows)
	for _, src := range exprs {
		x := parseExprT(t, src)
		if compileChunk(x) == nil {
			t.Fatalf("%s: not in the chunk-at-a-time subset", src)
		}
		for _, workers := range []int{1, 2, 8} {
			run := func(rowAtATime bool) (kept []uint64, keys []keyed, ferr, kerr error) {
				sc := &scanner{ds: ds, workers: workers, rowAtATime: rowAtATime}
				kept, ferr = sc.filter(ctx, append([]uint64(nil), rows...), x)
				keys, kerr = sc.keys(ctx, rows, x, "sort key")
				return
			}
			kept, keys, ferr, kerr := run(false)
			wKept, wKeys, wFerr, wKerr := run(true)
			where := fmt.Sprintf("workers=%d %s", workers, src)
			if fmt.Sprint(ferr) != fmt.Sprint(wFerr) || fmt.Sprint(kerr) != fmt.Sprint(wKerr) {
				t.Fatalf("%s: errors differ:\n typed:  %v / %v\n walker: %v / %v", where, ferr, kerr, wFerr, wKerr)
			}
			if ferr == nil && !reflect.DeepEqual(kept, wKept) {
				t.Fatalf("%s: WHERE keeps %v, walker %v", where, kept, wKept)
			}
			for pos := range keys {
				if kerr == nil && !sameKey(keys[pos], wKeys[pos]) {
					t.Fatalf("%s: key of row %d is %+v, walker %+v", where, pos, keys[pos], wKeys[pos])
				}
			}
		}
	}
}

// oldStripIDs and oldChunkAlignedSpans are the planner as a walk over every
// row, the reference the chunk-at-a-time planner must reproduce.
func oldStripIDs(chunks []core.ChunkSpan, rows []uint64, spans []span) (ids []uint64, spanEnd []int) {
	spanEnd = make([]int, len(spans))
	ci, si := 0, 0
	for pos, row := range rows {
		for si < len(spans) && pos >= spans[si].hi {
			spanEnd[si] = len(ids)
			si++
		}
		for ci < len(chunks) && row > chunks[ci].Last {
			ci++
		}
		if ci >= len(chunks) {
			break
		}
		if row < chunks[ci].First {
			continue
		}
		if n := len(ids); n == 0 || ids[n-1] != chunks[ci].ChunkID {
			ids = append(ids, chunks[ci].ChunkID)
		}
	}
	for ; si < len(spans); si++ {
		spanEnd[si] = len(ids)
	}
	return ids, spanEnd
}

func oldChunkAlignedSpans(chunks []core.ChunkSpan, rows []uint64, maxParts int) []span {
	minRows := (len(rows) + maxParts - 1) / maxParts
	var spans []span
	start, ci := 0, 0
	prevChunk := -1
	for pos, row := range rows {
		for ci < len(chunks) && row > chunks[ci].Last {
			ci++
		}
		if prevChunk >= 0 && ci != prevChunk && pos-start >= minRows {
			spans = append(spans, span{start, pos})
			start = pos
		}
		prevChunk = ci
	}
	if start < len(rows) {
		spans = append(spans, span{start, len(rows)})
	}
	return spans
}

// TestPlannerMatchesRowWalk checks chunkAlignedSpans, stripIDs and the batch
// cut (rowsThrough) against the row walk they replace, on random chunk
// layouts (gaps between chunks, a repeated id) and random ascending row lists
// with gaps, repeats and rows past the last chunk.
func TestPlannerMatchesRowWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		var chunks []core.ChunkSpan
		next := uint64(rng.Intn(3))
		for c := rng.Intn(12); c >= 0; c-- {
			n := uint64(1 + rng.Intn(20))
			id := uint64(100 + rng.Intn(1000))
			if len(chunks) > 0 && rng.Intn(10) == 0 {
				id = chunks[len(chunks)-1].ChunkID
			}
			chunks = append(chunks, core.ChunkSpan{First: next, Last: next + n - 1, ChunkID: id})
			next += n
			if rng.Intn(5) == 0 {
				next += uint64(1 + rng.Intn(6))
			}
		}
		var rows []uint64
		row := uint64(rng.Intn(4))
		for n := rng.Intn(200); n > 0; n-- {
			rows = append(rows, row)
			row += uint64([]int{0, 1, 1, 1, 2, 7}[rng.Intn(6)])
		}
		for _, maxParts := range []int{1, 2, 3, 8, 33} {
			spans := chunkAlignedSpans(chunks, rows, maxParts)
			if want := oldChunkAlignedSpans(chunks, rows, maxParts); !reflect.DeepEqual(spans, want) {
				t.Fatalf("trial %d maxParts %d: spans %v, row walk %v\nchunks %v\nrows %v", trial, maxParts, spans, want, chunks, rows)
			}
			ids, ends := stripIDs(chunks, rows, spans)
			wIDs, wEnds := oldStripIDs(chunks, rows, spans)
			if !reflect.DeepEqual(ids, wIDs) || !reflect.DeepEqual(ends, wEnds) {
				t.Fatalf("trial %d maxParts %d: strips %v %v, row walk %v %v", trial, maxParts, ids, ends, wIDs, wEnds)
			}
		}
		// Spans cut anywhere, not only at chunk boundaries.
		var spans []span
		for lo := 0; lo < len(rows); {
			hi := min(len(rows), lo+1+rng.Intn(30))
			spans = append(spans, span{lo, hi})
			lo = hi
		}
		ids, ends := stripIDs(chunks, rows, spans)
		wIDs, wEnds := oldStripIDs(chunks, rows, spans)
		if !reflect.DeepEqual(ids, wIDs) || !reflect.DeepEqual(ends, wEnds) {
			t.Fatalf("trial %d free spans: strips %v %v, row walk %v %v", trial, ids, ends, wIDs, wEnds)
		}
		if len(rows) > 0 {
			lo := rng.Intn(len(rows))
			hi := lo + rng.Intn(len(rows)-lo+1)
			last := rows[lo] + uint64(rng.Intn(10))
			want := lo
			for want < hi && rows[want] <= last {
				want++
			}
			if got := rowsThrough(rows, lo, hi, last); got != want {
				t.Fatalf("trial %d: rowsThrough(%d, %d, %d) = %d, want %d", trial, lo, hi, last, got, want)
			}
		}
	}
}

// TestTopKMatchesSortByKeys checks sortByKeys with a k, which keeps the k
// least (key, position) entries, against its full sort followed by the cut, over
// random keys with ties, ±0, ±Inf, and in some trials NaN or string keys,
// which take the stable sort.
func TestTopKMatchesSortByKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(120)
		keys := make([]keyed, n)
		for i := range keys {
			switch r := rng.Intn(12); {
			case r == 0 && trial%3 == 0:
				keys[i] = keyed{num: math.NaN()}
			case r == 1 && trial%5 == 0:
				keys[i] = keyed{isStr: true, str: fmt.Sprint(rng.Intn(4))}
			case r == 2:
				keys[i] = keyed{num: math.Copysign(0, -1)}
			case r == 3:
				keys[i] = keyed{num: math.Inf(1 - 2*rng.Intn(2))}
			default:
				keys[i] = keyed{num: float64(rng.Intn(8))}
			}
		}
		for _, desc := range []bool{false, true} {
			for _, k := range []int{0, 1, rng.Intn(n + 1), n, n + 3, -1} {
				rows := make([]uint64, n)
				for i := range rows {
					rows[i] = uint64(rng.Intn(50))
				}
				want := append([]uint64(nil), rows...)
				sortByKeys(want, keys, desc, -1)
				if k >= 0 && k < n {
					want = want[:k]
				}
				if got := sortByKeys(rows, keys, desc, k); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("trial %d desc=%v k=%d: %v, sort %v", trial, desc, k, got, want)
				}
			}
		}
	}
}

// TestTopKQueriesMatchFullSort runs ORDER BY … LIMIT … OFFSET queries, which
// take top-k, at 1 and 4 workers, against the keys' stable sort followed by
// OFFSET and LIMIT: numeric keys with ties across partitions, ±0 and ±Inf,
// keys with NaN and string keys (the fallback), DESC, LIMIT 0, a LIMIT past
// the row count and an OFFSET past the end.
func TestTopKQueriesMatchFullSort(t *testing.T) {
	ctx := context.Background()
	const n = 240
	ds, err := core.Create(ctx, storage.NewMemory(), "topk")
	if err != nil {
		t.Fatal(err)
	}
	small := chunk.Bounds{Min: 64, Target: 128, Max: 256}
	k, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "k", Dtype: tensor.Float64, Bounds: small})
	kn, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "kn", Dtype: tensor.Float32, ChunkCompression: "lz4", Bounds: small})
	s, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "s", Htype: "text"})
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		v := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}[rng.Intn(4)]
		if rng.Intn(3) > 0 {
			v = float64(rng.Intn(6))
		}
		if err := k.Append(ctx, tensor.Scalar(tensor.Float64, v)); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(10) == 0 {
			v = math.NaN()
		}
		if err := kn.Append(ctx, tensor.Scalar(tensor.Float32, v)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(ctx, tensor.FromString(fmt.Sprint(rng.Intn(7)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if len(k.ChunkSpans()) < 8 {
		t.Fatalf("k spans %d chunks; the test wants ties across partitions", len(k.ChunkSpans()))
	}
	for _, key := range []string{"k", "kn", "TEXT(s)", "k * 0"} {
		for _, dir := range []string{"", " DESC"} {
			for _, cut := range [][2]int{{20, 0}, {0, 0}, {1, 3}, {37, 50}, {n, 0}, {n + 5, 2}, {5, n}, {10, n + 7}} {
				q := fmt.Sprintf("SELECT * FROM topk ORDER BY %s%s LIMIT %d OFFSET %d", key, dir, cut[0], cut[1])
				sc := &scanner{ds: ds, workers: 1, rowAtATime: true}
				want := allRows(n)
				keys, err := sc.keys(ctx, want, parseExprT(t, key), "sort key")
				if err != nil {
					t.Fatal(err)
				}
				sortByKeys(want, keys, dir != "", -1)
				want = want[min(cut[1], n):]
				want = want[:min(cut[0], len(want))]
				for _, workers := range []int{1, 4} {
					v, err := RunWith(ctx, ds, q, Options{Workers: workers})
					if err != nil {
						t.Fatalf("workers=%d %s: %v", workers, q, err)
					}
					if got := v.Indices(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("workers=%d %s:\n got  %v\n want %v", workers, q, got, want)
					}
				}
			}
		}
	}
	for src, marked := range map[string]bool{
		"SELECT * FROM topk ORDER BY k LIMIT 20 OFFSET 5":   true,
		"SELECT * FROM topk ORDER BY k":                     false,
		"SELECT * FROM topk GROUP BY s ORDER BY k LIMIT 20": false,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(plan.Explain(), "[top-k: keeps the 25 least (key, position)]"); got != marked {
			t.Fatalf("%s: Explain marks top-k %v, want %v:\n%s", src, got, marked, plan.Explain())
		}
	}
}

// shapeRunDataset builds "x", whose 2-d shape changes every one to five
// rows, and "y", whose runs interleave with x's: 3-d for its first rows,
// then 2-d. The last rows stay in the write buffer.
func shapeRunDataset(t *testing.T) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "runs")
	if err != nil {
		t.Fatal(err)
	}
	bounds := chunk.Bounds{Min: 64, Target: 128, Max: 256}
	x, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.UInt8, Bounds: bounds})
	y, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "y", Dtype: tensor.Int16, ChunkCompression: "lz4", Bounds: bounds})
	rng := rand.New(rand.NewSource(43))
	const n, unflushed = 150, 17
	var xs, ys []int
	for i := 0; i < n; i++ {
		if i%(1+rng.Intn(5)) == 0 || xs == nil {
			xs = []int{1 + rng.Intn(3), 1 + rng.Intn(4)}
		}
		if i%(2+rng.Intn(4)) == 0 || ys == nil {
			ys = []int{1 + rng.Intn(3), 1 + rng.Intn(2)}
			if i < 9 {
				ys = append(ys, 2)
			}
		}
		if i == n-unflushed {
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Append(ctx, tensor.MustNew(tensor.UInt8, xs...)); err != nil {
			t.Fatal(err)
		}
		if err := y.Append(ctx, tensor.MustNew(tensor.Int16, ys...)); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestShapeRunsMatchDecodedPath checks the per-run shape prefilter against
// the decoded path (disablePushdown) at 1 and 4 workers, over a tensor whose
// shape changes every few rows, two tensors with interleaved runs, ROW (a
// check per row) and write-buffered rows: the same rows, and an
// out-of-range subscript fails at the same row with the same error. At 1
// worker the prefilter checks once per run; at 4 most queries' runs are too
// short and it hands their rows to the parallel filter.
func TestShapeRunsMatchDecodedPath(t *testing.T) {
	ctx := context.Background()
	ds := shapeRunDataset(t)
	queries := []string{
		"SHAPE(x)[0] == 2",
		"SHAPE(x)[1] > SHAPE(y)[0]",
		"NDIM(y) == 2 AND SIZE(x) < 6",
		"LEN(x) == LEN(y) OR ROW() % 3 == 0",
		"SHAPE(x)[3] > 0",
		"SHAPE(y)[2] == 2",
		"SHAPE(x)[0] == 1 AND SHAPE(y)[2] == 2",
		"SHAPE(x)[0] >= 1 AND x > 0",
	}
	for _, where := range queries {
		q := "SELECT * FROM runs WHERE " + where
		want, wantErr := RunWith(ctx, ds, q, Options{Workers: 1, disablePushdown: true})
		for _, workers := range []int{1, 4} {
			got, err := RunWith(ctx, ds, q, Options{Workers: workers})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("workers=%d %s: error %v, decoded path %v", workers, where, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got.Indices(), want.Indices()) {
				t.Fatalf("workers=%d %s: rows %v, decoded path %v", workers, where, got.Indices(), want.Indices())
			}
		}
	}
	flat, err := RunWith(ctx, ds, "SELECT * FROM runs WHERE NDIM(y) == 2", Options{})
	if err != nil || flat.Len() == 0 || flat.Indices()[0] == 0 {
		t.Fatalf("y's 2-d rows: %v, %v; want some, after row 0", err, flat)
	}
	_, err = RunWith(ctx, ds, "SELECT * FROM runs WHERE SHAPE(y)[2] == 2", Options{})
	if at := fmt.Sprintf("WHERE at row %d:", flat.Indices()[0]); err == nil || !strings.Contains(err.Error(), at) {
		t.Fatalf("SHAPE(y)[2] fails with %v, want a failure %q, at y's first 2-d row", err, at)
	}
}

// TestSequenceShapePushdown: SHAPE, NDIM and LEN of a sequence tensor read a
// row's stacked shape, [items, item shape...], through pushdown as through
// the decoded path; a row whose items differ in shape fails alike both ways.
func TestSequenceShapePushdown(t *testing.T) {
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "seq")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "s", Htype: "sequence[generic]", Dtype: tensor.Int32})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "m", Htype: "sequence[generic]", Dtype: tensor.Int32})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		items := make([]*tensor.NDArray, r+1)
		mixed := make([]*tensor.NDArray, 2)
		for i := range items {
			items[i] = tensor.MustNew(tensor.Int32, r+2)
		}
		for i := range mixed {
			mixed[i] = tensor.MustNew(tensor.Int32, 2)
			if r == 4 && i == 1 {
				mixed[i] = tensor.MustNew(tensor.Int32, 3)
			}
		}
		if err := s.AppendSequence(ctx, items); err != nil {
			t.Fatal(err)
		}
		if err := m.AppendSequence(ctx, mixed); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		where string
		want  []uint64
	}{
		{"SHAPE(s)[0] == 3", []uint64{2}},
		{"NDIM(s) == 2", []uint64{0, 1, 2, 3, 4, 5}},
		{"LEN(s) == 3", []uint64{2}},
		{"SHAPE(s)[1] == 4 AND NDIM(m) == 2", []uint64{2}},
	} {
		for _, push := range []bool{true, false} {
			v, err := RunWith(ctx, ds, "SELECT * FROM seq WHERE "+c.where, Options{disablePushdown: !push})
			if err != nil {
				t.Fatalf("%s (pushdown %v): %v", c.where, push, err)
			}
			if got := v.Indices(); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("%s (pushdown %v): rows %v, want %v", c.where, push, got, c.want)
			}
		}
	}
	q, err := Parse("SELECT * FROM seq WHERE NDIM(m) == 2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "but a read of a sequence row whose items differ in shape") {
		t.Fatalf("Explain does not name the read of a mixed-shape sequence row:\n%s", plan.Explain())
	}
	_, pushErr := RunWith(ctx, ds, "SELECT * FROM seq WHERE NDIM(m) == 2", Options{})
	_, readErr := RunWith(ctx, ds, "SELECT * FROM seq WHERE NDIM(m) == 2", Options{disablePushdown: true})
	if pushErr == nil || fmt.Sprint(pushErr) != fmt.Sprint(readErr) || !strings.Contains(pushErr.Error(), "at row 4:") {
		t.Fatalf("mixed-shape sequence row: pushdown %v, decoded path %v", pushErr, readErr)
	}
}

// TestFilterAllocsIndependentOfRows gates lakebench's Q_filter: a query's
// allocation count is the same at 40 rows and at 4 000, so no stage
// allocates per row or per batch of rows.
func TestFilterAllocsIndependentOfRows(t *testing.T) {
	ctx := context.Background()
	allocs := func(n int) float64 {
		ds, err := core.Create(ctx, storage.NewMemory(), "f")
		if err != nil {
			t.Fatal(err)
		}
		// One chunk of labels either way, lz4 as lakebench stores them.
		labels, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label", Bounds: chunk.Bounds{Min: 64 << 10, Target: 128 << 10, Max: 256 << 10}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; i++ {
			if err := labels.Append(ctx, tensor.Scalar(tensor.Int32, float64(rng.Intn(1000)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		q, err := Parse("SELECT * FROM f WHERE labels < 500 ORDER BY labels LIMIT 20")
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := ExecuteWith(ctx, ds, q, Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		run() // load the chunk into the handle cache
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	small, large := allocs(40), allocs(4000)
	t.Logf("Q_filter: %.1f allocs/op at 40 rows, %.1f at 4000", small, large)
	if large > small+1 {
		t.Fatalf("Q_filter allocates per row: %.1f allocs/op at 40 rows, %.1f at 4000", small, large)
	}
}

// TestBatchPastItsChunkGoesToTheWalker: when a batch runs past the samples
// of the chunk its first row loads — the chunk spans the scan planned with
// are stale, as after a concurrent Rechunk — the rows the chunk does not
// hold go to the tree walker, on the typed path (a bare reference) and the
// per-sample one (a reduction) alike, and the values are the walker's.
func TestBatchPastItsChunkGoesToTheWalker(t *testing.T) {
	ctx := context.Background()
	ds := typedDataset(t)
	rows := allRows(typedRows - typedUnflushed)
	for _, src := range []string{"t_int32 > 3", "MEAN(t_int16) > 3", "t_float64 - SUM(t_uint8)"} {
		x := parseExprT(t, src)
		p := compileChunk(x)
		if p == nil || !p.bind(ds) {
			t.Fatalf("%s: not in the chunk-at-a-time subset", src)
		}
		for s := range p.spans {
			if len(p.spans[s]) < 3 {
				t.Fatalf("%s: %s spans %d chunks, want several", src, p.names[s], len(p.spans[s]))
			}
			p.spans[s] = []core.ChunkSpan{{First: 0, Last: uint64(len(rows) - 1)}}
		}
		got := make([]keyed, len(rows))
		w := p.worker((&scanner{ds: ds, workers: 1}).newWorkerEnv(ctx), len(rows))
		err := w.run(ctx, rows, span{0, len(rows)}, "test", sink{
			row: func(pos int, _ uint64, v Value) error {
				isStr, num, str, err := v.sortKey()
				got[pos] = keyed{isStr, num, str}
				return err
			},
			col: func(lo int, vals []float64) {
				for i, f := range vals {
					got[lo+i] = keyed{num: f}
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := (&scanner{ds: ds, workers: 1, rowAtATime: true}).keys(ctx, rows, x, "test")
		if err != nil {
			t.Fatal(err)
		}
		for pos := range rows {
			if !sameKey(got[pos], want[pos]) {
				t.Fatalf("%s: row %d is %+v, walker %+v", src, pos, got[pos], want[pos])
			}
		}
	}
}
