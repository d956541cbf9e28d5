package dataloader

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/jpeg"
	"reflect"
	"sort"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
)

// gridDataset builds n rows of one tensor "x", [256]int32 whose first
// element is the row number, perChunk rows to a chunk (the last chunk may be
// short).
func gridDataset(t testing.TB, store storage.Provider, n, perChunk int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "wide")
	if err != nil {
		t.Fatal(err)
	}
	target := perChunk << 10
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: chunk.Bounds{Min: target / 2, Target: target, Max: 2 * target}})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 256)
	for i := 0; i < n; i++ {
		row[0] = float64(i)
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{256}, row)
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if want := (n + perChunk - 1) / perChunk; x.NumChunks() != want {
		t.Fatalf("%d rows at %d a chunk made %d chunks, want %d", n, perChunk, x.NumChunks(), want)
	}
	return ds
}

// mediaDataset builds n rows of a JPEG image tensor "x" — 8×8 frames of one
// colour each, stored verbatim through AppendEncoded, about 100 to a chunk —
// and "label", int32 = row: the shape of an image dataset, whose primary's
// rows decode one at a time.
func mediaDataset(t testing.TB, store storage.Provider, n int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "media")
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, n)
	for i := range frames {
		img := image.NewRGBA(image.Rect(0, 0, 8, 8))
		for p := 0; p < len(img.Pix); p += 4 {
			copy(img.Pix[p:], []byte{byte(i), byte(i>>8) * 32, 128, 255})
		}
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, img, nil); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	target := 100 * len(frames[0])
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Htype: "image", SampleCompression: "jpeg", Bounds: chunk.Bounds{Min: target / 2, Target: target, Max: 2 * target}})
	if err != nil {
		t.Fatal(err)
	}
	lbl, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "label", Dtype: tensor.Int32})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if err := x.AppendEncoded(ctx, f); err != nil {
			t.Fatal(err)
		}
		if err := lbl.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := x.NumChunks(), n/100; got < want*9/10 || got > want*11/10 {
		t.Fatalf("%d frames made %d chunks, want about %d", n, got, want)
	}
	return ds
}

// streamShaped returns a 3 072-row, 192-chunk dataset at 16 rows a chunk,
// and a sparse view of 4 rows from each of its chunks: the shapes of a cold
// raw-frame epoch and of its view.
func streamShaped(t testing.TB) (stream, sparse *view.View) {
	t.Helper()
	ds := gridDataset(t, storage.NewMemory(), 3072, 16)
	var idx []uint64
	for r := uint64(0); r < 3072; r += 4 {
		idx = append(idx, r)
	}
	return view.All(ds), view.New(ds, idx, []view.Column{{Name: "x", Source: "x"}})
}

// checkItinerary builds one epoch's plan and checks its fetch itinerary: a
// permutation of the visit groups, ordered by the first delivery position
// each group serves, so the rows of batch k never wait behind a chunk that
// no batch up to k needs. It returns D_0, the chunks the first batch needs.
func checkItinerary(t *testing.T, name string, v *view.View, o Options, epoch int) int {
	t.Helper()
	o = o.withDefaults()
	shard := buildShard(chunkGroups(v, primaryColumn(v.Columns())), o, epoch)
	plan := buildPlan(v, shard, o, epoch)

	byFirstRow := func(gs []groupRef) []groupRef {
		out := append([]groupRef(nil), gs...)
		sort.Slice(out, func(i, j int) bool { return out[i].rows[0] < out[j].rows[0] })
		return out
	}
	if !reflect.DeepEqual(byFirstRow(plan.groups), byFirstRow(shard.groups)) {
		t.Fatalf("%s: the itinerary is not a permutation of the visit groups", name)
	}
	if !o.Shuffle && !reflect.DeepEqual(plan.groups, shard.groups) {
		t.Fatalf("%s: without shuffle the itinerary must be the visit order", name)
	}

	ordOf := make([]int, plan.rows)
	first := make([]int, len(plan.groups))
	for i := range first {
		first[i] = plan.rows
	}
	for _, cj := range plan.jobs {
		for _, rj := range cj.rows {
			ordOf[rj.seq] = cj.ord
			first[cj.ord] = min(first[cj.ord], rj.seq)
		}
	}
	// Groups enter in itinerary order: along the jobs, each ordinal's first
	// job is first needed no earlier than the previous new ordinal's. (A
	// media group's later sub-jobs interleave with other groups'.)
	entered, prev := map[int]bool{}, -1
	for i, cj := range plan.jobs {
		if entered[cj.ord] {
			continue
		}
		entered[cj.ord] = true
		if b := first[cj.ord]; b < prev {
			t.Fatalf("%s: job %d enters a group first needed at %d, after one first needed at %d", name, i, b, prev)
		}
		prev = first[cj.ord]
	}

	// Batch k's positions need D_k distinct chunks; the jobs holding them
	// must be the first D_k ordinals of the itinerary.
	needed := map[int]bool{}
	last, d0 := -1, 0
	for seq := 0; seq < plan.rows; seq++ {
		needed[ordOf[seq]] = true
		last = max(last, ordOf[seq])
		if end := seq + 1; end%o.BatchSize == 0 || end == plan.rows {
			if last >= len(needed) {
				t.Fatalf("%s: batch %d needs %d chunks but reaches itinerary ordinal %d", name, seq/o.BatchSize, len(needed), last)
			}
			if d0 == 0 {
				d0 = len(needed)
			}
		}
	}
	return d0
}

// TestItineraryFollowsFirstNeededPosition: the feeder fetches chunks in the
// order the delivery stream first needs them, so the first batch waits for
// the few chunks holding its rows rather than for the shuffle buffer to fill.
// On a 192-chunk, 16-rows-a-chunk epoch with a 2 048-row buffer, batch 0's 32
// rows sit in about 28 chunks, while in visit order the last of them comes
// about 120 chunks in.
func TestItineraryFollowsFirstNeededPosition(t *testing.T) {
	stream, _ := streamShaped(t)
	o := Options{Shuffle: true, ShuffleBuffer: 2048, BatchSize: 32, Workers: 4}
	for seed := int64(1); seed <= 5; seed++ {
		o.Seed = seed
		d0 := checkItinerary(t, fmt.Sprintf("seed %d", seed), stream, o, 0)
		t.Logf("seed %d: the first batch needs %d chunks", seed, d0)
	}
	checkItinerary(t, "epoch 1 of 2", stream, Options{Shuffle: true, ShuffleBuffer: 2048, BatchSize: 32, Seed: 1, Epochs: 2}, 1)
	checkItinerary(t, "rank 1 of 2", stream, Options{Shuffle: true, ShuffleBuffer: 2048, BatchSize: 32, Seed: 1, Rank: 1, WorldSize: 2}, 0)
	checkItinerary(t, "no shuffle", stream, Options{BatchSize: 32}, 0)

	// Fewer chunks than ranks: the shards stride rows of the one chunk.
	one := view.All(gridDataset(t, storage.NewMemory(), 48, 64))
	for rank := 0; rank < 2; rank++ {
		checkItinerary(t, fmt.Sprintf("row-striding rank %d", rank), one, Options{Shuffle: true, ShuffleBuffer: 8, BatchSize: 4, Seed: 1, Rank: rank, WorldSize: 2}, 0)
	}
}

// TestMediaJobsFollowBatchWindows: on a JPEG primary, whose rows decode one at
// a time, a job is one chunk's rows inside one batch window, in delivery
// order, and the jobs run in delivery order while the groups still enter in
// itinerary order. The jobs up to the first batch's last row then hold that
// batch's 32 rows, where whole-chunk jobs held every row of the 16 to 19
// chunks those rows sit in (1 614 to 1 918 rows).
func TestMediaJobsFollowBatchWindows(t *testing.T) {
	v := view.All(mediaDataset(t, storage.NewMemory(), 3200))
	for seed := int64(1); seed <= 5; seed++ {
		o := Options{Shuffle: true, ShuffleBuffer: 2048, BatchSize: 32, Seed: seed, Workers: 1}
		name := fmt.Sprintf("seed %d", seed)
		d0 := checkItinerary(t, name, v, o, 0)
		o = o.withDefaults()
		plan := buildPlan(v, buildShard(chunkGroups(v, "x"), o, 0), o, 0)

		// The work ahead of the first batch: every job up to the last one
		// holding one of its positions.
		rows, through := 0, 0
		for _, cj := range plan.jobs {
			rows += len(cj.rows)
			for _, rj := range cj.rows {
				if rj.seq < o.BatchSize {
					through = rows
				}
			}
		}
		if through != o.BatchSize {
			t.Fatalf("%s: the jobs through the first batch's last row hold %d rows (the batch needs %d chunks), want %d", name, through, d0, o.BatchSize)
		}

		held := make([][]int, len(plan.groups))
		entered := 0
		for i, cj := range plan.jobs {
			window := cj.rows[0].seq / o.BatchSize
			for k, rj := range cj.rows {
				if rj.seq/o.BatchSize != window || (k > 0 && rj.seq <= cj.rows[k-1].seq) {
					t.Fatalf("%s: job %d's rows leave batch window %d or delivery order at position %d", name, i, window, rj.seq)
				}
				held[cj.ord] = append(held[cj.ord], rj.row)
			}
			if i > 0 && cj.rows[0].seq < plan.jobs[i-1].rows[0].seq {
				t.Fatalf("%s: job %d is first needed at %d, before job %d's %d", name, i, cj.rows[0].seq, i-1, plan.jobs[i-1].rows[0].seq)
			}
			if cj.ord > entered {
				t.Fatalf("%s: job %d enters ordinal %d before ordinal %d", name, i, cj.ord, entered)
			}
			if cj.ord == entered {
				entered++
			}
		}
		for ord, g := range plan.groups {
			sort.Ints(held[ord])
			if !reflect.DeepEqual(held[ord], g.rows) {
				t.Fatalf("%s: ordinal %d's jobs hold %d rows, not its group's %d", name, ord, len(held[ord]), len(g.rows))
			}
		}
	}
}

// TestDeliveredOrderGolden pins the delivered rows for one seed: epochHash
// covers each row's "x" (which holds its row id) and "label" in delivery
// order. The constants were recorded before the feeder took up the fetch
// itinerary: the order chunks are fetched in must never change what the
// consumer receives.
func TestDeliveredOrderGolden(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 600)
	base := Options{BatchSize: 16, ShuffleBuffer: 64, Seed: 7}
	cases := []struct {
		name string
		set  func(*Options)
		rows int
		want uint64
	}{
		{"sequential", func(o *Options) {}, 600, 0x0f3553d805d3ac95},
		{"shuffle", func(o *Options) { o.Shuffle = true }, 600, 0x8212b184fd985811},
		{"rank 1 of 2", func(o *Options) { o.Shuffle, o.Rank, o.WorldSize = true, 1, 2 }, 288, 0x9f986b75670656aa},
		{"two epochs", func(o *Options) { o.Shuffle, o.Epochs = true, 2 }, 1200, 0xc52ff23f8fbbd16d},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			o := base
			c.set(&o)
			o.Workers = workers
			h, n, l := epochHash(t, ds, o)
			if err := l.Err(); err != nil {
				t.Fatalf("%s, workers %d: %v", c.name, workers, err)
			}
			if h != c.want || n != c.rows {
				t.Errorf("%s, workers %d: delivered %d rows hashing to %#x, want %d rows hashing to %#x", c.name, workers, n, h, c.rows, c.want)
			}
		}
	}
}

// TestReorderMapBoundedByShuffleBuffer: at one worker, rows arrive in
// itinerary order, and the reorder stage never holds more than a shuffle
// buffer's worth of rows plus one job's. Rows still pending past position X
// either sat in the buffer when X was emitted or belong to the one chunk
// being entered at that moment; every later chunk is first needed after X,
// so it comes after X's chunk in the itinerary. On a JPEG primary the jobs
// run window by window, so the map never holds more than one batch.
func TestReorderMapBoundedByShuffleBuffer(t *testing.T) {
	stream, sparse := streamShaped(t)
	for _, shape := range []struct {
		name  string
		v     *view.View
		media bool
	}{{"stream", stream, false}, {"view", sparse, false}, {"media", view.All(mediaDataset(t, storage.NewMemory(), 3200)), true}} {
		for seed := int64(1); seed <= 5; seed++ {
			o := Options{Shuffle: true, ShuffleBuffer: 2048, BatchSize: 32, Seed: seed, Workers: 1}
			job := 0
			plan := buildPlan(shape.v, buildShard(chunkGroups(shape.v, "x"), o.withDefaults(), 0), o.withDefaults(), 0)
			for i, cj := range plan.jobs {
				job = max(job, len(cj.rows))
				if shape.media && i > 0 && cj.rows[0].seq/o.BatchSize < plan.jobs[i-1].rows[0].seq/o.BatchSize {
					t.Fatalf("%s seed %d: job %d of batch window %d runs after one of window %d", shape.name, seed, i, cj.rows[0].seq/o.BatchSize, plan.jobs[i-1].rows[0].seq/o.BatchSize)
				}
			}
			l := New(shape.v, o)
			if n := len(epochRows(t, l)); n != shape.v.Len() {
				t.Fatalf("%s seed %d: delivered %d/%d rows", shape.name, seed, n, shape.v.Len())
			}
			bound := o.ShuffleBuffer + job
			if shape.media {
				bound = o.BatchSize
			}
			if l.pendingPeak > bound {
				t.Fatalf("%s seed %d: the reorder map held %d rows, over its bound of %d", shape.name, seed, l.pendingPeak, bound)
			}
			t.Logf("%s seed %d: reorder map peak %d rows", shape.name, seed, l.pendingPeak)
		}
	}
}
