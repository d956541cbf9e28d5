package dataloader

import (
	"context"
	"fmt"
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
	for i := 1; i < len(plan.jobs); i++ {
		if a, b := first[plan.jobs[i-1].ord], first[plan.jobs[i].ord]; a > b {
			t.Fatalf("%s: job %d is first needed at %d, after job %d's %d", name, i-1, a, i, b)
		}
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
// so it comes after X's chunk in the itinerary.
func TestReorderMapBoundedByShuffleBuffer(t *testing.T) {
	stream, sparse := streamShaped(t)
	for _, shape := range []struct {
		name string
		v    *view.View
	}{{"stream", stream}, {"view", sparse}} {
		for seed := int64(1); seed <= 5; seed++ {
			o := Options{Shuffle: true, ShuffleBuffer: 2048, BatchSize: 32, Seed: seed, Workers: 1}
			job := 0
			plan := buildPlan(shape.v, buildShard(chunkGroups(shape.v, "x"), o.withDefaults(), 0), o.withDefaults(), 0)
			for _, cj := range plan.jobs {
				job = max(job, len(cj.rows))
			}
			l := New(shape.v, o)
			if n := len(epochRows(t, l)); n != shape.v.Len() {
				t.Fatalf("%s seed %d: delivered %d/%d rows", shape.name, seed, n, shape.v.Len())
			}
			if bound := o.ShuffleBuffer + job; l.pendingPeak > bound {
				t.Fatalf("%s seed %d: the reorder map held %d rows, over the buffer plus one job (%d)", shape.name, seed, l.pendingPeak, bound)
			}
			t.Logf("%s seed %d: reorder map peak %d rows", shape.name, seed, l.pendingPeak)
		}
	}
}
