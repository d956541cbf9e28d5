package dataloader

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
)

// TestPlanMatchesReference: the linear-time planner builds exactly the
// groups, jobs, itineraries, strip ids, through counts and per-chunk rows
// the sorting planner it replaced builds (plan_ref_test.go), on JPEG, raw,
// sparse (one row in three, one chunk short of one row, and a quarter of a
// frame grid), computed and single-chunk views, with shuffling on and off, at
// rank/world 0/1, 1/2 and 2/3, over 1 and 3 epochs, with shuffle buffers of
// 1, 64 and more than the rows, and batches of 1, 16 and 32, at random seeds
// and worker counts.
func TestPlanMatchesReference(t *testing.T) {
	raw := loaderDataset(t, storage.NewMemory(), 300)
	var idx, allBut7 []uint64
	for r := uint64(0); r < 300; r++ {
		if r%3 == 0 {
			idx = append(idx, r)
		}
		if r != 7 {
			allBut7 = append(allBut7, r)
		}
	}
	_, sparse := streamShaped(t)
	views := []struct {
		name string
		v    *view.View
	}{
		{"jpeg", view.All(mediaDataset(t, storage.NewMemory(), 300))},
		{"raw", view.All(raw)},
		{"raw but row 7", view.New(raw, allBut7, view.All(raw).Columns())},
		{"sparse", sparse},
		{"one in three", view.New(raw, idx, view.All(raw).Columns())},
		{"computed", view.New(raw, idx, []view.Column{{Name: "c", Eval: func(context.Context, uint64) (*tensor.NDArray, error) { return nil, nil }}})},
		{"one chunk", view.All(loaderDataset(t, storage.NewMemory(), 40))},
	}
	rng := rand.New(rand.NewSource(11))
	for _, vc := range views {
		v := vc.v
		cols := v.Columns()
		primary := primaryColumn(cols)
		groups := chunkGroups(v, primary)
		if !sameGroups(groups, refChunkGroups(v, primary)) {
			t.Fatalf("%s: chunk groups differ from the reference", vc.name)
		}
		planned := stripTensors(v, cols)
		for _, shuffle := range []bool{false, true} {
			for _, rw := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
				for _, epochs := range []int{1, 3} {
					for _, buf := range []int{1, 64, 1 << 20} {
						for _, batch := range []int{1, 16, 32} {
							o := Options{Shuffle: shuffle, Rank: rw[0], WorldSize: rw[1], Epochs: epochs, ShuffleBuffer: buf,
								BatchSize: batch, Seed: rng.Int63(), Workers: []int{1, 2, 3, 8}[rng.Intn(4)]}.withDefaults()
							name := fmt.Sprintf("%s %+v", vc.name, o)
							for e := 0; e < epochs; e++ {
								shard := buildShard(groups, o, e)
								got, want := buildPlan(v, shard, o, e), refBuildPlan(v, shard, o, e)
								checkSamePlan(t, fmt.Sprintf("%s epoch %d", name, e), got, want)
								for _, tn := range planned {
									checkSameStrips(t, fmt.Sprintf("%s epoch %d tensor %s", name, e, tn.Name()), v, tn, tn.Name() == primary, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// stripIDs is what the plan digest (TestPlanDigestGolden) hashes of a
// column's strips: planStrips' ids and through counts, and every chunk's
// rows, which planStrips keeps only of the chunks PlanSparse could read in
// part, as the reference collects them (checkSameStrips holds planStrips'
// rows to the reference's).
func stripIDs(v *view.View, t *core.Tensor, groups []groupRef) (ids []uint64, through []int, rows [][]uint64) {
	ids, through, _ = planStrips(v, t, groups, false)
	_, _, rows = refStripIDs(v, t, groups)
	return ids, through, rows
}

// checkSameStrips fails unless planStrips, read off the itinerary for the
// primary tensor and by the two passes for any, gives the reference's
// strips: its ids and through counts, and its rows of every chunk
// PlanSparse could read in part, and no rows of any other.
func checkSameStrips(t *testing.T, name string, v *view.View, tn *core.Tensor, primary bool, got, want *epochPlan) {
	t.Helper()
	wids, wthrough, wrows := refStripIDs(v, tn, want.groups)
	size := map[uint64]int{}
	for _, sp := range tn.ChunkSpans() {
		size[sp.ChunkID] = int(sp.Last - sp.First + 1)
	}
	for _, readOff := range []bool{false, primary} {
		ids, through, rows := planStrips(v, tn, got.groups, readOff)
		if !slices.Equal(ids, wids) || !slices.Equal(through, wthrough) || len(rows) != len(wrows) {
			t.Fatalf("%s (primary %v): strip ids differ from the reference", name, readOff)
		}
		for i := range rows {
			kept := tn.ReadsInPart() && len(wrows[i]) < size[ids[i]]
			if (rows[i] != nil) != kept || (kept && !slices.Equal(rows[i], wrows[i])) {
				t.Fatalf("%s (primary %v): chunk %d's rows differ from the reference (kept %v)", name, readOff, ids[i], kept)
			}
		}
	}
}

func sameGroups(a, b []groupRef) bool {
	return slices.EqualFunc(a, b, func(x, y groupRef) bool {
		return x.key == y.key && x.chunk == y.chunk && x.media == y.media && slices.Equal(x.rows, y.rows)
	})
}

func checkSamePlan(t *testing.T, name string, got, want *epochPlan) {
	t.Helper()
	if got.rows != want.rows || !sameGroups(got.groups, want.groups) {
		t.Fatalf("%s: %d rows and itinerary differ from the reference's %d", name, got.rows, want.rows)
	}
	if !slices.EqualFunc(got.jobs, want.jobs, func(x, y chunkJob) bool {
		return x.ord == y.ord && x.chunkID == y.chunkID && slices.Equal(x.rows, y.rows)
	}) {
		t.Fatalf("%s: %d jobs differ from the reference's %d", name, len(got.jobs), len(want.jobs))
	}
}

// TestPlanAllocsIndependentOfRows: planning a shuffled epoch of a JPEG
// primary, and its strips, read off the itinerary or by the two passes over
// the rows, makes as many allocations at 16 000 rows as at 1 000: every row
// array is allocated once, whatever the count of rows, groups or jobs.
func TestPlanAllocsIndependentOfRows(t *testing.T) {
	ds := mediaDataset(t, storage.NewMemory(), 16000)
	all := view.All(ds)
	allocs := func(v *view.View) [3]float64 {
		o := Options{BatchSize: 32, Shuffle: true, Seed: 5, Workers: 4}.withDefaults()
		shard := buildShard(chunkGroups(v, "x"), o, 0)
		p := buildPlan(v, shard, o, 0)
		return [3]float64{
			testing.AllocsPerRun(5, func() { buildPlan(v, shard, o, 0) }),
			testing.AllocsPerRun(5, func() { planStrips(v, ds.Tensor("x"), p.groups, true) }),
			testing.AllocsPerRun(5, func() { planStrips(v, ds.Tensor("x"), p.groups, false) }),
		}
	}
	small, large := allocs(view.New(ds, all.Indices()[:1000], all.Columns())), allocs(all)
	if small != large {
		t.Fatalf("plan, strips off the itinerary, strips by the rows: %v allocs at 1 000 rows, %v at 16 000", small, large)
	}
}

// BenchmarkPlan is one epoch's shuffled plan and its primary column's
// strips, over a column of scalars in chunks of 32 rows, at 4 000 and
// 256 000 rows: stored-order jobs, and with every group marked media, the
// batch-windowed jobs a JPEG primary gets. The strips cases time the
// primary's strips alone, over the media plan's itinerary: read off it, as
// the loader plans them, and by the two passes over the rows any other
// column takes.
func BenchmarkPlan(b *testing.B) {
	perRow := func(b *testing.B, n int, f func()) {
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N)/float64(n), "ns/row")
	}
	for _, n := range []int{4000, 256000} {
		ds := scalarDataset(b, n)
		v := view.All(ds)
		x := ds.Tensor("x")
		o := Options{BatchSize: 32, Shuffle: true, Seed: 1}.withDefaults()
		var media *epochPlan
		for _, m := range []bool{false, true} {
			groups := chunkGroups(v, "x")
			for i := range groups {
				groups[i].media = m
			}
			shard := buildShard(groups, o, 0)
			media = buildPlan(v, shard, o, 0)
			b.Run(fmt.Sprintf("rows=%d/media=%v", n, m), func(b *testing.B) {
				perRow(b, n, func() {
					p := buildPlan(v, shard, o, 0)
					planStrips(v, x, p.groups, true)
				})
			})
		}
		for _, s := range []struct {
			name    string
			primary bool
		}{{"itinerary", true}, {"rows", false}} {
			b.Run(fmt.Sprintf("rows=%d/strips=%s", n, s.name), func(b *testing.B) {
				perRow(b, n, func() { planStrips(v, x, media.groups, s.primary) })
			})
		}
	}
}

// scalarDataset is n int32 scalars, "x", in chunks of 32.
func scalarDataset(b *testing.B, n int) *core.Dataset {
	b.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "scalars")
	if err != nil {
		b.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: chunk.Bounds{Min: 128, Target: 128, Max: 128}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	return ds
}
