package dataloader

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// planDigest hashes what the feeder plans for every epoch of o over v: each
// job's ordinal, chunk id and rows (seq, row, src), then each planned
// column's strip ids, through counts and per-chunk rows.
func planDigest(v *view.View, o Options) string {
	o = o.withDefaults()
	h := sha256.New()
	cols := v.Columns()
	groups := chunkGroups(v, primaryColumn(cols))
	planned := stripTensors(v, cols)
	for e := 0; e < o.Epochs; e++ {
		p := buildPlan(v, buildShard(groups, o, e), o, e)
		put(h, uint64(p.rows), uint64(len(p.jobs)))
		for _, cj := range p.jobs {
			put(h, uint64(cj.ord), cj.chunkID, uint64(len(cj.rows)))
			for _, rj := range cj.rows {
				put(h, uint64(rj.seq), uint64(rj.row), rj.src)
			}
		}
		for _, t := range planned {
			h.Write([]byte(t.Name()))
			ids, through, rows := stripIDs(v, t, p.groups)
			put(h, uint64(len(ids)))
			put(h, ids...)
			for _, n := range through {
				put(h, uint64(n))
			}
			for _, r := range rows {
				put(h, uint64(len(r)))
				put(h, r...)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func put(h hash.Hash, xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
}

// TestPlanDigestGolden pins the epoch plans and strip plans the feeder
// builds: how rows are resolved to chunks and how jobs are sorted may get
// faster, but the jobs, their order and the strips must stay as they are.
// The digests were recorded before rows were resolved through chunk spans.
func TestPlanDigestGolden(t *testing.T) {
	media := view.All(mediaDataset(t, storage.NewMemory(), 1000))
	raw := view.All(loaderDataset(t, storage.NewMemory(), 600))
	_, sparse := streamShaped(t)
	base := Options{BatchSize: 16, ShuffleBuffer: 64, Seed: 7, Workers: 4, Shuffle: true, Epochs: 2}
	cases := []struct {
		name string
		v    *view.View
		set  func(*Options)
		want string
	}{
		{"jpeg primary, 2 epochs", media, func(o *Options) {}, "8e22460f04c56e702bbf4d7db4aacefa69ea756f5e8707194efaf2a27454355e"},
		{"raw primary, 2 epochs", raw, func(o *Options) {}, "79d68d2bb8837450b7a5ffa5d1ae1a2cfb504db4470054309ba4843be261f2d8"},
		{"rank 0 of 2", raw, func(o *Options) { o.Rank, o.WorldSize = 0, 2 }, "a33120393369dce1370a7fb42c623ec3347dd18f4292fe09d40fa1d546ab57bc"},
		{"rank 1 of 2", raw, func(o *Options) { o.Rank, o.WorldSize = 1, 2 }, "a20101d3e6895e1827acb6110b1f66891f6af4ec7c9e81ccd0c3acc72ae12300"},
		{"sparse view", sparse, func(o *Options) {}, "b5f3fe0a1459e2b330a7942b1ccaa0a81fd79111247a666488e646362384d7ba"},
		{"sparse view, sequential", sparse, func(o *Options) { o.Shuffle, o.Epochs = false, 1 }, "a8620172bab309ab1d77a1c4795ac35332585e404b00474373b8f74275536f30"},
	}
	for _, c := range cases {
		o := base
		c.set(&o)
		if got := planDigest(c.v, o); got != c.want {
			t.Errorf("%s: plan digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSpanCursorMatchesChunkOf: the cursor resolves every row, in stored
// order, at random and past the end, to what Tensor.ChunkOf does.
func TestSpanCursorMatchesChunkOf(t *testing.T) {
	x := loaderDataset(t, storage.NewMemory(), 300).Tensor("x")
	n := x.Len()
	rows := make([]uint64, 0, 3*n+2)
	for r := uint64(0); r < n; r++ {
		rows = append(rows, r)
	}
	rng := rand.New(rand.NewSource(3))
	for range 2 * n {
		rows = append(rows, uint64(rng.Int63n(int64(n))))
	}
	rows = append(rows, n, n+7)
	c := newSpanCursor(x)
	for _, r := range rows {
		id, ok := c.chunkOf(r)
		want, _, err := x.ChunkOf(r)
		if ok != (err == nil) || (ok && id != want) {
			t.Fatalf("row %d: cursor says chunk %d (%v), ChunkOf says %d (%v)", r, id, ok, want, err)
		}
	}
}
