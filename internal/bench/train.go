package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/gpusim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/workload"
)

// trainScale is the uniform time compression shared by the network
// simulation and the GPU compute model, keeping IO/compute ratios faithful.
// A mild compression keeps per-request wall latency (3ms) well above Go
// scheduler jitter, so the measured worker-scaling ratio is stable even on
// noisy CI runners.
const trainScale = 5

// trainBatch is the per-step batch size of the simulated train loop.
const trainBatch = 16

// trainFetchBatch is the coalesced-prefetch strip width (chunks per batched
// ranged origin request) and trainAutotuneCap the ceiling, in bytes, the
// ingest chunk-size autotuner grows toward.
const (
	trainFetchBatch  = 32
	trainAutotuneCap = 16 << 10
)

// TrainStream measures the §4.6/§6.4 headline: an end-to-end train loop —
// simulated GPU, chunk-granular shuffling, collation — streaming from
// simulated S3 through the chunk-aligned dataloader, against the
// tfrecord/webdataset baselines. Tiny raw images in small chunks at a mild
// time compression keep the epoch latency-bound, the regime a real S3
// train loop lives in, so request-count economics (not CPU core count) set
// the scaling. The runner itself enforces the deterministic contracts:
// origin requests strictly below the chunk count (the coalesced fetch
// planner batching near-adjacent chunks into ranged multi-gets), every
// chunk moved from origin and decoded exactly once per epoch per rank
// (request ledger + cache/decode counters), and the batch stream
// byte-identical across worker counts for a fixed seed. The one
// host-dependent contract — 16-worker streaming at or above BOTH format
// baselines in absolute samples/sec — is cmd/benchfig's check on the
// returned rows, so that nothing `go test` runs compares two wall clocks.
func TrainStream(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(384)
	spec := workload.ImageSpec{Height: 16, Width: 16, Channels: 3, Seed: cfg.Seed}
	samples := rawSampleSet(cfg, spec)
	// Deliberately pathological static bounds (~1 image per chunk) stand in
	// for an untuned ingest; the chunk-size autotuner below is what rescues
	// them, growing the effective target toward trainAutotuneCap exactly as the
	// real knob grows toward the paper's 8–16MB band (the toy samples are
	// ~1000x smaller than real training images, so the cap scales with
	// them). The result is a mid-size chunk layout: enough chunks to
	// exercise fan-out and coalescing, few enough that per-chunk round
	// trips don't drown the pipeline.
	bounds := chunk.Bounds{Min: 512, Target: 1 << 10, Max: 2 << 10}
	profile := simnet.S3SameRegion()
	profile.TimeScale = trainScale
	gpu := gpusim.GPU{ComputePerBatch: 2 * time.Millisecond, TimeScale: trainScale}

	res := &Result{
		ID:     "train",
		Title:  fmt.Sprintf("train loop over %d raw %dx%d images streamed from S3 (batch %d)", cfg.N, spec.Height, spec.Width, trainBatch),
		Better: "higher",
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("simulated GPU (2ms/batch) fed by each loader over s3-same-region at time scale %d; throughput in simulated time", trainScale),
		"serial = 1 worker with readahead disabled (the per-sample read path's schedule); workers-N = chunk-aligned pipeline with coalesced ranged prefetch",
		"ranks-N shards the chunk order across N rank loaders colocated on one node (Rank/WorldSize), 4 workers and one GPU per rank, all sharing one node-level decoded-chunk cache; both RAM tiers derive from one 1GB NodeBudget (3/8 raw-chunk LRU, 5/8 decoded)",
		"every deeplake row is checked: each chunk moved from origin + decoded exactly once per epoch — per loader when alone, per NODE across the rank loaders — and origin requests < chunks (coalescing)",
		"benchfig gate: workers-16 must match or beat both format baselines in absolute samples/sec")

	// Baselines: same samples, same storage profile, 16 iteration workers.
	for _, f := range []baselines.Format{baselines.TFRecord{}, baselines.WebDataset{}} {
		store := storage.NewSimObjectStore(profile)
		if err := f.Write(ctx, store, samples); err != nil {
			return nil, err
		}
		tl := gpu.Train(ctx, formatSource{f: f, store: store, workers: 16, batch: trainBatch}, 0)
		res.Rows = append(res.Rows, Row{
			Name: f.Name(), Value: tl.RowsPerSec(), Unit: "smp/s",
			Extra: fmt.Sprintf("gpu idle %.0f%%", tl.IdleFraction()*100),
		})
	}

	// One ingested dataset behind a counting origin; each run reopens it
	// under a fresh byte cache (whose fetch planner coalesces prefetched
	// chunks into batched ranged requests) with a reset request ledger, so
	// the ledger counts exactly that run's origin traffic.
	origin := storage.NewSimObjectStore(profile)
	counting := storage.NewCounting(origin)
	if _, err := ingestDeepLakeOpts(ctx, counting, samples, bounds, core.WriteOptions{AutotuneChunkBytes: trainAutotuneCap}); err != nil {
		return nil, err
	}
	openCold := func() (*core.Dataset, error) {
		ds, err := core.Open(ctx, storage.NewLRU(counting, 1<<30))
		if err != nil {
			return nil, err
		}
		counting.Reset()
		return ds, nil
	}
	chunksOf := func(ds *core.Dataset) int64 {
		return int64(ds.Tensor("images").NumChunks() + ds.Tensor("labels").NumChunks())
	}
	loaderOpts := func(workers, rank, world, readahead int) dataloader.Options {
		return dataloader.Options{
			BatchSize: trainBatch, Workers: workers, Shuffle: true, Seed: cfg.Seed,
			Fields: []string{"images", "labels"}, Readahead: readahead,
			// A deep readahead window with wide fetch strips is the
			// absolute-throughput configuration: the scheduler runs a full
			// strip of chunks ahead of the workers, so whole strips arrive
			// in single batched ranged requests while the previous strip
			// decodes.
			FetchBatch: trainFetchBatch,
			Rank:       rank, WorldSize: world,
		}
	}

	// Serial reference: one worker walking the same shuffled chunk order
	// with no readahead, so every chunk costs a full S3 round trip.
	ds, err := openCold()
	if err != nil {
		return nil, err
	}
	serialTL := gpu.Train(ctx, dataloader.ForDataset(ds, loaderOpts(1, 0, 1, -1)), 0)
	serial := serialTL.RowsPerSec()
	if serialTL.Rows != cfg.N {
		return nil, fmt.Errorf("train: serial run delivered %d/%d rows", serialTL.Rows, cfg.N)
	}
	res.Rows = append(res.Rows, Row{
		Name: "deeplake-serial", Value: serial, Unit: "smp/s",
		Extra: fmt.Sprintf("gpu idle %.0f%%, first batch %s", serialTL.IdleFraction()*100, serialTL.FirstBatch.Round(time.Millisecond)),
	})

	for _, workers := range []int{1, 4, 16} {
		ds, err := openCold()
		if err != nil {
			return nil, err
		}
		l := dataloader.ForDataset(ds, loaderOpts(workers, 0, 1, 64))
		tl := gpu.Train(ctx, l, 0)
		if err := l.Err(); err != nil {
			return nil, err
		}
		if tl.Rows != cfg.N {
			return nil, fmt.Errorf("train: workers-%d delivered %d/%d rows", workers, tl.Rows, cfg.N)
		}
		chunks := chunksOf(ds)
		if got := l.CacheDecodes(); got != chunks {
			return nil, fmt.Errorf("train: workers-%d decoded %d chunks, want exactly %d (decode-once per epoch)", workers, got, chunks)
		}
		snap := counting.Snapshot()
		// Fetch-once: every chunk object moves from origin exactly once,
		// whether inside a batched ranged request or a single get.
		if moved := snap.Gets + snap.RangeGets + snap.BatchRanges; moved != chunks {
			return nil, fmt.Errorf("train: workers-%d moved %d chunk objects from origin for %d chunks (fetch-once per epoch)", workers, moved, chunks)
		}
		// Coalescing: the fetch planner must pack those moves into strictly
		// fewer origin round trips than chunks.
		reqs := snap.Requests()
		if reqs >= chunks {
			return nil, fmt.Errorf("train: workers-%d made %d origin requests for %d chunks (coalescing must batch them)", workers, reqs, chunks)
		}
		if workers == 16 {
			res.Rows = append(res.Rows, Row{
				Name: "origin-requests-16", Value: float64(reqs), Unit: "req",
				Extra: fmt.Sprintf("%d chunks moved in %d requests (%d batched multi-gets carrying %d ranges)",
					chunks, reqs, snap.BatchGets, snap.BatchRanges),
			})
		}
		res.Rows = append(res.Rows, Row{
			Name: fmt.Sprintf("workers-%d", workers), Value: tl.RowsPerSec(), Unit: "smp/s",
			Extra: fmt.Sprintf("%.1fx serial, %d origin reqs / %d chunks, gpu idle %.0f%%, first batch %s",
				tl.RowsPerSec()/serial, reqs, chunks, tl.IdleFraction()*100, tl.FirstBatch.Round(time.Millisecond)),
		})
	}
	// Distributed: cfg.Ranks rank loaders shard one epoch's chunk order
	// disjointly, each feeding its own simulated GPU (the §6.5 multi-node
	// setup) — but all colocated on ONE simulated node, sharing a
	// node-level decoded-chunk cache (§3.5 buffer at node scope). The
	// decode-once contract is therefore per node, not per rank: summed
	// across the rank loaders, each chunk is fetched+decoded exactly once.
	{
		world := cfg.Ranks
		if world <= 0 {
			world = 4
		}
		// One declared node budget sizes every RAM tier the rank fleet
		// shares: 3/8 to the raw-chunk LRU the dataset reads through, 5/8
		// to the decoded-chunk node cache — instead of each tier budgeting
		// the machine independently.
		budget := storage.NodeBudget{MemoryBytes: 1 << 30}
		ram := storage.NewLRU(counting, budget.LRUBytes())
		ds, err := core.Open(ctx, ram)
		if err != nil {
			return nil, err
		}
		counting.Reset()
		chunks := chunksOf(ds)
		node := dataloader.NewNodeCache(budget.DecodedBytes())
		if got := ram.Capacity() + node.Budget(); got != budget.MemoryBytes {
			return nil, fmt.Errorf("train: node budget leak: RAM tiers sum to %d bytes, budget is %d", got, budget.MemoryBytes)
		}
		gpus := make([]gpusim.GPU, world)
		sources := make([]gpusim.BatchSource, world)
		loaders := make([]*dataloader.Loader, world)
		for r := 0; r < world; r++ {
			gpus[r] = gpu
			opts := loaderOpts(4, r, world, 64)
			opts.Cache = node
			loaders[r] = dataloader.ForDataset(ds, opts)
			sources[r] = loaders[r]
		}
		start := time.Now()
		timelines := gpusim.Fleet(ctx, gpus, sources, 0)
		simWall := time.Since(start).Seconds() * trainScale
		rows := 0
		var nodeDecodes int64
		var idleFrac float64
		for r, tl := range timelines {
			if err := loaders[r].Err(); err != nil {
				return nil, fmt.Errorf("train: rank %d: %w", r, err)
			}
			nodeDecodes += loaders[r].CacheDecodes()
			rows += tl.Rows
			idleFrac += tl.IdleFraction()
		}
		if rows != cfg.N {
			return nil, fmt.Errorf("train: %d ranks delivered %d/%d rows together (shards must partition the epoch)", world, rows, cfg.N)
		}
		// Per-node decode-once: the rank shards are disjoint over primary
		// chunks but share secondary (label) chunks, so summed across the
		// node's loaders every distinct chunk decodes exactly once — N
		// rank-private caches would decode shared chunks up to N times.
		if nodeDecodes != chunks {
			return nil, fmt.Errorf("train: ranks-%d decoded %d chunks across the node, want exactly %d (decode-once per NODE, not per rank)", world, nodeDecodes, chunks)
		}
		if ns := node.Stats(); ns.Decodes != nodeDecodes {
			return nil, fmt.Errorf("train: node cache ledger mismatch: loaders attribute %d decodes, cache counted %d", nodeDecodes, ns.Decodes)
		}
		res.Rows = append(res.Rows, Row{
			Name: fmt.Sprintf("ranks-%d", world), Value: float64(rows) / simWall, Unit: "smp/s",
			Extra: fmt.Sprintf("%d ranks x 4 workers, disjoint chunk shards, shared node cache: %d/%d chunks decoded once per node, mean gpu idle %.0f%%",
				world, nodeDecodes, chunks, idleFrac/float64(world)*100),
		})
	}

	// Determinism: the collated batch stream must be byte-identical across
	// worker counts for a fixed seed (checked on a memory store so only
	// the pipeline schedule varies). ref — the serial stream's hash — also
	// serves as the byte-identity reference for the warm-restart run below.
	var ref uint64
	{
		mem := storage.NewMemory()
		mds, err := ingestDeepLakeOpts(ctx, mem, samples, bounds, core.WriteOptions{AutotuneChunkBytes: trainAutotuneCap})
		if err != nil {
			return nil, err
		}
		for _, workers := range []int{1, 4, 16} {
			h, n, err := streamHash(ctx, mds, workers, cfg.Seed)
			if err != nil {
				return nil, err
			}
			if n != cfg.N {
				return nil, fmt.Errorf("train: determinism pass at %d workers delivered %d/%d rows", workers, n, cfg.N)
			}
			if workers == 1 {
				ref = h
			} else if h != ref {
				return nil, fmt.Errorf("train: batch stream at %d workers differs from serial for seed %d", workers, cfg.Seed)
			}
		}
		res.Notes = append(res.Notes, "batch stream verified byte-identical across 1/4/16 workers for the fixed seed")
	}

	// Warm restart over the local-disk tier (§3.6 RAM over local disk over
	// origin): a training job is killed mid-epoch, a fresh process reopens
	// the same cache directory, and the restarted epoch is served warm —
	// chunks the dead run already paid origin round trips for come off
	// local disk (checksum-verified against the dataset's manifests), and
	// the delivered batch stream is byte-identical to the cold reference.
	{
		dir, err := os.MkdirTemp("", "bench-disk-tier-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		openTier := func() (*storage.Disk, *core.Dataset, error) {
			disk, err := storage.NewDisk(counting, dir, storage.DiskOptions{})
			if err != nil {
				return nil, nil, err
			}
			tds, err := core.Open(ctx, storage.NewLRU(disk, 1<<30))
			if err != nil {
				return nil, nil, err
			}
			counting.Reset()
			return disk, tds, nil
		}
		// First incarnation: stream part of an epoch, then kill it.
		// Context cancellation mid-stream stands in for SIGKILL — the disk
		// tier publishes every admit atomically (temp+fsync+rename), so
		// whatever landed before the kill is intact for the next process.
		_, ds1, err := openTier()
		if err != nil {
			return nil, err
		}
		killCtx, kill := context.WithCancel(ctx)
		l1 := dataloader.ForDataset(ds1, loaderOpts(4, 0, 1, 64))
		killedAfter := 0
		for range l1.Batches(killCtx) {
			killedAfter++
			if killedAfter >= 4 {
				kill()
			}
		}
		kill()
		// Second incarnation: fresh RAM cache and a fresh disk index over
		// the same directory, full epoch.
		disk2, ds2, err := openTier()
		if err != nil {
			return nil, err
		}
		h, nrows, err := streamHash(ctx, ds2, 4, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if nrows != cfg.N {
			return nil, fmt.Errorf("train: warm-restart run delivered %d/%d rows", nrows, cfg.N)
		}
		if h != ref {
			return nil, fmt.Errorf("train: warm-restart batch stream differs from the cold reference for seed %d", cfg.Seed)
		}
		st := disk2.Stats()
		if st.WarmHits == 0 {
			return nil, fmt.Errorf("train: warm restart served no reads from the disk tier (warm hits = 0)")
		}
		reads := st.Hits + st.Misses
		res.Rows = append(res.Rows, Row{
			Name: "warm-restart", Value: float64(st.WarmHits) / float64(reads) * 100, Unit: "%",
			Extra: fmt.Sprintf("killed after %d batches; reopened epoch: %d of %d disk-tier reads served warm, %d origin misses, batches byte-identical to cold run",
				killedAfter, st.WarmHits, reads, st.Misses),
		})
		res.Notes = append(res.Notes,
			"warm-restart kills a run mid-epoch, reopens the same local-disk cache dir, and must see a nonzero warm hit rate with byte-identical batches")
	}
	return res, nil
}

// streamHash drains one shuffled epoch and hashes every delivered sample's
// dtype, shape and bytes in delivery order.
func streamHash(ctx context.Context, ds *core.Dataset, workers int, seed int64) (uint64, int, error) {
	fields := []string{"images", "labels"}
	l := dataloader.ForDataset(ds, dataloader.Options{
		BatchSize: trainBatch, Workers: workers, Shuffle: true, Seed: seed, Fields: fields,
	})
	h := fnv.New64a()
	n := 0
	for b := range l.Batches(ctx) {
		for _, s := range b.Samples {
			for _, name := range fields {
				arr := s[name]
				fmt.Fprintf(h, "%s|%v|%v|", name, arr.Dtype(), arr.Shape())
				h.Write(arr.Bytes())
			}
			n++
		}
	}
	return h.Sum64(), n, l.Err()
}
