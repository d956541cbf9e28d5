package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/baselines"
	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/gpusim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// rawSampleSet synthesizes n raw (uncompressed) images.
func rawSampleSet(cfg Config, spec workload.ImageSpec) []baselines.Sample {
	if cfg.ImageSide > 0 {
		spec.Height, spec.Width = cfg.ImageSide, cfg.ImageSide
	}
	out := make([]baselines.Sample, cfg.N)
	for i := range out {
		img := spec.Image(i)
		lbl, _ := workload.Label(cfg.Seed, i, 1000).Item()
		out[i] = baselines.Sample{
			Index: i, Data: img.Bytes(), Shape: img.Shape(),
			Encoding: "raw", Label: int32(lbl),
		}
	}
	return out
}

// jpegSampleSet synthesizes n JPEG-encoded images.
func jpegSampleSet(cfg Config, spec workload.ImageSpec) ([]baselines.Sample, error) {
	if cfg.ImageSide > 0 {
		spec.Height, spec.Width = cfg.ImageSide, cfg.ImageSide
	}
	codec, err := compress.SampleByName("jpeg")
	if err != nil {
		return nil, err
	}
	out := make([]baselines.Sample, cfg.N)
	for i := range out {
		img := spec.Image(i)
		s := img.Shape()
		enc, err := codec.Encode(img.Bytes(), s[0], s[1], s[2])
		if err != nil {
			return nil, err
		}
		lbl, _ := workload.Label(cfg.Seed, i, 1000).Item()
		out[i] = baselines.Sample{Index: i, Data: enc, Shape: s, Encoding: "jpeg", Label: int32(lbl)}
	}
	return out, nil
}

// ingestDeepLake writes a sample set into a fresh Deep Lake dataset on the
// provider. JPEG samples take the direct-copy path (§5).
func ingestDeepLake(ctx context.Context, store storage.Provider, samples []baselines.Sample, bounds chunk.Bounds) (*core.Dataset, error) {
	ds, err := core.Create(ctx, store, "bench")
	if err != nil {
		return nil, err
	}
	spec := core.TensorSpec{Name: "images", Htype: "generic", Dtype: tensor.UInt8, Bounds: bounds}
	if len(samples) > 0 && samples[0].Encoding == "jpeg" {
		spec = core.TensorSpec{Name: "images", Htype: "image", SampleCompression: "jpeg", Bounds: bounds}
	}
	images, err := ds.CreateTensor(ctx, spec)
	if err != nil {
		return nil, err
	}
	labels, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label", Bounds: bounds})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if s.Encoding == "jpeg" {
			if err := images.AppendEncoded(ctx, s.Data); err != nil {
				return nil, err
			}
		} else {
			arr, err := tensor.FromBytes(tensor.UInt8, s.Shape, s.Data)
			if err != nil {
				return nil, err
			}
			if err := images.Append(ctx, arr); err != nil {
				return nil, err
			}
		}
		if err := labels.Append(ctx, tensor.Scalar(tensor.Int32, float64(s.Label))); err != nil {
			return nil, err
		}
	}
	if err := ds.Flush(ctx); err != nil {
		return nil, err
	}
	return ds, nil
}

// Fig6Ingestion reproduces Fig 6: serially ingesting N uncompressed
// FFHQ-like images into each format on a local-disk cost model (lower is
// better). Expected shape: Deep Lake on par with binary formats
// (WebDataset, Beton) and far ahead of static array formats (Zarr, N5),
// with file-per-sample paying one request per image.
func Fig6Ingestion(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(64)
	samples := rawSampleSet(cfg, workload.FFHQLike())
	res := &Result{ID: "fig6", Title: fmt.Sprintf("ingest %d raw images into each format", cfg.N), Better: "lower"}
	res.Notes = append(res.Notes,
		"synthetic FFHQ-like images; simulated local-disk write costs",
		"reported time = serialization CPU time + simulated storage IO time")

	newStore := func() *storage.Sim { return storage.NewSimObjectStore(simnet.Local()) }
	addRow := func(name string, store *storage.Sim, cpu time.Duration) {
		_, in, _, simulated := store.Network().Stats()
		res.Rows = append(res.Rows, Row{Name: name, Value: cpu.Seconds() + simulated.Seconds(), Unit: "s",
			Extra: fmt.Sprintf("%.1f MB written", float64(in)/1e6)})
	}

	// Deep Lake.
	{
		store := newStore()
		start := time.Now()
		if _, err := ingestDeepLake(ctx, store, samples, chunk.DefaultBounds()); err != nil {
			return nil, err
		}
		addRow("deeplake", store, time.Since(start))
	}
	for _, f := range []baselines.Format{
		baselines.WebDataset{},
		baselines.Beton{},
		baselines.ArrayStore{Flavor: "zarr"},
		baselines.ArrayStore{Flavor: "n5"},
		baselines.TFRecord{},
		baselines.Squirrel{},
		baselines.FileSample{},
		baselines.ParquetLite{},
	} {
		store := newStore()
		start := time.Now()
		if err := f.Write(ctx, store, samples); err != nil {
			return nil, err
		}
		addRow(f.Name(), store, time.Since(start))
	}
	return res, nil
}

// countingIterate measures a full decoded pass over a baseline format.
func countingIterate(ctx context.Context, f baselines.Format, store storage.Provider, workers int) (int, time.Duration, error) {
	var n int64
	start := time.Now()
	err := f.Iterate(ctx, store, workers, func(baselines.Sample) error {
		atomic.AddInt64(&n, 1)
		return nil
	})
	return int(atomic.LoadInt64(&n)), time.Since(start), err
}

// deepLakeEpoch measures a full decoded pass with the streaming dataloader.
func deepLakeEpoch(ctx context.Context, ds *core.Dataset, workers int, shuffle bool) (int, time.Duration, error) {
	return deepLakeEpochOpts(ctx, ds, workers, shuffle, false)
}

func deepLakeEpochOpts(ctx context.Context, ds *core.Dataset, workers int, shuffle, rawBytes bool) (int, time.Duration, error) {
	l := dataloader.ForDataset(ds, dataloader.Options{
		BatchSize: 32, Workers: workers, Shuffle: shuffle, Fields: []string{"images", "labels"},
		RawBytes: rawBytes,
	})
	n := 0
	start := time.Now()
	for b := range l.Batches(ctx) {
		n += len(b.Samples)
	}
	return n, time.Since(start), l.Err()
}

// Fig7LocalLoaders reproduces Fig 7: images/sec iterating N small JPEG
// images in a training loop without a model, on local storage (higher is
// better). Expected shape: Deep Lake and Beton (FFCV) lead; the naive
// file-per-sample loader (PyTorch default) trails.
func Fig7LocalLoaders(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(2000)
	samples, err := jpegSampleSet(cfg, workload.Small250())
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig7", Title: fmt.Sprintf("iterate %d jpeg images, local storage", cfg.N), Better: "higher"}
	res.Notes = append(res.Notes, "decode to raw pixels included in every loader; no model attached")

	// Deep Lake loader.
	{
		store := storage.NewMemory()
		ds, err := ingestDeepLake(ctx, store, samples, chunk.DefaultBounds())
		if err != nil {
			return nil, err
		}
		n, dur, err := deepLakeEpoch(ctx, ds, cfg.Workers, false)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{Name: "deeplake", Value: float64(n) / dur.Seconds(), Unit: "img/s"})
	}
	for _, f := range []baselines.Format{
		baselines.Beton{},
		// Shards sized so every worker owns several shards, the standard
		// WebDataset/TFRecord deployment advice.
		baselines.WebDataset{ShardBytes: 4 << 20},
		baselines.Squirrel{SamplesPerShard: 64},
		baselines.TFRecord{RecordsPerFile: 128},
		baselines.ParquetLite{},
		baselines.FileSample{}, // the "pytorch" file-folder baseline
	} {
		store := storage.NewMemory()
		if err := f.Write(ctx, store, samples); err != nil {
			return nil, err
		}
		name := f.Name()
		if name == "filesample" {
			name = "pytorch (files)"
		}
		n, dur, err := countingIterate(ctx, f, store, cfg.Workers)
		if err != nil {
			return nil, err
		}
		if n != cfg.N {
			return nil, fmt.Errorf("fig7: %s delivered %d/%d samples", f.Name(), n, cfg.N)
		}
		res.Rows = append(res.Rows, Row{Name: name, Value: float64(n) / dur.Seconds(), Unit: "img/s"})
	}
	return res, nil
}

// Fig8StorageLocations reproduces Fig 8: one epoch over the Fig 7 dataset
// streamed from local disk, S3 and MinIO-on-LAN (lower is better). Expected
// shape: Deep Lake from S3 runs close to local (prefetch pipelines hide
// latency); both Deep Lake and WebDataset degrade on the low-bandwidth
// MinIO link.
func Fig8StorageLocations(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(800)
	samples, err := jpegSampleSet(cfg, workload.Small250())
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig8", Title: fmt.Sprintf("epoch over %d jpeg images per storage location", cfg.N), Better: "lower"}
	res.Notes = append(res.Notes,
		"simulated storage profiles (local nvme, s3 same-region, minio 1GbE lan) at real-time IO scale",
		"iteration without media decode: isolates the storage path the figure measures")

	profiles := []simnet.Profile{simnet.Local(), simnet.S3SameRegion(), simnet.MinIOLAN()}
	for _, p := range profiles {
		p.TimeScale = 1 // real-time IO
		// Deep Lake.
		store := storage.NewSimObjectStore(p)
		ds, err := ingestDeepLake(ctx, store, samples, chunk.DefaultBounds())
		if err != nil {
			return nil, err
		}
		n, dur, err := deepLakeEpochOpts(ctx, ds, cfg.Workers, false, true)
		if err != nil {
			return nil, err
		}
		if n != cfg.N {
			return nil, fmt.Errorf("fig8: deeplake/%s delivered %d/%d", p.Name, n, cfg.N)
		}
		res.Rows = append(res.Rows, Row{Name: "deeplake/" + p.Name, Value: dur.Seconds(), Unit: "s"})

		// WebDataset.
		wstore := storage.NewSimObjectStore(p)
		wd := baselines.WebDataset{ShardBytes: 4 << 20, NoDecode: true}
		if err := wd.Write(ctx, wstore, samples); err != nil {
			return nil, err
		}
		_, wdur, err := countingIterate(ctx, wd, wstore, cfg.Workers)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{Name: "webdataset/" + p.Name, Value: wdur.Seconds(), Unit: "s"})
	}
	return res, nil
}

// formatSource adapts a baseline format iteration into a gpusim.BatchSource.
type formatSource struct {
	f       baselines.Format
	store   storage.Provider
	workers int
	batch   int
}

// Batches implements gpusim.BatchSource.
func (s formatSource) Batches(ctx context.Context) <-chan dataloader.Batch {
	out := make(chan dataloader.Batch, 4)
	go func() {
		defer close(out)
		var cur []map[string]*tensor.NDArray
		idx := 0
		flush := func() bool {
			if len(cur) == 0 {
				return true
			}
			b := dataloader.Batch{Index: idx, Samples: cur}
			idx++
			cur = nil
			select {
			case out <- b:
				return true
			case <-ctx.Done():
				return false
			}
		}
		collect := make(chan map[string]*tensor.NDArray, s.workers)
		done := make(chan error, 1)
		go func() {
			done <- s.f.Iterate(ctx, s.store, s.workers, func(smp baselines.Sample) error {
				arr, err := tensor.FromBytes(tensor.UInt8, smp.Shape, smp.Data)
				if err != nil {
					return err
				}
				select {
				case collect <- map[string]*tensor.NDArray{"images": arr}:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
		}()
		finished := false
		for !finished {
			select {
			case smp := <-collect:
				cur = append(cur, smp)
				if len(cur) >= s.batch {
					if !flush() {
						return
					}
				}
			case <-done:
				finished = true
			case <-ctx.Done():
				return
			}
		}
		// Drain anything the workers enqueued before done fired.
		for {
			select {
			case smp := <-collect:
				cur = append(cur, smp)
				if len(cur) >= s.batch {
					if !flush() {
						return
					}
				}
			default:
				flush()
				return
			}
		}
	}()
	return out
}

// Fig9ImageNetCloud reproduces Fig 9: training an epoch over an
// ImageNet-like dataset stored on S3 (lower total time is better). Modes:
// AWS File Mode copies everything before training; Fast File Mode starts
// instantly but trains slowly; Deep Lake streams at near-local speed; Local
// is the reference.
func Fig9ImageNetCloud(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(600)
	samples, err := jpegSampleSet(cfg, workload.ImageNetLike())
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig9", Title: fmt.Sprintf("imagenet-like epoch (%d images) from S3", cfg.N), Better: "lower"}
	res.Notes = append(res.Notes,
		"file mode = copy files first, then train local; fast file mode = stream file-per-sample lazily",
		"simulated s3 same-region profile, uniform time scale 20x")

	const batchSize = 32
	// Uniform 20x compression for both the network simulation and the GPU
	// compute model keeps IO/compute ratios faithful.
	const fig9Scale = 20
	s3Profile := simnet.S3SameRegion()
	s3Profile.TimeScale = fig9Scale
	gpu := gpusim.GPU{ComputePerBatch: 400 * time.Millisecond, TimeScale: fig9Scale}

	addRow := func(name string, ttfb, total time.Duration, tl *gpusim.Timeline) {
		extra := fmt.Sprintf("first-batch %.2fs, gpu util %.0f%%", ttfb.Seconds(), tl.Utilization()*100)
		res.Rows = append(res.Rows, Row{Name: name, Value: total.Seconds(), Unit: "s", Extra: extra})
	}

	// Local reference.
	{
		store := storage.NewMemory()
		ds, err := ingestDeepLake(ctx, store, samples, chunk.DefaultBounds())
		if err != nil {
			return nil, err
		}
		l := dataloader.ForDataset(ds, dataloader.Options{BatchSize: batchSize, Workers: cfg.Workers, Fields: []string{"images", "labels"}})
		start := time.Now()
		tl := gpu.Train(ctx, l, 0)
		addRow("local", 0, time.Since(start), tl)
	}
	// Deep Lake streaming from S3.
	{
		store := storage.NewSimObjectStore(s3Profile)
		ds, err := ingestDeepLake(ctx, store, samples, chunk.DefaultBounds())
		if err != nil {
			return nil, err
		}
		l := dataloader.ForDataset(ds, dataloader.Options{BatchSize: batchSize, Workers: cfg.Workers, Fields: []string{"images", "labels"}})
		start := time.Now()
		tl := gpu.Train(ctx, l, 0)
		addRow("deeplake-stream", 0, time.Since(start), tl)
	}
	// AWS File Mode: copy everything, then train from local files.
	{
		remote := storage.NewSimObjectStore(s3Profile)
		fs := baselines.FileSample{}
		if err := fs.Write(ctx, remote, samples); err != nil {
			return nil, err
		}
		local := storage.NewMemory()
		start := time.Now()
		keys, err := remote.List(ctx, "")
		if err != nil {
			return nil, err
		}
		type copyJob = string
		jobs := make(chan copyJob)
		errc := make(chan error, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			go func() {
				for k := range jobs {
					blob, err := remote.Get(ctx, k)
					if err == nil {
						err = local.Put(ctx, k, blob)
					}
					if err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
		}
		for _, k := range keys {
			jobs <- k
		}
		close(jobs)
		for w := 0; w < cfg.Workers; w++ {
			if err := <-errc; err != nil {
				return nil, err
			}
		}
		copyDur := time.Since(start)
		tl := gpu.Train(ctx, formatSource{f: fs, store: local, workers: cfg.Workers, batch: batchSize}, 0)
		addRow("aws-file-mode", copyDur, copyDur+tl.Wall, tl)
		row := &res.Rows[len(res.Rows)-1]
		row.Extra = fmt.Sprintf("%d objects copied first, %s", len(keys), row.Extra)
	}
	// AWS Fast File Mode: stream file-per-sample straight from S3.
	{
		remote := storage.NewSimObjectStore(s3Profile)
		fs := baselines.FileSample{}
		if err := fs.Write(ctx, remote, samples); err != nil {
			return nil, err
		}
		start := time.Now()
		tl := gpu.Train(ctx, formatSource{f: fs, store: remote, workers: 4, batch: batchSize}, 0)
		addRow("aws-fast-file-mode", 0, time.Since(start), tl)
	}
	return res, nil
}

// Fig10DistributedCLIP reproduces Fig 10: 16 simulated GPUs training a
// CLIP-like model over a LAION-like image+caption dataset streamed
// cross-region. Reported: mean GPU utilization, aggregate images/sec, and
// the utilization timeline shape (higher utilization is better).
func Fig10DistributedCLIP(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(1024)
	const numGPUs = 16
	res := &Result{ID: "fig10", Title: fmt.Sprintf("16-GPU CLIP-like training over %d image+text pairs, cross-region", cfg.N), Better: "higher"}
	res.Notes = append(res.Notes, "simulated us-east bucket / us-central GPUs (55ms RTT), uniform time scale 10x")

	// Build the multimodal dataset on a cross-region bucket. The network
	// and GPU models share a uniform 50x time compression.
	crossProfile := simnet.S3CrossRegion()
	crossProfile.TimeScale = 10
	store := storage.NewSimObjectStore(crossProfile)
	ds, err := core.Create(ctx, store, "laion")
	if err != nil {
		return nil, err
	}
	images, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "images", Htype: "image", SampleCompression: "jpeg"})
	if err != nil {
		return nil, err
	}
	texts, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "captions", Htype: "text"})
	if err != nil {
		return nil, err
	}
	codec, err := compress.SampleByName("jpeg")
	if err != nil {
		return nil, err
	}
	spec := workload.LAIONLike()
	if cfg.ImageSide > 0 {
		spec.Height, spec.Width = cfg.ImageSide, cfg.ImageSide
	}
	for i := 0; i < cfg.N; i++ {
		img := spec.Image(i)
		s := img.Shape()
		enc, err := codec.Encode(img.Bytes(), s[0], s[1], s[2])
		if err != nil {
			return nil, err
		}
		if err := images.AppendEncoded(ctx, enc); err != nil {
			return nil, err
		}
		if err := texts.Append(ctx, tensor.FromString(workload.Caption(cfg.Seed, i))); err != nil {
			return nil, err
		}
	}
	if err := ds.Flush(ctx); err != nil {
		return nil, err
	}

	// Shard the chunk visit order across GPUs (Rank/WorldSize: disjoint
	// chunk shards under one shared seed) and train the fleet.
	gpus := make([]gpusim.GPU, numGPUs)
	sources := make([]gpusim.BatchSource, numGPUs)
	for g := 0; g < numGPUs; g++ {
		gpus[g] = gpusim.GPU{ComputePerBatch: 600 * time.Millisecond, TimeScale: 10}
		sources[g] = dataloader.ForDataset(ds, dataloader.Options{
			BatchSize: 8, Workers: 4, Shuffle: true, Seed: cfg.Seed, Prefetch: 8,
			Rank: g, WorldSize: numGPUs,
		})
	}
	start := time.Now()
	timelines := gpusim.Fleet(ctx, gpus, sources, 0)
	wall := time.Since(start)

	var utilSum float64
	rows := 0
	for _, tl := range timelines {
		utilSum += tl.Utilization()
		rows += tl.Rows
	}
	meanUtil := utilSum / numGPUs
	// Aggregate throughput in simulated time: wall * time scale.
	simWall := wall.Seconds() * 10
	res.Rows = append(res.Rows,
		Row{Name: "mean-gpu-utilization", Value: meanUtil * 100, Unit: "%"},
		Row{Name: "aggregate-throughput", Value: float64(rows) / simWall, Unit: "img/s",
			Extra: fmt.Sprintf("%d rows across %d GPUs", rows, numGPUs)},
	)
	// Loader-only (no model) throughput — the paper's "without model up
	// to 80,000 images/s per machine" companion measurement, run against
	// the same cross-region dataset.
	{
		l := dataloader.ForDataset(ds, dataloader.Options{BatchSize: 64, Workers: cfg.Workers})
		n := 0
		start := time.Now()
		for b := range l.Batches(ctx) {
			n += len(b.Samples)
		}
		if err := l.Err(); err != nil {
			return nil, err
		}
		simSecs := time.Since(start).Seconds() * 10
		res.Rows = append(res.Rows, Row{Name: "loader-only-throughput", Value: float64(n) / simSecs, Unit: "img/s",
			Extra: "no model attached"})
	}
	// Utilization timeline shape: report the mean utilization of the
	// first and second half of GPU 0's timeline (warmup vs steady state).
	if tl := timelines[0]; len(tl.Samples) >= 2 {
		half := len(tl.Samples) / 2
		var a, b float64
		for i, s := range tl.Samples {
			if i < half {
				a += s.Busy
			} else {
				b += s.Busy
			}
		}
		res.Rows = append(res.Rows,
			Row{Name: "gpu0-util-first-half", Value: a / float64(half) * 100, Unit: "%"},
			Row{Name: "gpu0-util-second-half", Value: b / float64(len(tl.Samples)-half) * 100, Unit: "%"},
		)
	}
	return res, nil
}
