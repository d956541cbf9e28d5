package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/encoder"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/tql"
)

// layers computes the traced run's per-layer metrics from three sources:
// public counters of the layers (LRU.Stats, Verify.Stats, Counting, ...),
// the spans recorded at the interposed storage boundaries and around the
// benchmark's own calls, and the layer replay below.
func (b *bench) layers(ctx context.Context, elapsed time.Duration, before, after usage) map[string]float64 {
	s := b.rec.series
	spans := b.tr.snapshot()
	all := b.read
	if b.ing != nil {
		all.accumulate(snap(b.ing.chain), counters{})
	}
	// Both origin taps — under the read chains and under the write chain —
	// are origin traffic.
	originBusy, originUnion, detached := busy(named(spans, "origin.", "ingest."))
	m := map[string]float64{
		"storage.origin.requests":             float64(all.requests()),
		"storage.origin.get_requests":         float64(all.reads()),
		"storage.origin.put_requests":         float64(all[cPuts]),
		"storage.origin.bytes_read":           float64(all[cBytesRead]),
		"storage.origin.bytes_written":        float64(all[cBytesWritten]),
		"storage.origin.busy_s":               originBusy.Seconds(),
		"storage.origin.mean_inflight":        ratio(originBusy.Seconds(), originUnion.Seconds()),
		"storage.origin.detached_calls":       float64(detached),
		"storage.coalesce.ranges_per_request": ratio(float64(all[cBatchRanges]), float64(all[cBatchGets])),
		"storage.lru.hit_ratio":               ratio(float64(all[cLRUHits]), float64(all[cLRUHits]+all[cLRUMisses])),
		"storage.lru.coalesced":               float64(all[cLRUCoalesced]),
		"storage.lru.prefetched":              float64(all[cLRUPrefetched]),
		"storage.lru.self_s":                  selfTime(spans, "lru.").Seconds(),
		"storage.verify.verified_ratio":       b.verifiedRatio(),
		"storage.verify.self_s":               selfTime(spans, "verify.").Seconds(),
		"storage.retry.retries":               float64(all[cRetries]),
		"storage.retry.self_s":                selfTime(spans, "retry.").Seconds(),
		"storage.meta.put_requests":           float64(all[cMetaPuts]),
		"storage.meta.bytes_written":          float64(all[cMetaPutBytes]),
		"storage.meta.get_requests":           float64(all[cMetaGets]),

		"core.open_s":              s["open"].sum(),
		"core.append_us_p50":       s["append"].median() * 1e6,
		"core.append_ms_p99":       s["append"].quantile(0.99) * 1e3,
		"core.append_s":            s["append"].sum(),
		"core.flush_s":             s["flush"].sum(),
		"core.commit_s":            s["commit"].sum(),
		"core.commit_puts_p50":     s["commit_puts"].median(),
		"core.commit_bytes_growth": growth(s["commit_bytes"]),

		"tql.scan.origin_req_per_query":     ratio(float64(b.scanRequests), float64(len(s["scan"]))),
		"tql.scan.rows_examined_per_result": ratio(float64(b.nrows), float64(len(b.expect("scan", b.src.wantScan)))),
		"tql.prefetch.claimed_ratio":        ratio(float64(b.scan.PrefetchClaimed()), float64(b.scan.PrefetchPlanned())),
		"tql.prefetch.strips":               float64(b.scan.PrefetchStrips()),
		"tql.pushdown_ms_p50":               s["push"].typical() * 1e3,
		"tql.pushdown_origin_requests":      float64(b.pushRequests),
		"tql.groupby_ms_p50":                s["group"].typical() * 1e3,

		"dataloader.batch_wait_ms_p50":       s["batch_wait"].median() * 1e3,
		"dataloader.batch_wait_ms_p99":       s["batch_wait"].quantile(0.99) * 1e3,
		"dataloader.epoch_s_max":             s["epoch"].max(),
		"dataloader.decodes_per_chunk_epoch": ratio(float64(b.decodes), float64(b.chunkEpochs)),
		"dataloader.nodecache.hit_ratio":     ratio(float64(b.node.Hits), float64(b.node.Hits+b.node.Misses)),
		"dataloader.nodecache.evictions":     float64(b.node.Evictions),
		"dataloader.nodecache.coalesced":     float64(b.node.Coalesced),

		"view.sparse_chunk_touch_ratio": s["view_touch_ratio"].median(),

		"process.cpu_s":               (after.cpu - before.cpu).Seconds(),
		"process.peak_rss_mb":         float64(after.maxRSS) / 1024,
		"process.allocs_per_smp":      ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(b.samples)),
		"process.alloc_bytes_per_smp": ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), float64(b.samples)),
		"process.gc_pause_ms":         float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		// What the end-to-end timings were scaled by: the reference
		// operation's typical duration, against refOpNominal.
		"process.ref_op_us": s["ref_op"].typical() * 1e6,

		"trace.spans": float64(len(spans)),
		// The share of the timed pass spent in the tracer's own bookkeeping:
		// spans recorded times the calibrated cost of recording one.
		"trace.overhead_frac": ratio(float64(len(spans))*spanCost().Seconds(), elapsed.Seconds()),
	}
	if err := b.replay(ctx, m); err != nil {
		b.rec.op("layer replay", err)
	}
	return m
}

// verifiedRatio is reads Verify checked against a digest over the chunk
// objects that crossed the origin boundary on resilient read chains: 1.0
// means digests were seeded through the whole chain and every chunk read
// was CRC-checked. Chains without a Verify layer report 0.
func (b *bench) verifiedRatio() float64 {
	return ratio(float64(b.read[cVerified]), float64(b.read[cChunkReads]))
}

// growth is the last sample over the first: above 1 means the cost of the
// repeated unit grows with the dataset.
func growth(s samples) float64 {
	if len(s) < 2 {
		return 0
	}
	return ratio(s[len(s)-1], s[0])
}

// timeEach runs f n times and returns the mean duration of one call.
func timeEach(n int, f func(i int)) time.Duration {
	if n <= 0 {
		return 0
	}
	begin := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(begin) / time.Duration(n)
}

func mbPerS(bytes int64, d time.Duration) float64 {
	return ratio(float64(bytes)/1e6, d.Seconds())
}

// replay feeds what the run touched — the stored chunk blobs, the generated
// samples, batches of them, the query strings — once through each layer's
// public entry points and times them, giving a unit cost per layer that,
// multiplied by the counts above, says what each layer's share was.
func (b *bench) replay(ctx context.Context, m map[string]float64) error {
	if b.data == nil {
		return nil
	}
	lz4, err := compress.ByName("lz4")
	if err != nil {
		return err
	}
	jpeg, err := compress.SampleByName("jpeg")
	if err != nil {
		return err
	}
	ds, err := core.Open(ctx, storage.NewLRU(b.data, 1<<30))
	if err != nil {
		return err
	}
	compressed := map[string]bool{}
	for _, f := range b.src.fields {
		compressed[f.name] = ds.Tensor(f.name).Meta().ChunkCompression == "lz4"
	}

	// chunk + lz4 + CRC: every stored chunk object.
	keys, err := b.data.List(ctx, "versions/")
	if err != nil {
		return err
	}
	var (
		nChunks                                  int
		stored, decoded, lzRaw                   int64
		decodeT, verifyT, encodeT, lzDecT, lzEnc time.Duration
		crcT                                     time.Duration
	)
	for _, key := range keys {
		if !isChunkKey(key) {
			continue
		}
		blob, err := b.data.Get(ctx, key)
		if err != nil {
			return err
		}
		nChunks++
		stored += int64(len(blob))
		t0 := time.Now()
		storage.Checksum(blob)
		crcT += time.Since(t0)
		raw := blob
		if compressed[tensorOfKey(key)] {
			t0 = time.Now()
			if raw, err = lz4.Decompress(blob); err != nil {
				return fmt.Errorf("replay %s: %w", key, err)
			}
			lzDecT += time.Since(t0)
			lzRaw += int64(len(raw))
			t0 = time.Now()
			if _, err = lz4.Compress(raw); err != nil {
				return err
			}
			lzEnc += time.Since(t0)
		}
		t0 = time.Now()
		if _, err = chunk.Verify(raw); err != nil {
			return fmt.Errorf("replay %s: %w", key, err)
		}
		verifyT += time.Since(t0)
		t0 = time.Now()
		samples, err := chunk.DecodeAppend(raw, nil)
		if err != nil {
			return fmt.Errorf("replay %s: %w", key, err)
		}
		decodeT += time.Since(t0)
		decoded += int64(len(raw))
		t0 = time.Now()
		if _, err = chunk.Encode(samples); err != nil {
			return err
		}
		encodeT += time.Since(t0)
	}
	per := func(d time.Duration) float64 { return ratio(float64(d.Microseconds()), float64(nChunks)) }
	m["chunk.count"] = float64(nChunks)
	m["chunk.mean_bytes"] = ratio(float64(stored), float64(nChunks))
	m["chunk.decode_us_per_chunk"] = per(decodeT)
	m["chunk.decode_mb_per_s"] = mbPerS(decoded, decodeT)
	m["chunk.verify_us_per_chunk"] = per(verifyT)
	m["chunk.encode_us_per_chunk"] = per(encodeT)
	m["compress.lz4.compress_mb_per_s"] = mbPerS(lzRaw, lzEnc)
	m["compress.lz4.decompress_mb_per_s"] = mbPerS(lzRaw, lzDecT)
	m["storage.verify.crc_mb_per_s"] = mbPerS(stored, crcT)

	// compress (JPEG), tensor: the generated samples.
	rows := b.src.rows
	n := min(len(rows), 512)
	if b.src.kind == dImg {
		d := timeEach(n, func(i int) { _, _, _, _, err = jpeg.Decode(rows[i].encoded) })
		if err != nil {
			return err
		}
		m["compress.jpeg.decode_us_per_sample"] = float64(d.Nanoseconds()) / 1e3
	}
	d := timeEach(n, func(i int) { rows[i].pixels.Mean() })
	m["tensor.mean_ns_per_elem"] = ratio(float64(d.Nanoseconds()), float64(rows[0].pixels.Len()))
	var stack time.Duration
	for f := range b.src.fields {
		arrs := make([]*tensor.NDArray, batchSize)
		for i := range arrs {
			if arrs[i] = rows[i%len(rows)].arrays[f]; arrs[i] == nil {
				arrs[i] = rows[i%len(rows)].pixels
			}
		}
		buf := make([]byte, arrs[0].NumBytes()*len(arrs))
		stack += timeEach(64, func(int) { _, err = tensor.StackInto(arrs, buf) })
		if err != nil {
			return err
		}
	}
	m["tensor.stack_into_us_per_batch"] = float64(stack.Nanoseconds()) / 1e3

	// encoder, core.ScanReader: the dataset's actual layout.
	var marshal int
	for _, f := range b.src.fields {
		t := ds.Tensor(f.name)
		ce, se := encoder.NewChunkEncoder(), encoder.NewShapeEncoder()
		for _, sp := range t.ChunkSpans() {
			if err := ce.Append(sp.ChunkID, int(sp.Last-sp.First+1)); err != nil {
				return err
			}
		}
		for i := uint64(0); i < t.Len(); i++ {
			shape, err := t.Shape(i)
			if err != nil {
				return err
			}
			se.Append(shape)
		}
		cb, _ := ce.MarshalBinary()
		sb, _ := se.MarshalBinary()
		marshal += len(cb) + len(sb)
		if f.name != b.src.primary() {
			continue
		}
		rows := int(t.Len())
		const lookups = 200000
		d := timeEach(lookups, func(i int) { _, _, err = ce.Lookup(uint64(i*7919) % uint64(rows)) })
		if err != nil {
			return err
		}
		m["encoder.chunk_lookup_ns"] = float64(d.Nanoseconds())
		d = timeEach(lookups, func(i int) { _, err = se.Get(uint64(i*7919) % uint64(rows)) })
		if err != nil {
			return err
		}
		m["encoder.shape_get_ns"] = float64(d.Nanoseconds())
		reader := t.NewScanReader()
		d = timeEach(min(rows, 1000), func(i int) { _, err = reader.At(ctx, uint64(i)) })
		if err != nil {
			return err
		}
		m["core.scanreader.at_us"] = float64(d.Nanoseconds()) / 1e3
	}
	m["encoder.marshal_bytes"] = float64(marshal)

	// tql: the query strings.
	scanQ, filterQ, pushQ, groupQ, viewQ := b.src.queries()
	queries := []string{scanQ, filterQ, pushQ, groupQ, viewQ}
	parsed := make([]*tql.Query, len(queries))
	d = timeEach(200*len(queries), func(i int) { parsed[i%len(queries)], err = tql.Parse(queries[i%len(queries)]) })
	if err != nil {
		return err
	}
	m["tql.parse_us"] = float64(d.Nanoseconds()) / 1e3
	d = timeEach(200*len(queries), func(i int) { _, err = tql.Compile(parsed[i%len(queries)]) })
	if err != nil {
		return err
	}
	m["tql.compile_us"] = float64(d.Nanoseconds()) / 1e3

	// storage.Coalesce: plan one strip of whole-chunk requests.
	reqs := make([]storage.RangeReq, 0, 16)
	for _, key := range keys {
		if isChunkKey(key) && len(reqs) < cap(reqs) {
			reqs = append(reqs, storage.RangeReq{Key: key, Length: -1})
		}
	}
	d = timeEach(2000, func(int) { storage.Coalesce(reqs, storage.PlanOptions{SizeHint: int64(chunkBounds.Target)}) })
	m["storage.coalesce.plan_us"] = float64(d.Nanoseconds()) / 1e3

	return replayDisk(ctx, b.cfg.dir, m)
}

// tensorOfKey extracts the tensor name from versions/<v>/tensors/<name>/chunks/<id>.
func tensorOfKey(key string) string {
	_, rest, _ := strings.Cut(key, "/tensors/")
	name, _, _ := strings.Cut(rest, "/chunks/")
	return name
}

// replayDisk times the local-disk tier by direct calls on a temporary
// directory under parent. The tier is in no timed workload: its fsyncs would
// measure the sandbox's device, not the program.
func replayDisk(ctx context.Context, parent string, m map[string]float64) error {
	dir, err := os.MkdirTemp(parent, ".lakebench-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := storage.NewDisk(storage.NewMemory(), dir, storage.DiskOptions{})
	if err != nil {
		return err
	}
	blob := make([]byte, chunkBounds.Target)
	const n = 16
	d := timeEach(n, func(i int) {
		if perr := disk.Put(ctx, fmt.Sprintf("chunks/%04d", i), blob); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}
	m["storage.disk.put_us"] = float64(d.Nanoseconds()) / 1e3
	d = timeEach(n, func(i int) {
		if _, gerr := disk.Get(ctx, fmt.Sprintf("chunks/%04d", i)); gerr != nil {
			err = gerr
		}
	})
	if err != nil {
		return err
	}
	m["storage.disk.get_hit_us"] = float64(d.Nanoseconds()) / 1e3
	return nil
}
