package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// chaosFlushRetries bounds both the pipeline's re-attempts per chunk upload
// and the bench's own Flush retry loop during the faulty ingest phase.
const chaosFlushRetries = 8

// Chaos measures the resilience layer end to end: the same train and ingest
// workloads as the headline scenarios, but running over a fault-injecting
// simulated S3 (seeded transient errors, black-hole stalls, partial reads)
// behind the canonical resilient chain (singleflight cache -> Retry ->
// fault-injecting origin). Every row is gated on a correctness contract, not
// just a throughput number:
//
//   - hot-chunk: one injected transient fault under a 16-way coalesced miss
//     costs exactly ONE extra origin request — the flight leader retries on
//     behalf of all waiters (the Retry-below-singleflight ordering).
//   - train: an epoch over 5%-flaky S3 delivers a batch stream byte-identical
//     to the fault-free epoch, with logical (net-of-retries) origin requests
//     still exactly one per chunk.
//   - ingest: a full ingest over a Put-faulty origin — failed chunk uploads
//     re-attempted by the flush pipeline under backoff, what survives that
//     parked and redriven by Flush — lands an object set byte-identical to
//     the fault-free ingest.
//   - corruption: an epoch over a wire that silently flips bits and truncates
//     transfers still delivers a byte-identical batch stream — the Verify
//     layer (digests seeded from the chunk checksum manifests at Open)
//     detects and heals every damaged transfer at exactly one extra origin
//     request each, with none quarantined.
//   - crash: a writer killed between chunk upload and root publish leaves
//     the previous generation fully readable; fsck reports only collectable
//     garbage (abandoned staged root, orphan chunks, torn plain metadata),
//     and -repair restores a clean, readable dataset.
func Chaos(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(384)
	res := &Result{
		ID:     "chaos",
		Title:  fmt.Sprintf("train + ingest of %d samples over faulty simulated S3 (seeded transient errors, stalls, partial reads)", cfg.N),
		Better: "lower",
	}
	res.Notes = append(res.Notes,
		"chain: LRU byte cache (coalesced fetch plans) + loader cache -> Verify (CRC32C + self-heal) -> Counting (logical ledger) -> Retry (capped exp backoff, per-op timeout) -> Faulty -> sim S3",
		"every row asserts a recovery contract: byte-identical delivery, fetch-once net of retries, one extra request per faulted batch or damaged transfer, deterministic worker-death errors, crash-consistent commits")

	if err := chaosHotChunk(ctx, cfg, res); err != nil {
		return nil, err
	}
	if err := chaosBatchedFetch(ctx, cfg, res); err != nil {
		return nil, err
	}
	if err := chaosWorkerDeath(ctx, cfg, res); err != nil {
		return nil, err
	}
	if err := chaosTrain(ctx, cfg, res); err != nil {
		return nil, err
	}
	if err := chaosIngest(ctx, cfg, res); err != nil {
		return nil, err
	}
	if err := chaosCorruptHotChunk(ctx, cfg, res); err != nil {
		return nil, err
	}
	if err := chaosCorruption(ctx, cfg, res); err != nil {
		return nil, err
	}
	if err := chaosCrash(ctx, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// chaosCorruptHotChunk is the silent-fault mirror of the hot-chunk litmus:
// 16 readers coalesce on one cold chunk whose first transfer arrives with a
// flipped bit. The Verify layer under the singleflight cache must detect the
// mismatch against the seeded digest and heal with exactly ONE extra origin
// request — the flight leader re-fetches on behalf of every waiter, and
// nobody ever sees the poisoned bytes.
func chaosCorruptHotChunk(ctx context.Context, cfg Config, res *Result) error {
	mem := storage.NewMemory()
	payload := bytes.Repeat([]byte{0xCD}, 1<<20)
	if err := mem.Put(ctx, "hot/chunk", payload); err != nil {
		return err
	}
	faulty := storage.NewFaulty(mem, storage.FaultConfig{Seed: cfg.Seed, CorruptRate: 1, MaxFaults: 1})
	attempts := storage.NewCounting(faulty)
	verify := storage.NewVerify(attempts, storage.VerifyOptions{})
	verify.SeedDigest("hot/chunk", storage.Checksum(payload))
	cache := storage.NewLRU(verify, 1<<30)

	const readers = 16
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	gate := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			data, err := cache.Get(ctx, "hot/chunk")
			if err == nil && !bytes.Equal(data, payload) {
				err = fmt.Errorf("chaos: corrupted hot chunk bytes leaked past verification")
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	close(gate)
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("chaos: corrupt-hot-chunk reader failed (heal did not absorb the flip): %w", firstErr)
	}
	gets := attempts.Snapshot().Gets
	if gets != 2 {
		return fmt.Errorf("chaos: corrupted hot chunk cost %d origin Gets, want exactly 2 (one poisoned + one heal for all %d waiters)", gets, readers)
	}
	stats := cache.Stats()
	if stats.CorruptionsDetected != 1 || stats.CorruptionsRepaired != 1 {
		return fmt.Errorf("chaos: cache stats report %d detected / %d repaired corruptions, want 1/1", stats.CorruptionsDetected, stats.CorruptionsRepaired)
	}
	res.Rows = append(res.Rows, Row{
		Name: "corruption-extra-requests", Value: float64(gets - 1), Unit: "reqs",
		Extra: fmt.Sprintf("%d coalesced readers, 1 flipped bit, %d origin Gets, 1 heal", readers, gets),
	})
	return nil
}

// chaosCorruption runs the train epoch over a wire that silently damages
// transfers — seeded bit flips and truncations that the transport reports as
// success — with the Verify layer stacked under the byte cache and digests
// seeded from the per-tensor checksum manifests at Open. The contract: the
// delivered batch stream is byte-identical to the fault-free epoch, every
// damaged transfer is detected and healed (none quarantined), and each
// damaged transfer costs exactly ONE extra origin request.
func chaosCorruption(ctx context.Context, cfg Config, res *Result) error {
	spec := workload.ImageSpec{Height: 16, Width: 16, Channels: 3, Seed: cfg.Seed}
	samples := rawSampleSet(cfg, spec)
	bounds := chunk.Bounds{Min: 512, Target: 1 << 10, Max: 2 << 10}
	profile := simnet.S3SameRegion()
	profile.TimeScale = trainScale

	origin := storage.NewSimObjectStore(profile)
	// Silent faults only: no transport errors, so no Retry layer — every
	// recovery below is the integrity machinery's own doing. The combined
	// rate is 1 with a small MaxFaults budget, so EXACTLY chaosDamageBudget
	// transfers arrive damaged regardless of how the readahead scheduler
	// batches requests — the coalesced plans draw too few schedule positions
	// for probabilistic rates to be reliable. A heal re-fetch draws from the
	// same schedule, so one unlucky key can eat several budget units in its
	// heal loop; HealAttempts must exceed the whole budget.
	const chaosDamageBudget = 6
	faulty := storage.NewFaulty(origin, storage.FaultConfig{
		Seed:         cfg.Seed,
		CorruptRate:  0.7,
		TruncateRate: 0.3,
		MaxFaults:    chaosDamageBudget,
	})
	faulty.SetArmed(false)
	logical := storage.NewCounting(faulty)
	verify := storage.NewVerify(logical, storage.VerifyOptions{HealAttempts: chaosDamageBudget + 2, QuarantineAfter: -1})

	if _, err := ingestDeepLake(ctx, logical, samples, bounds); err != nil {
		return err
	}
	openCold := func() (*core.Dataset, *storage.LRU, int64, error) {
		cache := storage.NewLRU(verify, 1<<30)
		ds, err := core.Open(ctx, cache)
		if err != nil {
			return nil, nil, 0, err
		}
		if info := ds.Integrity(); info.SeededDigests == 0 || info.ChunksWithoutChecksum != 0 {
			return nil, nil, 0, fmt.Errorf("chaos: digest seeding incomplete at open: %+v", info)
		}
		chunks := int64(ds.Tensor("images").NumChunks() + ds.Tensor("labels").NumChunks())
		logical.Reset()
		return ds, cache, chunks, nil
	}

	ds, _, _, err := openCold()
	if err != nil {
		return err
	}
	refHash, refN, err := streamHash(ctx, ds, cfg.Workers, cfg.Seed)
	if err != nil {
		return fmt.Errorf("chaos: fault-free reference epoch: %w", err)
	}
	if refN != cfg.N {
		return fmt.Errorf("chaos: reference epoch delivered %d/%d rows", refN, cfg.N)
	}

	ds, cache, chunks, err := openCold()
	if err != nil {
		return err
	}
	faulty.SetArmed(true)
	hash, n, err := streamHash(ctx, ds, cfg.Workers, cfg.Seed)
	faulty.SetArmed(false)
	if err != nil {
		return fmt.Errorf("chaos: epoch over corrupting wire failed (verification must heal silent faults): %w", err)
	}
	if n != cfg.N {
		return fmt.Errorf("chaos: corrupted epoch delivered %d/%d rows", n, cfg.N)
	}
	if hash != refHash {
		return fmt.Errorf("chaos: corrupted epoch batch stream differs from fault-free epoch (a silent fault leaked through)")
	}
	fs := faulty.Stats()
	damaged := fs.Corruptions + fs.Truncations
	if damaged == 0 {
		return fmt.Errorf("chaos: fault schedule damaged nothing (seed %d too sparse for n=%d)", cfg.Seed, cfg.N)
	}
	stats := cache.Stats()
	if stats.CorruptionsDetected != damaged || stats.CorruptionsRepaired != damaged {
		return fmt.Errorf("chaos: %d transfers damaged but verify detected %d / repaired %d", damaged, stats.CorruptionsDetected, stats.CorruptionsRepaired)
	}
	if stats.Quarantined != 0 {
		return fmt.Errorf("chaos: %d keys quarantined during a recoverable epoch", stats.Quarantined)
	}
	// The price of integrity: each damaged transfer costs exactly one extra
	// origin request (the heal re-fetch), on top of fetch-once per chunk.
	snap := logical.Snapshot()
	moved := snap.Gets + snap.RangeGets + snap.BatchRanges
	if moved != chunks+damaged {
		return fmt.Errorf("chaos: corrupted epoch moved %d objects for %d chunks + %d damaged transfers (heals must cost exactly one re-fetch each)", moved, chunks, damaged)
	}
	res.Rows = append(res.Rows, Row{
		Name: "corruption-extra-requests-per-fault", Value: float64(moved-chunks) / float64(damaged), Unit: "reqs",
		Extra: fmt.Sprintf("%d flips + %d truncations over %d chunks, all healed, stream byte-identical", fs.Corruptions, fs.Truncations, chunks),
	})
	res.Notes = append(res.Notes,
		fmt.Sprintf("corruption: %d damaged transfers (%d flipped, %d truncated); verify detected %d, repaired %d, quarantined %d; batch stream byte-identical",
			damaged, fs.Corruptions, fs.Truncations, stats.CorruptionsDetected, stats.CorruptionsRepaired, stats.Quarantined))
	return nil
}

// publishGuillotine simulates a writer killed at the publish point of the
// staged-root commit protocol: once armed, the Put that rewrites
// dataset.json fails permanently. Chunk uploads, plain metadata and the
// staged roots/<gen> snapshot all land; the generation is never published.
type publishGuillotine struct {
	storage.Provider
	armed bool
}

func (g *publishGuillotine) Put(ctx context.Context, key string, data []byte) error {
	if g.armed && key == "dataset.json" {
		return fmt.Errorf("chaos: simulated crash before publishing %q", key)
	}
	return g.Provider.Put(ctx, key, data)
}

// chaosCrash kills a writer between chunk upload and root publish, then
// holds the survivors to the crash-consistency contract: the dataset reopens
// at the previous generation with every published row intact, fsck reports
// the crash footprint (abandoned staged root, orphan chunks, torn plain
// metadata) with NOTHING missing or corrupt, and fsck -repair collects it
// all, after which the dataset is clean and still readable.
func chaosCrash(ctx context.Context, cfg Config, res *Result) error {
	spec := workload.ImageSpec{Height: 16, Width: 16, Channels: 3, Seed: cfg.Seed}
	samples := rawSampleSet(cfg, spec)
	bounds := chunk.Bounds{Min: 512, Target: 1 << 10, Max: 2 << 10}
	half := len(samples) / 2

	mem := storage.NewMemory()
	g := &publishGuillotine{Provider: mem}
	ds, err := core.Create(ctx, g, "chaos-crash")
	if err != nil {
		return err
	}
	images, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "images", Htype: "generic", Dtype: tensor.UInt8, Bounds: bounds})
	if err != nil {
		return err
	}
	labels, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label", Bounds: bounds})
	if err != nil {
		return err
	}
	appendRange := func(from, to int) error {
		for _, s := range samples[from:to] {
			arr, err := tensor.FromBytes(tensor.UInt8, s.Shape, s.Data)
			if err != nil {
				return err
			}
			if err := images.Append(ctx, arr); err != nil {
				return err
			}
			if err := labels.Append(ctx, tensor.Scalar(tensor.Int32, float64(s.Label))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := appendRange(0, half); err != nil {
		return err
	}
	if err := ds.Flush(ctx); err != nil {
		return err
	}

	// The kill: the second half's chunks and plain metadata land, the
	// staged root lands, the publish never happens.
	g.armed = true
	if err := appendRange(half, len(samples)); err != nil {
		return err
	}
	if err := ds.Flush(ctx); err == nil {
		return fmt.Errorf("chaos: flush through the publish guillotine should fail")
	}

	back, err := core.Open(ctx, mem)
	if err != nil {
		return fmt.Errorf("chaos: reopen after crash: %w", err)
	}
	if n := back.NumRows(); n != uint64(half) {
		return fmt.Errorf("chaos: crashed dataset reopened at %d rows, want the %d of the published generation", n, half)
	}
	info := back.Integrity()
	if info.AbandonedGeneration != info.Generation+1 {
		return fmt.Errorf("chaos: abandoned generation not detected: %+v", info)
	}
	for _, i := range []int{0, half / 2, half - 1} {
		arr, err := back.Tensor("images").At(ctx, uint64(i))
		if err != nil {
			return fmt.Errorf("chaos: read row %d after crash: %w", i, err)
		}
		if !bytes.Equal(arr.Bytes(), samples[i].Data) {
			return fmt.Errorf("chaos: row %d bytes differ after crash recovery", i)
		}
	}

	rep, err := core.Fsck(ctx, mem, core.FsckOptions{})
	if err != nil {
		return err
	}
	if rep.Clean() {
		return fmt.Errorf("chaos: fsck missed the crashed writer's footprint")
	}
	orphans := 0
	for _, issue := range rep.Issues {
		switch issue.Kind {
		case core.FsckOrphanChunk:
			orphans++
		case core.FsckMissingChunk, core.FsckMissingObject, core.FsckChecksumMismatch, core.FsckMissingRoot:
			return fmt.Errorf("chaos: crash must not lose or corrupt published data: %s", issue)
		}
		if !issue.Repairable {
			return fmt.Errorf("chaos: crash footprint must be fully repairable: %s", issue)
		}
	}
	if orphans == 0 {
		return fmt.Errorf("chaos: no orphan chunks found from the dead generation:\n%s", rep.Format())
	}
	repairRep, err := core.Fsck(ctx, mem, core.FsckOptions{Repair: true})
	if err != nil {
		return err
	}
	if !repairRep.Clean() {
		return fmt.Errorf("chaos: fsck -repair left issues:\n%s", repairRep.Format())
	}
	rep, err = core.Fsck(ctx, mem, core.FsckOptions{})
	if err != nil {
		return err
	}
	if !rep.Clean() || len(rep.Issues) != 0 {
		return fmt.Errorf("chaos: dataset not clean after repair:\n%s", rep.Format())
	}
	back, err = core.Open(ctx, mem)
	if err != nil {
		return fmt.Errorf("chaos: reopen after repair: %w", err)
	}
	if n := back.NumRows(); n != uint64(half) {
		return fmt.Errorf("chaos: repaired dataset has %d rows, want %d", n, half)
	}
	res.Rows = append(res.Rows, Row{
		Name: "crash-orphans-repaired", Value: float64(orphans), Unit: "chunks",
		Extra: fmt.Sprintf("killed before publishing gen %d; reopened at gen %d with %d rows; %d issues repaired", info.AbandonedGeneration, info.Generation, half, len(repairRep.Issues)),
	})
	res.Notes = append(res.Notes,
		fmt.Sprintf("crash: writer killed between chunk upload and root publish; previous generation fully readable, %d orphan chunks collected by fsck -repair", orphans))
	return nil
}

// chaosHotChunk is the singleflight+retry litmus: 16 readers coalesce on one
// cold chunk whose first origin Get is forced to fail transiently. The flight
// leader must retry once on behalf of everyone — origin sees exactly two
// Gets, no waiter sees an error, and the retry surfaces in the cache Stats.
func chaosHotChunk(ctx context.Context, cfg Config, res *Result) error {
	mem := storage.NewMemory()
	payload := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := mem.Put(ctx, "hot/chunk", payload); err != nil {
		return err
	}
	// MaxFaults 1 + GetErrRate 1: the first Get fails, everything after
	// passes — the minimal reproducible fault.
	faulty := storage.NewFaulty(mem, storage.FaultConfig{Seed: cfg.Seed, GetErrRate: 1, MaxFaults: 1})
	attempts := storage.NewCounting(faulty)
	retry := storage.NewRetry(attempts, storage.RetryOptions{
		Attempts: 4,
		Backoff:  storage.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: cfg.Seed},
	})
	cache := storage.NewLRU(retry, 1<<30)

	const readers = 16
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	gate := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			data, err := cache.Get(ctx, "hot/chunk")
			if err == nil && !bytes.Equal(data, payload) {
				err = fmt.Errorf("chaos: hot chunk bytes corrupted through retry")
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	close(gate)
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("chaos: hot-chunk reader failed (fault leaked past retry): %w", firstErr)
	}
	gets := attempts.Snapshot().Gets
	if gets != 2 {
		return fmt.Errorf("chaos: hot chunk cost %d origin Gets, want exactly 2 (one fault + one retry for all %d waiters)", gets, readers)
	}
	stats := cache.Stats()
	if stats.Retries != 1 {
		return fmt.Errorf("chaos: cache stats report %d retries, want 1", stats.Retries)
	}
	if stats.Faults != 1 {
		return fmt.Errorf("chaos: cache stats report %d faults, want 1", stats.Faults)
	}
	res.Rows = append(res.Rows, Row{
		Name: "hot-chunk-extra-requests", Value: float64(gets - 1), Unit: "reqs",
		Extra: fmt.Sprintf("%d coalesced readers, %d origin Gets, %d retry", readers, gets, stats.Retries),
	})
	return nil
}

// chaosBatchedFetch is the coalesced-fetch analogue of the hot-chunk litmus:
// the LRU's fetch planner packs N cold chunks into ONE batched ranged origin
// request, and that request is forced to fault mid-batch. The batch contract
// (ranges served before the cut stay served) plus Retry's missing-only
// re-issue must make the fault cost exactly ONE extra origin request — never
// a resend of bytes already received, never one recovery request per waiter.
func chaosBatchedFetch(ctx context.Context, cfg Config, res *Result) error {
	mem := storage.NewMemory()
	const chunks = 12
	const chunkBytes = 64 << 10
	keys := make([]string, chunks)
	for i := range keys {
		keys[i] = fmt.Sprintf("cold/chunk-%03d", i)
		if err := mem.Put(ctx, keys[i], bytes.Repeat([]byte{byte(i)}, chunkBytes)); err != nil {
			return err
		}
	}
	// MaxFaults 1 + GetErrRate 1: the first batched get faults at a seeded
	// mid-batch cut point, everything after passes.
	faulty := storage.NewFaulty(mem, storage.FaultConfig{Seed: cfg.Seed, GetErrRate: 1, MaxFaults: 1})
	attempts := storage.NewCounting(faulty)
	retry := storage.NewRetry(attempts, storage.RetryOptions{
		Attempts: 4,
		Backoff:  storage.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: cfg.Seed},
	})
	cache := storage.NewLRU(retry, 1<<30)

	fetched, err := cache.Prefetch(ctx, keys, storage.PlanOptions{SizeHint: chunkBytes})
	if err != nil {
		return fmt.Errorf("chaos: coalesced prefetch failed (batch fault leaked past retry): %w", err)
	}
	if fetched != chunks {
		return fmt.Errorf("chaos: coalesced prefetch landed %d/%d chunks", fetched, chunks)
	}
	snap := attempts.Snapshot()
	if snap.BatchGets != 2 {
		return fmt.Errorf("chaos: one mid-batch fault cost %d batched origin requests, want exactly 2 (the batch + one missing-tail retry)", snap.BatchGets)
	}
	if snap.BatchRanges >= 2*chunks {
		return fmt.Errorf("chaos: retry resent already-received ranges (%d wire ranges for %d chunks)", snap.BatchRanges, chunks)
	}
	if snap.Gets != 0 || snap.RangeGets != 0 {
		return fmt.Errorf("chaos: recovery degraded to per-chunk requests: %+v", snap)
	}
	// Every chunk must now be cache-resident and intact, with zero further
	// origin traffic.
	for i, key := range keys {
		data, err := cache.Get(ctx, key)
		if err != nil {
			return err
		}
		if len(data) != chunkBytes || data[0] != byte(i) || data[chunkBytes-1] != byte(i) {
			return fmt.Errorf("chaos: chunk %q corrupted through the faulted batch", key)
		}
	}
	if after := attempts.Snapshot(); after.Requests() != snap.Requests() {
		return fmt.Errorf("chaos: post-prefetch reads reached the origin (%d -> %d requests)", snap.Requests(), after.Requests())
	}
	res.Rows = append(res.Rows, Row{
		Name: "batched-fault-extra-requests", Value: float64(snap.BatchGets - 1), Unit: "reqs",
		Extra: fmt.Sprintf("%d chunks in one fetch plan, %d batched requests, %d wire ranges (fault cut mid-batch)",
			chunks, snap.BatchGets, snap.BatchRanges),
	})
	return nil
}

// chaosWorkerDeath kills a dataloader worker goroutine mid-epoch (user code
// calling runtime.Goexit inside a Transform — the Go analogue of a worker
// process dying) and asserts the deterministic error-delivery contract: the
// delivered rows are an in-order prefix of full batches strictly before the
// dying row's delivery position, and Loader.Err reports ErrWorkerDied with
// that position — identically on every run and at any worker count.
func chaosWorkerDeath(ctx context.Context, cfg Config, res *Result) error {
	rows := cfg.N
	if rows > 128 {
		rows = 128
	}
	killRow := rows / 2
	mem := storage.NewMemory()
	ds, err := core.Create(ctx, mem, "chaos-death")
	if err != nil {
		return err
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{
		Name: "x", Dtype: tensor.Int32,
		Bounds: chunk.Bounds{Min: 128, Target: 256, Max: 512},
	})
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		arr, err := tensor.FromFloat64s(tensor.Int32, []int{4},
			[]float64{float64(i), float64(i + 1), float64(i + 2), float64(i + 3)})
		if err != nil {
			return err
		}
		if err := x.Append(ctx, arr); err != nil {
			return err
		}
	}
	if err := ds.Flush(ctx); err != nil {
		return err
	}

	var errTexts []string
	for run, workers := range []int{1, cfg.Workers} {
		l := dataloader.ForDataset(ds, dataloader.Options{
			BatchSize: 8, Workers: workers,
			Transform: func(s map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error) {
				if v, _ := s["x"].At(0); int(v) == killRow {
					runtime.Goexit() // the kill: this worker goroutine dies here
				}
				return s, nil
			},
		})
		next := 0
		for b := range l.Batches(ctx) {
			if len(b.Samples) != 8 {
				return fmt.Errorf("chaos: worker death leaked a partial batch of %d (run %d, %d workers)", len(b.Samples), run, workers)
			}
			for _, s := range b.Samples {
				if v, _ := s["x"].At(0); int(v) != next {
					return fmt.Errorf("chaos: row %v delivered out of order after worker death (want %d)", v, next)
				}
				next++
			}
		}
		if next > killRow {
			return fmt.Errorf("chaos: %d rows delivered at/past the dying row %d", next, killRow)
		}
		err := l.Err()
		if !errors.Is(err, dataloader.ErrWorkerDied) {
			return fmt.Errorf("chaos: worker death surfaced as %v, want ErrWorkerDied (silent truncation?)", err)
		}
		errTexts = append(errTexts, err.Error())
	}
	if errTexts[0] != errTexts[1] {
		return fmt.Errorf("chaos: worker-death error not deterministic across worker counts: %q vs %q", errTexts[0], errTexts[1])
	}
	res.Rows = append(res.Rows, Row{
		Name: "worker-death-kill-position", Value: float64(killRow), Unit: "row",
		Extra: fmt.Sprintf("goroutine killed at row %d of %d; in-order prefix delivered, then %q — identical at 1 and %d workers",
			killRow, rows, errTexts[0], cfg.Workers),
	})
	return nil
}

// chaosTrain streams one shuffled epoch over a faulty origin and proves the
// delivered batch stream is byte-identical to the fault-free epoch, with the
// logical request ledger (counted above Retry, so net of recovery traffic)
// still exactly one fetch per chunk.
func chaosTrain(ctx context.Context, cfg Config, res *Result) error {
	spec := workload.ImageSpec{Height: 16, Width: 16, Channels: 3, Seed: cfg.Seed}
	samples := rawSampleSet(cfg, spec)
	bounds := chunk.Bounds{Min: 512, Target: 1 << 10, Max: 2 << 10}
	profile := simnet.S3SameRegion()
	profile.TimeScale = trainScale

	origin := storage.NewSimObjectStore(profile)
	faulty := storage.NewFaulty(origin, storage.FaultConfig{
		Seed:         cfg.Seed,
		GetErrRate:   0.05,
		RangeErrRate: 0.05,
		StallRate:    0.02,
		PartialRate:  0.03,
		PartialBytes: 256,
	})
	retry := storage.NewRetry(faulty, storage.RetryOptions{
		Attempts:  6,
		OpTimeout: 200 * time.Millisecond,
		Backoff:   storage.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Seed: cfg.Seed},
	})
	logical := storage.NewCounting(retry)

	// Ingest and the fault-free reference epoch run disarmed; only the
	// epoch under study sees faults.
	faulty.SetArmed(false)
	if _, err := ingestDeepLake(ctx, logical, samples, bounds); err != nil {
		return err
	}
	openCold := func() (*core.Dataset, int64, error) {
		// A fresh byte cache per epoch run keeps the run cold, and its
		// presence makes the readahead scheduler's coalesced fetch plans run
		// through the faulty wire — batched multi-range requests are in the
		// chaos chain, not just per-chunk Gets.
		cache := storage.NewLRU(logical, 1<<30)
		ds, err := core.Open(ctx, cache)
		if err != nil {
			return nil, 0, err
		}
		chunks := int64(ds.Tensor("images").NumChunks() + ds.Tensor("labels").NumChunks())
		logical.Reset()
		return ds, chunks, nil
	}

	ds, _, err := openCold()
	if err != nil {
		return err
	}
	cleanStart := time.Now()
	refHash, refN, err := streamHash(ctx, ds, cfg.Workers, cfg.Seed)
	if err != nil {
		return fmt.Errorf("chaos: fault-free reference epoch: %w", err)
	}
	cleanElapsed := time.Since(cleanStart)
	if refN != cfg.N {
		return fmt.Errorf("chaos: reference epoch delivered %d/%d rows", refN, cfg.N)
	}

	ds, chunks, err := openCold()
	if err != nil {
		return err
	}
	faulty.SetArmed(true)
	chaosStart := time.Now()
	hash, n, err := streamHash(ctx, ds, cfg.Workers, cfg.Seed)
	chaosElapsed := time.Since(chaosStart)
	faulty.SetArmed(false)
	if err != nil {
		return fmt.Errorf("chaos: epoch over faulty origin failed (retry layer must absorb transient faults): %w", err)
	}
	if n != cfg.N {
		return fmt.Errorf("chaos: faulty epoch delivered %d/%d rows", n, cfg.N)
	}
	if hash != refHash {
		return fmt.Errorf("chaos: faulty epoch batch stream differs from fault-free epoch (byte-identity broken by recovery)")
	}
	// Fetch-once under coalescing: every chunk object moved over the wire
	// exactly once net of retries (whole gets + range gets + ranges inside
	// batched gets), while the logical request count stays strictly below
	// the chunk count — the fetch planner kept batching even under faults.
	snap := logical.Snapshot()
	if moved := snap.Gets + snap.RangeGets + snap.BatchRanges; moved != chunks {
		return fmt.Errorf("chaos: faulty epoch moved %d chunk objects for %d chunks (fetch-once net of retries broken)", moved, chunks)
	}
	if got := snap.Requests(); got >= chunks {
		return fmt.Errorf("chaos: faulty epoch made %d logical origin requests for %d chunks (coalescing collapsed under faults)", got, chunks)
	}
	// Generous recovery bound: stalls cost an OpTimeout each, so the faulty
	// epoch is slower, but it must not degrade to anything like a restart.
	if limit := 20*cleanElapsed + 10*time.Second; chaosElapsed > limit {
		return fmt.Errorf("chaos: faulty epoch took %s vs %s clean (recovery too slow, limit %s)", chaosElapsed, cleanElapsed, limit)
	}
	rs, fs := retry.Stats(), faulty.Stats()
	res.Rows = append(res.Rows, Row{
		Name: "train-slowdown", Value: chaosElapsed.Seconds() / cleanElapsed.Seconds(), Unit: "x",
		Extra: fmt.Sprintf("%s vs %s clean; %d faults (%d err, %d stall, %d partial), %d retries, stream byte-identical",
			chaosElapsed.Round(time.Millisecond), cleanElapsed.Round(time.Millisecond),
			fs.Total(), fs.Errors, fs.Stalls, fs.Partials, rs.Retries),
	})
	res.Notes = append(res.Notes,
		fmt.Sprintf("train: %d injected faults recovered by %d retries; %d chunks moved once each in %d coalesced logical requests",
			fs.Total(), rs.Retries, chunks, snap.Requests()))
	return nil
}

// jsonEqualIgnoringTimes compares two JSON documents with every object key
// ending in "_at" (wall-clock timestamps) removed, recursively.
func jsonEqualIgnoringTimes(a, b []byte) bool {
	var va, vb any
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return bytes.Equal(a, b)
	}
	return reflect.DeepEqual(stripTimes(va), stripTimes(vb))
}

func stripTimes(v any) any {
	switch t := v.(type) {
	case map[string]any:
		for k, vv := range t {
			if strings.HasSuffix(k, "_at") {
				delete(t, k)
				continue
			}
			t[k] = stripTimes(vv)
		}
	case []any:
		for i, vv := range t {
			t[i] = stripTimes(vv)
		}
	}
	return v
}

// chaosIngest writes the sample set twice with an identical deterministic
// schedule — once onto a clean origin, once onto a Put-faulty origin where
// failed chunk uploads are re-attempted by the flush pipeline under backoff
// and park only once those attempts run out — and byte-compares the two
// stored object sets. Appends that surface a DeferredFlushError keep going (the bytes are
// parked, not lost), and Flush is retried while it reports transient
// failures, exercising the sticky-error-clearing redrive path.
func chaosIngest(ctx context.Context, cfg Config, res *Result) error {
	spec := workload.ImageSpec{Height: 16, Width: 16, Channels: 3, Seed: cfg.Seed}
	samples := rawSampleSet(cfg, spec)
	bounds := chunk.Bounds{Min: 512, Target: 1 << 10, Max: 2 << 10}
	profile := simnet.S3SameRegion()
	profile.TimeScale = trainScale

	run := func(faultCfg *storage.FaultConfig) (storage.Provider, *storage.Faulty, time.Duration, error) {
		origin := storage.NewSimObjectStore(profile)
		var (
			store  storage.Provider = origin
			faulty *storage.Faulty
		)
		if faultCfg != nil {
			faulty = storage.NewFaulty(origin, *faultCfg)
			faulty.SetArmed(false) // arm only after dataset setup
			store = faulty
		}
		ds, err := core.Create(ctx, store, "chaos-ingest")
		if err != nil {
			return nil, nil, 0, err
		}
		if err := ds.SetWriteOptions(core.WriteOptions{
			FlushWorkers: 4, MaxPending: 8,
			FlushRetries: chaosFlushRetries,
			FlushBackoff: storage.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Seed: cfg.Seed},
		}); err != nil {
			return nil, nil, 0, err
		}
		for _, spec := range []core.TensorSpec{
			{Name: "images", Htype: "generic", Dtype: tensor.UInt8, Bounds: bounds},
			{Name: "labels", Htype: "class_label", Bounds: bounds},
		} {
			if _, err := ds.CreateTensor(ctx, spec); err != nil {
				return nil, nil, 0, err
			}
		}
		if faulty != nil {
			faulty.SetArmed(true)
		}
		start := time.Now()
		// Single writer: the append order (and so every stored byte) is
		// deterministic; only the upload schedule sees faults.
		for i, s := range samples {
			arr, err := tensor.FromBytes(tensor.UInt8, s.Shape, s.Data)
			if err == nil {
				err = ds.Append(ctx, map[string]*tensor.NDArray{
					"images": arr,
					"labels": tensor.Scalar(tensor.Int32, float64(s.Label)),
				})
			}
			var dfe *core.DeferredFlushError
			if errors.As(err, &dfe) {
				// Uploads are failing right now; the row IS recorded and the
				// chunk parked for redrive. Keep ingesting.
				continue
			}
			if err != nil {
				return nil, nil, 0, fmt.Errorf("chaos: ingest sample %d: %w", i, err)
			}
		}
		// Flush drains the pipeline (redriving parked chunks) and persists
		// metadata; metadata Puts hit the faulty origin directly, so retry
		// the whole barrier while it fails transiently.
		// Every failed barrier consumes at least one fault from the capped
		// schedule, so budgeting an attempt per possible fault guarantees the
		// loop converges under any goroutine interleaving (which faults land
		// on chunk uploads vs metadata Puts depends on flush-worker timing).
		attempts := chaosFlushRetries
		if faultCfg != nil {
			attempts += int(faultCfg.MaxFaults)
		}
		var flushErr error
		for attempt := 0; attempt < attempts; attempt++ {
			if flushErr = ds.Flush(ctx); flushErr == nil {
				break
			}
			if !storage.IsRetryable(flushErr) && !errors.Is(flushErr, context.DeadlineExceeded) {
				return nil, nil, 0, fmt.Errorf("chaos: ingest flush failed non-transiently: %w", flushErr)
			}
		}
		if flushErr != nil {
			return nil, nil, 0, fmt.Errorf("chaos: ingest flush still failing after %d attempts: %w", attempts, flushErr)
		}
		elapsed := time.Since(start)
		if faulty != nil {
			faulty.SetArmed(false)
		}
		return store, faulty, elapsed, nil
	}

	cleanStore, _, cleanElapsed, err := run(nil)
	if err != nil {
		return err
	}
	// Cap the schedule at a quarter of the expected chunk uploads: plenty of
	// parked-and-redriven chunks, but the tail of the run (including the
	// final metadata Puts) is guaranteed to converge for any seed.
	faultCfg := storage.FaultConfig{Seed: cfg.Seed, PutErrRate: 0.1, MaxFaults: int64(len(samples))/4 + 2}
	chaosStore, faulty, chaosElapsed, err := run(&faultCfg)
	if err != nil {
		return err
	}

	// The two origins must hold byte-identical object sets: faults may delay
	// uploads, never change or lose what lands.
	cleanKeys, err := cleanStore.List(ctx, "")
	if err != nil {
		return err
	}
	chaosKeys, err := chaosStore.List(ctx, "")
	if err != nil {
		return err
	}
	if len(cleanKeys) != len(chaosKeys) {
		return fmt.Errorf("chaos: faulty ingest stored %d objects, clean stored %d", len(chaosKeys), len(cleanKeys))
	}
	for i, key := range cleanKeys {
		if chaosKeys[i] != key {
			return fmt.Errorf("chaos: object set diverged at %q vs %q", chaosKeys[i], key)
		}
		want, err := cleanStore.Get(ctx, key)
		if err != nil {
			return err
		}
		got, err := chaosStore.Get(ctx, key)
		if err != nil {
			return err
		}
		// The root metadata files — dataset.json, the version tree, and the
		// staged generation snapshots that embed both — carry wall-clock
		// creation/commit timestamps that legitimately differ between the
		// runs; compare them with timestamps stripped. Every data-bearing
		// object (chunks, chunk sets, encoders, tensor metadata) must match
		// byte for byte.
		if key == "dataset.json" || key == "version_control.json" || strings.HasPrefix(key, "roots/") {
			if !jsonEqualIgnoringTimes(got, want) {
				return fmt.Errorf("chaos: %q differs beyond timestamps after faulty ingest", key)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("chaos: stored bytes differ for %q after faulty ingest", key)
		}
	}
	fs := faulty.Stats()
	if fs.Total() == 0 {
		return fmt.Errorf("chaos: fault schedule injected nothing into the ingest (seed %d too sparse for n=%d)", cfg.Seed, cfg.N)
	}
	res.Rows = append(res.Rows, Row{
		Name: "ingest-slowdown", Value: chaosElapsed.Seconds() / cleanElapsed.Seconds(), Unit: "x",
		Extra: fmt.Sprintf("%s vs %s clean; %d Put faults recovered, %d objects byte-identical",
			chaosElapsed.Round(time.Millisecond), cleanElapsed.Round(time.Millisecond), fs.Total(), len(cleanKeys)),
	})
	res.Notes = append(res.Notes,
		fmt.Sprintf("ingest: %d injected Put faults; all %d stored objects byte-identical to the fault-free run", fs.Total(), len(cleanKeys)))
	return nil
}
