package dataloader

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// The loader chaos suite: run with -race. A flaky origin mid-epoch must
// either surface through Loader.Err after an in-order prefix (no Retry
// layer), or be recovered transparently with a byte-identical batch stream
// (Retry stacked below the loader's chunk cache).

// epochHash drains one epoch and hashes every delivered sample's "x" and
// "label" bytes (those the dataset has) in delivery order, returning the
// loader for Err checks. It never fails t, so it may run off the test's
// goroutine.
func epochHash(t *testing.T, ds *core.Dataset, opts Options) (uint64, int, *Loader) {
	t.Helper()
	l := ForDataset(ds, opts)
	h := fnv.New64a()
	n := 0
	for b := range l.Batches(context.Background()) {
		for _, s := range b.Samples {
			for _, name := range []string{"x", "label"} {
				if arr, ok := s[name]; ok {
					h.Write([]byte(name))
					h.Write(arr.Bytes())
				}
			}
			n++
		}
	}
	return h.Sum64(), n, l
}

func TestLoaderSurfacesMidEpochFaultAfterInOrderPrefix(t *testing.T) {
	const rows = 256
	mem := storage.NewMemory()
	ds := loaderDataset(t, mem, rows)
	chunks := ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks()
	if chunks < 8 {
		t.Fatalf("dataset too coarse (%d chunks) to fault mid-epoch", chunks)
	}

	// No Retry layer: a transient fault partway through the chunk sequence
	// must stop the loader. Reopen the dataset over the faulty chain so
	// every chunk read passes through it.
	faulty := storage.NewFaulty(mem, storage.FaultConfig{Seed: 17, GetErrRate: 0.5})
	faulty.SetArmed(false)
	fds, err := core.Open(context.Background(), faulty)
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetArmed(true)
	l := ForDataset(fds, Options{BatchSize: 8, Workers: 4})
	next := 0
	for b := range l.Batches(context.Background()) {
		for _, s := range b.Samples {
			// Sequential epoch: the delivered prefix must stay in order —
			// a fault must never cause skipped or reordered rows.
			if got := int(s["x"].Float64s()[0]); got != next {
				t.Fatalf("row %d delivered out of order (want %d) around the fault", got, next)
			}
			next++
		}
	}
	if err := l.Err(); err == nil {
		t.Fatal("epoch over a faulty origin with no retry layer reported no error")
	} else if !storage.IsRetryable(err) {
		t.Fatalf("loader flattened the transient classification: %v", err)
	}
	if next == rows {
		t.Fatal("every row delivered despite injected faults; fault schedule never fired")
	}
}

func TestLoaderRecoversTransparentlyWithRetryLayer(t *testing.T) {
	const rows = 256
	mem := storage.NewMemory()
	ds := loaderDataset(t, mem, rows)

	// Fault-free reference epoch, shuffled for a fixed seed.
	opts := Options{BatchSize: 8, Workers: 4, Shuffle: true, Seed: 9}
	refHash, refN, l := epochHash(t, ds, opts)
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if refN != rows {
		t.Fatalf("reference epoch delivered %d/%d", refN, rows)
	}

	// Same epoch over the resilient chain: Retry below the byte cache and the
	// loader's chunk cache absorbs every injected fault (errors and stalls
	// both). The ledger sits above Retry, so it counts requests net of
	// recovery traffic.
	faulty := storage.NewFaulty(mem, storage.FaultConfig{
		Seed: 17, GetErrRate: 0.2, RangeErrRate: 0.2, StallRate: 0.05,
	})
	faulty.SetArmed(false)
	retry := storage.NewRetry(faulty, storage.RetryOptions{
		Attempts:  6,
		OpTimeout: 50 * time.Millisecond,
		Backoff:   storage.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 9},
	})
	logical := storage.NewCounting(retry)
	fds, err := core.Open(context.Background(), storage.NewLRU(logical, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	chunks := int64(fds.Tensor("x").NumChunks() + fds.Tensor("label").NumChunks())
	logical.Reset()
	faulty.SetArmed(true)
	hash, n, fl := epochHash(t, fds, opts)
	faulty.SetArmed(false)
	if err := fl.Err(); err != nil {
		t.Fatalf("retry layer leaked a fault into the loader: %v", err)
	}
	if n != rows {
		t.Fatalf("faulty epoch delivered %d/%d rows", n, rows)
	}
	if hash != refHash {
		t.Fatal("batch stream over the faulty origin differs from the fault-free epoch")
	}
	if faulty.Stats().Total() == 0 {
		t.Fatal("fault schedule injected nothing; transparency untested")
	}
	if retry.Stats().Retries == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
	// Recovery changes neither what moves nor how it is batched: net of
	// retries every chunk object still moves exactly once, and the strips
	// still coalesce into fewer requests than chunks.
	snap := logical.Snapshot()
	if moved := snap.Gets + snap.RangeGets + snap.BatchRanges; moved != chunks {
		t.Fatalf("faulty epoch moved %d chunk objects for %d chunks (fetch-once net of retries)", moved, chunks)
	}
	if reqs := snap.Requests(); reqs >= chunks {
		t.Fatalf("faulty epoch made %d logical origin requests for %d chunks; coalescing collapsed under faults", reqs, chunks)
	}
}

// TestLoaderHealsSilentCorruptionAtOneRequestEach streams an epoch over a
// wire that flips bits and truncates transfers while reporting success, with
// Verify under the byte cache and digests seeded from the chunk manifests at
// Open. The stream must match the clean epoch byte for byte, every damaged
// transfer must be detected and repaired with none quarantined, and each must
// cost exactly one extra object moved on top of fetch-once per chunk.
func TestLoaderHealsSilentCorruptionAtOneRequestEach(t *testing.T) {
	const rows = 256
	ctx := context.Background()
	// Combined rate 1 under a small MaxFaults budget: exactly `budget`
	// transfers arrive damaged however the feeder's strips batch requests.
	// A heal re-fetch draws from the same schedule, so one key can spend
	// several units in its heal loop; HealAttempts must exceed the budget.
	const budget = 6
	faulty := storage.NewFaulty(storage.NewMemory(), storage.FaultConfig{
		Seed: 17, CorruptRate: 0.7, TruncateRate: 0.3, MaxFaults: budget,
	})
	faulty.SetArmed(false)
	logical := storage.NewCounting(faulty)
	loaderDataset(t, logical, rows)
	verify := storage.NewVerify(logical, storage.VerifyOptions{HealAttempts: budget + 2, QuarantineAfter: -1})
	openCold := func() (*core.Dataset, *storage.LRU, int64) {
		t.Helper()
		cache := storage.NewLRU(verify, 1<<30)
		ds, err := core.Open(ctx, cache)
		if err != nil {
			t.Fatal(err)
		}
		if info := ds.Integrity(); info.SeededDigests == 0 || info.SeededDigests != info.ChunksWithChecksum {
			t.Fatalf("digest seeding incomplete at open: %+v", info)
		}
		logical.Reset()
		return ds, cache, int64(ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks())
	}
	opts := Options{BatchSize: 8, Workers: 4, Shuffle: true, Seed: 9}

	ds, _, _ := openCold()
	refHash, refN, rl := epochHash(t, ds, opts)
	if err := rl.Err(); err != nil || refN != rows {
		t.Fatalf("clean epoch delivered %d/%d rows, err %v", refN, rows, err)
	}

	ds, cache, chunks := openCold()
	faulty.SetArmed(true)
	hash, n, l := epochHash(t, ds, opts)
	faulty.SetArmed(false)
	if err := l.Err(); err != nil {
		t.Fatalf("verification leaked a silent fault into the loader: %v", err)
	}
	if n != rows {
		t.Fatalf("corrupted epoch delivered %d/%d rows", n, rows)
	}
	if hash != refHash {
		t.Fatal("batch stream over the corrupting wire differs from the clean epoch")
	}
	fs := faulty.Stats()
	damaged := fs.Corruptions + fs.Truncations
	if damaged != budget {
		t.Fatalf("fault schedule damaged %d transfers, want the whole budget of %d", damaged, budget)
	}
	stats := cache.Stats()
	if stats.CorruptionsDetected != damaged || stats.CorruptionsRepaired != damaged || stats.Quarantined != 0 {
		t.Fatalf("%d transfers damaged; verify detected %d, repaired %d, quarantined %d",
			damaged, stats.CorruptionsDetected, stats.CorruptionsRepaired, stats.Quarantined)
	}
	snap := logical.Snapshot()
	if moved := snap.Gets + snap.RangeGets + snap.BatchRanges; moved != chunks+damaged {
		t.Fatalf("moved %d objects for %d chunks + %d damaged transfers; a heal must cost exactly one re-fetch", moved, chunks, damaged)
	}
}

func TestLoaderCancelDuringBackoffStopsPromptly(t *testing.T) {
	const rows = 256
	mem := storage.NewMemory()
	loaderDataset(t, mem, rows)

	// Every read faults and the backoff is very long: cancelling the epoch
	// context must tear the loader down promptly, not wait out the timers.
	faulty := storage.NewFaulty(mem, storage.FaultConfig{Seed: 3, GetErrRate: 1, RangeErrRate: 1})
	faulty.SetArmed(false)
	seen := &faultSeen{Provider: faulty, first: make(chan struct{})}
	retry := storage.NewRetry(seen, storage.RetryOptions{
		Attempts: 10,
		Backoff:  storage.Backoff{Base: 30 * time.Second, Max: 30 * time.Second},
	})
	fds, err := core.Open(context.Background(), retry)
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetArmed(true)
	ctx, cancel := context.WithCancel(context.Background())
	l := ForDataset(fds, Options{BatchSize: 8, Workers: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range l.Batches(ctx) {
		}
	}()
	// Once a read has faulted, its worker is in (or entering) a 30 s
	// backoff; the epoch ends only if cancel cuts that short.
	<-seen.first
	cancel()
	<-done
}

// faultSeen closes first when a read through it fails for the first time.
type faultSeen struct {
	storage.Provider
	once  sync.Once
	first chan struct{}
}

func (f *faultSeen) saw(err error) {
	if err != nil {
		f.once.Do(func() { close(f.first) })
	}
}

func (f *faultSeen) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := f.Provider.Get(ctx, key)
	f.saw(err)
	return data, err
}

func (f *faultSeen) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	data, err := f.Provider.GetRange(ctx, key, offset, length)
	f.saw(err)
	return data, err
}

// TestLoaderWarmRestartsFromDiskTier is the disk-tier chaos scenario: a
// training job killed mid-epoch leaves its local-disk tier populated; a
// fresh process over the same directory must start warm — serving restart
// reads from the surviving files instead of the origin — and still deliver
// a batch stream byte-identical to a never-killed run.
func TestLoaderWarmRestartsFromDiskTier(t *testing.T) {
	const rows = 256
	ctx := context.Background()
	mem := storage.NewMemory()
	ds := loaderDataset(t, mem, rows)
	opts := Options{BatchSize: 8, Workers: 4, Shuffle: true, Seed: 11}

	// Fault-free reference epoch straight off the origin.
	refHash, refN, rl := epochHash(t, ds, opts)
	if err := rl.Err(); err != nil {
		t.Fatal(err)
	}
	if refN != rows {
		t.Fatalf("reference epoch delivered %d/%d", refN, rows)
	}

	// Run 1: stream through RAM -> disk tier -> origin, killed mid-epoch.
	dir := t.TempDir()
	counting := storage.NewCounting(mem)
	openTier := func() (*core.Dataset, *storage.Disk) {
		t.Helper()
		disk, err := storage.NewDisk(counting, dir, storage.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tds, err := core.Open(ctx, storage.NewLRU(disk, 1<<30))
		if err != nil {
			t.Fatal(err)
		}
		return tds, disk
	}
	tds1, _ := openTier()
	killCtx, kill := context.WithCancel(ctx)
	defer kill()
	l1 := ForDataset(tds1, opts)
	batches := 0
	for range l1.Batches(killCtx) {
		if batches++; batches == 4 {
			kill() // the simulated job kill, mid-epoch
		}
	}
	if batches >= rows/opts.BatchSize {
		t.Fatalf("kill landed after the full epoch (%d batches); mid-epoch restart untested", batches)
	}

	// Run 2: a fresh process over the same directory. The restart must be
	// warm — some reads served by files the killed run left behind — and
	// the delivered stream must match the never-killed reference exactly.
	tds2, disk2 := openTier()
	hash, n, l2 := epochHash(t, tds2, opts)
	if err := l2.Err(); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("restarted epoch delivered %d/%d rows", n, rows)
	}
	if hash != refHash {
		t.Fatal("restarted batch stream differs from the never-killed epoch")
	}
	if st := disk2.Stats(); st.WarmHits == 0 {
		t.Fatalf("restart over a populated disk tier served no warm hits: %+v", st)
	}
}

// TestLoaderSurfacesWorkerDeath: a worker goroutine killed mid-epoch (user
// code calling runtime.Goexit — the Go analogue of a dataloader worker
// process dying) must not truncate the stream silently. The contract is the
// worker-failure contract: an in-order prefix strictly before the dying
// row's delivery position, full batches only — every full batch before it —
// and a deterministic ErrWorkerDied from Err(), at any worker count, every
// run.
func TestLoaderSurfacesWorkerDeath(t *testing.T) {
	const n, killRow = 200, 97
	ds := loaderDataset(t, storage.NewMemory(), n)
	for round := 0; round < 6; round++ {
		workers := []int{1, 2, 8}[round%3]
		l := ForDataset(ds, Options{
			BatchSize: 8, Workers: workers,
			Transform: func(s map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error) {
				if v, _ := s["x"].At(0); v == killRow {
					runtime.Goexit()
				}
				return s, nil
			},
		})
		next := 0
		for b := range l.Batches(context.Background()) {
			if len(b.Samples) != 8 {
				t.Fatalf("workers=%d: partial batch of %d emitted on the death path", workers, len(b.Samples))
			}
			for _, s := range b.Samples {
				if v, _ := s["x"].At(0); v != float64(next) {
					t.Fatalf("workers=%d: row %v delivered out of order (want %d)", workers, v, next)
				}
				next++
			}
		}
		if next > killRow {
			t.Fatalf("workers=%d: delivered %d rows at/past the dying row %d", workers, next, killRow)
		}
		if full := killRow / 8 * 8; next != full {
			t.Fatalf("workers=%d: delivered %d rows, want the %d of every full batch before the dying row", workers, next, full)
		}
		err := l.Err()
		if !errors.Is(err, ErrWorkerDied) {
			t.Fatalf("workers=%d round %d: Err() = %v, want ErrWorkerDied", workers, round, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("position %d", killRow)) {
			t.Fatalf("workers=%d: death position not deterministic: %v", workers, err)
		}
	}
}
