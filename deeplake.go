// Package deeplake is a from-scratch Go reproduction of "Deep Lake: a
// Lakehouse for Deep Learning" (Hambardzumyan et al., CIDR 2023): a
// columnar dataset format for dynamically shaped tensors on object storage
// (the Tensor Storage Format), a streaming dataloader that keeps
// accelerators utilized over the network, an embedded Tensor Query Language,
// dataset version control, materialized views, parallel ingestion
// pipelines, and an htype-aware visualization engine.
//
// This root package is the public API; the subsystems live in internal
// packages and are re-exported here. A minimal session:
//
//	store := deeplake.NewMemoryStore()
//	ds, _ := deeplake.Create(ctx, store, "quickstart")
//	images, _ := ds.CreateTensor(ctx, deeplake.TensorSpec{Name: "images", Htype: "image"})
//	labels, _ := ds.CreateTensor(ctx, deeplake.TensorSpec{Name: "labels", Htype: "class_label"})
//	... append samples ...
//	ds.Commit(ctx, "first million")
//
//	view, _ := deeplake.Query(ctx, ds, `SELECT * FROM quickstart WHERE labels == 2`)
//	loader := deeplake.NewLoader(view, deeplake.LoaderOptions{BatchSize: 32, Shuffle: true})
//	for batch := range loader.Batches(ctx) { ... }
//
// On-disk compatibility policy: this tree reads what this tree writes. There
// is one dataset layout (core.FormatVersion); an older one is refused by
// name, not half-read.
//
// # Caching and the concurrent read path
//
// The paper caches at three depths — raw objects in RAM in front of remote
// object storage (§3.6), the same objects on local disk under that, and
// decoded chunks in the dataloader's buffer cache (§3.5, §4.6). Here that is
// one cache core (storage.Cache) and three policies over it. The core is a
// byte-budgeted LRU table spread over mutex-striped shards, so parallel
// lookups do not serialize behind a single lock; it has one eviction rule
// (least recently used first, never a pinned entry, never the one just
// admitted); and its misses are read-coalesced: however many readers miss
// on the same key at the same moment, exactly one load runs and every
// waiter shares its result. The policies add only what is theirs:
//
//   - WithLRUCache / WithCache (storage.LRU): whole objects, copied out to
//     each reader, written through on Put, bypassed when larger than a
//     shard, warmed by coalesced batched Prefetch. Stats (per-shard hits,
//     misses, resident bytes, the coalesced-fetch count, and the counters
//     of every layer below) are available from the concrete *storage.LRU.
//   - WithDiskTier (storage.Disk): an index of files that survives the
//     process, CRC-verified on read; eviction deletes the file.
//   - NewNodeCache (the dataloader's chunk cache): decoded chunks keyed by
//     dataset and commit, pinned while planned jobs still need them, one
//     fetch+decode per chunk per node however many workers or Loaders ask.
//
// Ahead of the chunk cache the loader's job feeder hands the provider chain
// the next strips of the chunk visit order as coalesced batched reads, so
// origin latency overlaps with decode and transform work. Run
//
//	go run ./benchmarks/lakebench --workload stream_s3 --seed 1 --seconds 20 --trace 1
//
// to measure cold epochs over simulated S3 through these tiers, per tier.
// The coalescing guarantee is storage.TestLRUCoalescesConcurrentMisses.
//
// # One node budget for every cache tier
//
// Rather than sizing the raw-chunk RAM cache, the decoded-chunk NodeCache
// and the local-disk tier independently, give a node one budget and let
// the tiers derive their capacities from it:
//
//	budget := deeplake.NodeBudget{MemoryBytes: 8 << 30, DiskBytes: 100 << 30}
//	cache, node, _ := deeplake.ProvisionNode(origin, "/var/cache/deeplake", budget)
//	ds, _ := deeplake.Open(ctx, cache)
//	loader := deeplake.NewLoader(ds, deeplake.LoaderOptions{Cache: node})
//
// MemoryBytes splits 3/8 to the raw-chunk LRU and 5/8 to decoded chunks
// (the shares sum exactly; zero means DefaultNodeMemoryBytes), and
// DiskBytes bounds the disk tier. ProvisionNode assembles the whole
// RAM -> disk -> origin chain plus the shared NodeCache in one call; pass
// an empty cache directory to skip the disk tier.
//
// # The chunk-aligned streaming dataloader
//
// The training read path (§4.6) is a chunk-aligned pipeline on the scan
// machinery. Each epoch is planned before any worker starts: the primary
// tensor's chunk visit order is shuffled (chunk-granular shuffling, §3.5),
// optionally sharded disjointly across simulated nodes
// (LoaderOptions{Rank, WorldSize} — every rank uses the same Seed), and the
// delivery order is fixed by spilling rows through a bounded shuffle
// buffer. Workers then own chunk-aligned jobs and drain each chunk through
// reused scan readers backed by the loader's chunk cache, so a chunk is
// fetched and decoded exactly once per epoch per rank however many rows,
// columns or workers touch it — and because delivery order is precomputed,
// the batch stream is byte-identical for a fixed seed at any worker count.
// LoaderOptions.Epochs streams several epochs through one Batches call with
// per-epoch reshuffling; batches never straddle an epoch boundary and carry
// their Batch.Epoch label. A worker failure always surfaces through
// Loader.Err after the channel closes, deterministically for a
// deterministic fault. Run
//
//	go run ./benchmarks/lakebench --workload train_decode --seed 1 --seconds 20 --trace 1
//
// to measure epochs end to end (stream_s3: the same over cold simulated S3).
// The fetch-once, decode-once and determinism contracts are tests in
// internal/dataloader (TestEpochCoalescesStripsAndMovesEachChunkOnce,
// TestSharedNodeCacheDecodesOncePerNode, TestBatchesIdenticalAcrossWorkerCounts);
// cmd/benchfig fig7…fig10 print the paper's figures against format baselines.
//
// # The parallel TQL scan engine
//
// Queries execute on a chunk-partitioned parallel scanner (§4.4). The WHERE
// clause's leading run of shape-only conjuncts — built from
// SHAPE/NDIM/LEN/SIZE of tensor references — is answered from the shape
// encoder with zero chunk IO (pushdown), and the remainder is evaluated only
// over the pushdown's surviving rows, fanned out across
// QueryOptions.Workers along chunk boundaries. Each worker reuses one
// evaluation environment and decodes every chunk it owns exactly once;
// fetches of chunks shared between workers coalesce in the provider chain.
// Ahead of evaluation, the scan prefetches the driver tensor's chunks in
// fixed-width strips of the global visit order (core.StripPlan, the planner
// the dataloader also uses) — strips cross partition boundaries, so chunks
// owned by different workers share one coalesced ranged origin request
// (QueryOptions.Stats reports planned/claimed/skipped prefetches).
// Merges are positional, so results are byte-identical at any worker
// count. Run
//
//	go run ./benchmarks/lakebench --workload tql_mixed --seed 1 --seconds 20 --trace 1
//
// to measure scan, filter, pushdown and group-by queries over cold simulated
// S3. Zero chunk IO for a shape-only WHERE is tql.TestShapeOnlyWhereZeroChunkGets.
//
// # The parallel ingestion engine
//
// The write path mirrors the read path's concurrency story. Appends to
// different tensors of one dataset run concurrently: sample validation and
// encoding (htype checks, media codecs) happen outside every lock, each
// tensor guards its own chunk builder and index encoders with a private
// lock, and only a narrow dataset-level critical section remains for
// row-count and version metadata. Sealed chunks leave the builders through
// a background flush pipeline — a bounded queue drained by
// WriteOptions.FlushWorkers concurrent uploads — so appends never stall on
// object-store Put latency:
//
//	ds.SetWriteOptions(deeplake.WriteOptions{FlushWorkers: 16, MaxPending: 32})
//	... concurrent Append / AppendBatch / transform.Pipeline.Eval ...
//	ds.Flush(ctx) // barrier: drains the pipeline, then persists metadata
//
// Flush and Commit act as barriers: every queued chunk lands before any
// metadata that references it is persisted, upload errors (including
// context cancellation) surface there, and the stored objects are
// byte-identical to the serial path at every worker count — only the upload
// order differs. A failed upload keeps its chunk in memory, readable, and
// the next Flush retries it. With WriteOptions.FlushRetries (re-attempts per
// upload, delays shaped by FlushBackoff) or UploadTimeout (a deadline per
// attempt) set, uploads go through the same storage.Retry layer WithRetry
// stacks on the read side: a transient failure is re-attempted under backoff
// by the upload that hit it, holding its worker lane meanwhile, and the
// barrier waits for it. Transform pipelines (ETL ingestion) and view
// materialization write through the same engine by default. Run
//
//	go run ./benchmarks/lakebench --workload ingest_commit --seed 1 --seconds 20 --trace 1
//
// to measure ingest and commit over simulated S3 (cmd/benchfig fig6: the
// paper's figure). Byte-identity is core.TestParallelFlushGoldenEquivalence.
package deeplake

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/tql"
	"repro/internal/view"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Dataset is an open Deep Lake dataset (§3, §4).
	Dataset = core.Dataset
	// Tensor is one typed column of a dataset (§3.2).
	Tensor = core.Tensor
	// TensorSpec declares a new tensor column.
	TensorSpec = core.TensorSpec
	// TensorMeta is persisted tensor metadata.
	TensorMeta = core.TensorMeta

	// NDArray is the in-memory n-dimensional array samples travel as.
	NDArray = tensor.NDArray
	// Dtype enumerates element types.
	Dtype = tensor.Dtype
	// Range selects [Start, Stop) along one axis.
	Range = tensor.Range

	// View is an ordered row selection with output columns (§4.4-4.5).
	View = view.View
	// Column is one output column of a view.
	Column = view.Column
	// Resolver fetches linked-tensor URLs (§4.5).
	Resolver = view.Resolver

	// Loader streams batches from a view (§4.6) on the chunk-aligned
	// pipeline: chunk-granular shuffling, distributed sharding
	// (Rank/WorldSize), multi-epoch streaming, and worker-count-
	// independent batch bytes.
	Loader = dataloader.Loader
	// LoaderOptions configures a Loader.
	LoaderOptions = dataloader.Options
	// Batch is one collated batch (Epoch labels the epoch it belongs to).
	Batch = dataloader.Batch

	// Provider is the pluggable storage contract (§3.6).
	Provider = storage.Provider

	// MergePolicy resolves merge conflicts (§4.2).
	MergePolicy = core.MergePolicy

	// WriteOptions configures the parallel ingestion engine: sealed chunks
	// upload through FlushWorkers concurrent background Puts with at most
	// MaxPending chunks in flight. The zero value is the synchronous
	// serial write path. Apply with Dataset.SetWriteOptions; Flush/Commit
	// drain the pipeline before persisting metadata.
	WriteOptions = core.WriteOptions

	// MaterializeOptions configures MaterializeWith (§4.5), including the
	// destination's WriteOptions.
	MaterializeOptions = view.MaterializeOptions
)

// Dtype constants.
const (
	Bool    = tensor.Bool
	UInt8   = tensor.UInt8
	UInt16  = tensor.UInt16
	UInt32  = tensor.UInt32
	UInt64  = tensor.UInt64
	Int8    = tensor.Int8
	Int16   = tensor.Int16
	Int32   = tensor.Int32
	Int64   = tensor.Int64
	Float32 = tensor.Float32
	Float64 = tensor.Float64
)

// Merge policies.
const (
	MergeOurs   = core.MergeOurs
	MergeTheirs = core.MergeTheirs
)

// Create initializes an empty dataset on a provider.
func Create(ctx context.Context, store Provider, name string) (*Dataset, error) {
	return core.Create(ctx, store, name)
}

// Open loads an existing dataset at its current branch head.
func Open(ctx context.Context, store Provider) (*Dataset, error) {
	return core.Open(ctx, store)
}

// Query parses and executes a TQL statement against a dataset (§4.4),
// returning the result view. Execution runs on the chunk-partitioned
// parallel scan engine with default options; see QueryWith to tune it.
func Query(ctx context.Context, ds *Dataset, src string) (*View, error) {
	return tql.Run(ctx, ds, src)
}

// ScanStats accumulates prefetch observability counters for TQL execution:
// chunks planned/claimed/skipped by the scan's strip plan, failed prefetch
// rounds, and strips issued. Pass a pointer via QueryOptions.Stats; the
// same instance may accumulate across queries. Shed coalesced fetches are
// counted cache-side in CacheStats.PrefetchShed.
type ScanStats = tql.ScanStats

// QueryOptions tunes TQL execution.
type QueryOptions struct {
	// Workers bounds the parallel scan width used by WHERE evaluation and
	// by sort/group/arrange/sample key evaluation. Zero uses GOMAXPROCS; 1
	// forces a serial scan. Results are identical for every worker count.
	Workers int
	// Stats, when non-nil, accumulates the scan's prefetch counters.
	Stats *ScanStats
}

// QueryWith is Query with explicit execution options: the WHERE clause's
// leading shape-only conjuncts are answered by the shape encoder with zero
// chunk IO, and the remainder is evaluated across a bounded worker pool
// over chunk-aligned row partitions. Ahead of the workers, a strip plan
// hands the provider chain fixed-width runs of the scan's global chunk
// order, so chunks owned by different workers still share coalesced ranged
// origin requests.
func QueryWith(ctx context.Context, ds *Dataset, src string, opts QueryOptions) (*View, error) {
	return tql.RunWith(ctx, ds, src, tql.Options{Workers: opts.Workers, Stats: opts.Stats})
}

// Explain parses a TQL statement and renders its logical plan.
func Explain(src string) (string, error) {
	q, err := tql.Parse(src)
	if err != nil {
		return "", err
	}
	plan, err := tql.Compile(q)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}

// NewLoader builds a streaming dataloader over a view.
func NewLoader(v *View, opts LoaderOptions) *Loader { return dataloader.New(v, opts) }

// NewDatasetLoader streams all complete rows of a dataset.
func NewDatasetLoader(ds *Dataset, opts LoaderOptions) *Loader {
	return dataloader.ForDataset(ds, opts)
}

// AllRows returns the identity view over a dataset.
func AllRows(ds *Dataset) *View { return view.All(ds) }

// NewView builds a view over explicit row indices; nil columns selects all
// visible tensors.
func NewView(ds *Dataset, indices []uint64, columns []Column) *View {
	return view.New(ds, indices, columns)
}

// Materialize writes a view into a fresh dataset with an optimal streaming
// layout (§4.5). Chunk uploads overlap row evaluation through the
// destination's flush pipeline; see MaterializeWith to tune or disable it.
func Materialize(ctx context.Context, v *View, dst Provider, name string) (*Dataset, error) {
	return view.Materialize(ctx, v, dst, view.MaterializeOptions{Name: name})
}

// MaterializeWith is Materialize with explicit options: commit message and
// the destination dataset's write pipeline (WriteOptions).
func MaterializeWith(ctx context.Context, v *View, dst Provider, opts MaterializeOptions) (*Dataset, error) {
	return view.Materialize(ctx, v, dst, opts)
}

// NewResolver builds a linked-tensor resolver.
func NewResolver() *Resolver { return view.NewResolver() }

// LinkedColumn builds a view column that resolves a link[image] tensor.
func LinkedColumn(name string, t *Tensor, r *Resolver) Column {
	return view.LinkedColumn(name, t, r)
}

// Storage constructors.

// NewMemoryStore returns an in-process provider.
func NewMemoryStore() Provider { return storage.NewMemory() }

// NewFSStore returns a provider rooted at a local directory.
func NewFSStore(dir string) (Provider, error) { return storage.NewFS(dir) }

// NewS3SimStore returns an in-process object store behaving like an S3
// bucket in the same region (latency/bandwidth simulated; §6 evaluation
// substrate).
func NewS3SimStore() Provider { return storage.NewSimObjectStore(simnet.S3SameRegion()) }

// NewS3CrossRegionSimStore simulates a cross-region bucket (Fig 10 setup).
func NewS3CrossRegionSimStore() Provider {
	return storage.NewSimObjectStore(simnet.S3CrossRegion())
}

// NewMinIOSimStore simulates MinIO on a local network (Fig 8 setup).
func NewMinIOSimStore() Provider { return storage.NewSimObjectStore(simnet.MinIOLAN()) }

// WithLRUCache chains an in-memory LRU cache of the given byte capacity in
// front of a slower provider (§3.6). The cache is sharded and
// read-coalescing; see WithCache to control the shard count or to keep the
// concrete type for stats.
func WithLRUCache(origin Provider, capacity int64) Provider {
	return storage.NewLRU(origin, capacity)
}

// CacheOptions sizes the provider-chain cache.
type CacheOptions struct {
	// Capacity is the total byte budget, split evenly across shards.
	Capacity int64
	// Shards is the number of mutex-striped shards. Zero picks a count
	// scaled to Capacity (one shard per 16MB, at most
	// storage.DefaultShards) so per-shard capacity always fits full-size
	// chunks. One shard gives globally exact LRU ordering; more shards
	// trade eviction precision for lookup concurrency, and objects larger
	// than Capacity/Shards bypass the cache.
	Shards int
}

// CacheStats reports cache counters: aggregate and per-shard hits, misses,
// and resident bytes, plus how many fetches were coalesced into another
// reader's in-flight origin Get.
type CacheStats = storage.Stats

// WithCache chains a sharded, read-coalescing in-memory cache in front of a
// slower provider. The returned *storage.LRU implements Provider and
// exposes Stats().
func WithCache(origin Provider, opts CacheOptions) *storage.LRU {
	if opts.Shards <= 0 {
		return storage.NewLRU(origin, opts.Capacity)
	}
	return storage.NewShardedLRU(origin, opts.Capacity, opts.Shards)
}

// RetryOptions configures the resilience layer of the provider chain:
// attempts per operation, capped exponential backoff with deterministic
// seeded jitter, a per-attempt timeout, and a lifetime retry budget.
type RetryOptions = storage.RetryOptions

// WithRetry wraps a provider so transient failures (storage.IsRetryable:
// errors marked storage.ErrTransient, or the wrapper's own per-attempt
// timeout firing) are re-attempted under capped exponential backoff.
// Context cancellation and missing keys are never retried. Stack it below
// WithCache — cache over retry over origin — so a miss coalesced across N
// readers is retried once for all of them, and the cache's Stats() then
// reports the retry count.
func WithRetry(origin Provider, opts RetryOptions) *storage.Retry {
	return storage.NewRetry(origin, opts)
}

// VerifyOptions configures the integrity layer: heal attempts per corrupted
// read and the quarantine threshold for keys that keep failing.
type VerifyOptions = storage.VerifyOptions

// WithVerify wraps a provider with CRC32C verify-on-read and self-healing
// re-fetch. Digests are recorded on every Put and seeded from the dataset's
// chunk checksum manifests automatically at Open. Stack it between WithCache
// and WithRetry — cache over verify over retry over origin — so a poisoned
// transfer is detected before it enters the cache, healed with one re-fetch
// for all coalesced waiters, and the cache's Stats() then reports
// CorruptionsDetected/CorruptionsRepaired/Quarantined.
func WithVerify(origin Provider, opts VerifyOptions) *storage.Verify {
	return storage.NewVerify(origin, opts)
}

// DiskTierOptions configures the local-disk cache tier; see WithDiskTier.
type DiskTierOptions = storage.DiskOptions

// DiskTierStats reports a disk tier's counters: hits (with the warm-start
// subset ledgered separately as WarmHits), misses, evictions, detected
// corruptions, and the resident population. Also surfaced through the RAM
// cache's CacheStats.Disk when the tier sits under a WithCache layer.
type DiskTierStats = storage.DiskStats

// WithDiskTier chains a local-disk cache at dir between the in-memory cache
// and the origin, completing the §3.6 storage hierarchy: RAM over local
// disk over (remote) origin —
//
//	disk, _ := deeplake.WithDiskTier(origin, "/tmp/dl-cache", deeplake.DiskTierOptions{})
//	cache := deeplake.WithLRUCache(disk, 1<<30)
//
// The tier persists fetched objects under dir (atomically, crash-safely)
// and indexes whatever a previous process left there, so a restarted
// training job starts warm: chunks the killed run already paid origin round
// trips for are served from local disk, ledgered as WarmHits. Reads from
// disk are CRC32C-verified against digests seeded from the dataset's chunk
// checksum manifests at Open; a file corrupted while the process was down
// is deleted and transparently re-fetched from the origin.
func WithDiskTier(origin Provider, dir string, opts DiskTierOptions) (*storage.Disk, error) {
	return storage.NewDisk(origin, dir, opts)
}

// NodeCache is a node-level decoded-chunk cache shared between Loaders via
// LoaderOptions.Cache: every rank's loader colocated on one node reads
// through it, so a chunk shared between ranks is fetched and decoded once
// per NODE per epoch instead of once per rank (§3.5's buffer cache at node
// scope). Entries are keyed by dataset + commit + tensor + chunk, so
// loaders over different datasets or commits share one cache safely, and
// chunks with outstanding planned jobs are pinned against eviction so a
// tight budget never forces a silent re-decode. NodeCache.Stats reports the
// node-level counters.
type NodeCache = dataloader.NodeCache

// NodeCacheStats is a point-in-time copy of a NodeCache's counters.
type NodeCacheStats = dataloader.NodeCacheStats

// NewNodeCache builds a shared decoded-chunk cache with the given byte
// budget (<=0 means the loader default, 256MB):
//
//	node := deeplake.NewNodeCache(1 << 30)
//	for rank := 0; rank < 4; rank++ {
//		loaders[rank] = deeplake.NewLoader(v, deeplake.LoaderOptions{
//			Rank: rank, WorldSize: 4, Cache: node,
//		})
//	}
func NewNodeCache(budget int64) *NodeCache { return dataloader.NewNodeCache(budget) }

// NodeBudget is the single capacity knob for a training node's cache
// hierarchy. Instead of sizing the raw-chunk RAM LRU, the decoded-chunk
// NodeCache, and the local-disk tier independently (and over-committing the
// machine three times), declare what the node actually has:
//
//	cache, node, _ := deeplake.ProvisionNode(origin, "/tmp/dl-cache",
//		deeplake.NodeBudget{MemoryBytes: 8 << 30, DiskBytes: 100 << 30})
//
// MemoryBytes splits 3/8 to the raw-chunk LRU and 5/8 to the decoded-chunk
// cache (decode inflates payloads and re-decoding is the costlier miss);
// DiskBytes bounds the disk tier (zero = 4GB default, negative =
// unbounded). The split is a derivation of defaults — callers needing
// asymmetric tiers keep using WithCache/NewNodeCache/WithDiskTier directly.
type NodeBudget = storage.NodeBudget

// DefaultNodeMemoryBytes is the memory budget assumed when
// NodeBudget.MemoryBytes is unset (1GB).
const DefaultNodeMemoryBytes = storage.DefaultNodeMemoryBytes

// ProvisionNode derives a node's cache hierarchy from one NodeBudget: a
// sharded read-coalescing RAM cache (budget.LRUBytes) over an optional
// local-disk tier at cacheDir (budget.DiskCapacity; empty cacheDir skips
// the tier) over origin, plus a NodeCache (budget.DecodedBytes) to share
// between the node's Loaders via LoaderOptions.Cache. The returned
// *storage.LRU is the provider to Open datasets through.
func ProvisionNode(origin Provider, cacheDir string, budget NodeBudget) (*storage.LRU, *NodeCache, error) {
	chain := origin
	if cacheDir != "" {
		disk, err := storage.NewDisk(origin, cacheDir, storage.DiskOptions{Capacity: budget.DiskCapacity()})
		if err != nil {
			return nil, nil, err
		}
		chain = disk
	}
	return storage.NewLRU(chain, budget.LRUBytes()), dataloader.NewNodeCache(budget.DecodedBytes()), nil
}

// Fsck types, re-exported for integrity tooling.
type (
	// FsckOptions selects fsck behavior (Repair collects garbage).
	FsckOptions = core.FsckOptions
	// FsckReport is the outcome of a consistency walk.
	FsckReport = core.FsckReport
	// FsckIssue is one finding: kind, exact object key, detail.
	FsckIssue = core.FsckIssue
	// IntegrityInfo summarizes an open handle's integrity state (commit
	// generation, abandoned staged generations, checksum coverage).
	IntegrityInfo = core.IntegrityInfo
)

// Fsck walks a dataset's manifest against its stored objects: missing
// or corrupt state objects and chunks, orphaned blobs from dead generations,
// checksum mismatches. With opts.Repair it deletes the garbage; missing or
// corrupt data is reported but never repairable.
func Fsck(ctx context.Context, store Provider, opts FsckOptions) (*FsckReport, error) {
	return core.Fsck(ctx, store, opts)
}

// Array constructors.

// NewArray allocates a zeroed array.
func NewArray(d Dtype, shape ...int) (*NDArray, error) { return tensor.New(d, shape...) }

// FromBytes wraps a raw buffer as an array.
func FromBytes(d Dtype, shape []int, data []byte) (*NDArray, error) {
	return tensor.FromBytes(d, shape, data)
}

// FromFloat64s builds an array from float64 values.
func FromFloat64s(d Dtype, shape []int, values []float64) (*NDArray, error) {
	return tensor.FromFloat64s(d, shape, values)
}

// Scalar wraps one value as a 0-d array.
func Scalar(d Dtype, v float64) *NDArray { return tensor.Scalar(d, v) }

// FromString encodes a string as a text sample.
func FromString(s string) *NDArray { return tensor.FromString(s) }

// All selects an entire axis in a Slice call.
func All() Range { return tensor.All() }

// End marks an open upper bound in a Range.
const End = tensor.End
