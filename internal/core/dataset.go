// Package core implements the Tensor Storage Format dataset (§3): columnar
// datasets whose columns are typed tensors of dynamically shaped
// n-dimensional samples, chunked between size bounds, indexed by compressed
// encoders, and versioned through a branching commit tree over any storage
// provider.
//
// A dataset on storage is fully self-contained (§5): a provenance file
// (dataset.json) pointing at the root snapshot roots/<gen> — the version tree
// plus the state of the version being written — and per-version
// sub-directories versions/<vid>/ holding only the chunks modified in that
// version (§4.2) and, once a handle has left the version, its state.json.
// Nothing else is written or read.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/version"
)

// SampleIDTensor is the hidden tensor holding per-row sample ids used to
// track identity across merges (§4.2: "ids of samples are generated and
// stored during the dataset population").
const SampleIDTensor = "_sample_id"

// Dataset is an open Deep Lake dataset bound to a storage provider.
//
// Locking: ds.mu is the structure lock. Operations that change the dataset
// shape — CreateTensor, Flush, Commit, Checkout, Merge — hold it
// exclusively. Per-tensor writers (Append and friends) and all readers hold
// it shared and take the owning tensor's lock (Tensor.mu) underneath, so
// appends to different tensors proceed concurrently and only structure
// operations serialize the whole dataset. Lock order is always ds.mu before
// Tensor.mu.
type Dataset struct {
	mu    sync.RWMutex
	store storage.Provider
	meta  datasetMeta
	tree  *version.Tree

	// idMu is the narrow critical section for sample-id allocation, taken
	// without ds.mu held exclusively so row appends stay concurrent.
	idMu sync.Mutex

	// writeOpts/flusher configure the parallel ingestion engine; nil
	// flusher means the synchronous serial write path. writeOptsSet
	// records that SetWriteOptions was called, distinguishing explicit
	// serial from never-configured. Guarded by ds.mu.
	writeOpts    WriteOptions
	writeOptsSet bool
	flusher      *flushPipeline

	// branch is the checked-out branch; empty when detached at a commit.
	branch string
	// head is the current version id (mutable head, or a frozen commit
	// when detached).
	head string

	tensors map[string]*Tensor
	order   []string

	// strict rejects out-of-bounds SetAt instead of padding (§3.5:
	// "While the strict mode is disabled, out-of-the-bounds indices of a
	// tensor can be assigned").
	strict bool

	// integrity summarizes what Open learned about the dataset's
	// integrity state (generation, abandoned staged roots, checksum
	// coverage). Guarded by ds.mu.
	integrity IntegrityInfo

	// scope is a process-unique handle identity assigned at Create/Open,
	// used to namespace shared (node-level) dataloader caches: datasets
	// have no UUID, so two handles are assumed distinct unless they are
	// literally the same handle. Immutable after construction.
	scope uint64

	// now supplies timestamps; replaceable in tests.
	now func() time.Time
}

// scopeCounter hands out process-unique dataset scope ids; see
// Dataset.scope.
var scopeCounter atomic.Uint64

// ScopeID returns the process-unique identity of this dataset handle.
// Shared caches keyed across datasets (the dataloader's node cache) include
// it so chunks from different handles can never alias: the id is unique per
// handle, so two Opens of the same store are treated as distinct datasets —
// conservative (they won't share decoded chunks) but never wrong.
func (ds *Dataset) ScopeID() uint64 { return ds.scope }

// SetStrict toggles strict index checking for in-place assignment.
func (ds *Dataset) SetStrict(strict bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.strict = strict
}

// Create initializes an empty dataset on the provider. The provider's
// namespace must not already contain a dataset.
func Create(ctx context.Context, store storage.Provider, name string) (*Dataset, error) {
	if ok, err := store.Exists(ctx, datasetMetaKey); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("core: dataset already exists")
	}
	now := time.Now().UTC()
	ds := &Dataset{
		store: store,
		meta: datasetMeta{
			Name:          name,
			FormatVersion: FormatVersion,
			CreatedAt:     now,
			CurrentBranch: version.DefaultBranch,
		},
		tree:    version.NewTree(now),
		branch:  version.DefaultBranch,
		tensors: map[string]*Tensor{},
		now:     func() time.Time { return time.Now().UTC() },
		scope:   scopeCounter.Add(1),
	}
	headNode, err := ds.tree.Head(ds.branch)
	if err != nil {
		return nil, err
	}
	ds.head = headNode.ID
	if err := ds.persistRoot(ctx); err != nil {
		return nil, err
	}
	return ds, nil
}

// Open loads an existing dataset at its current branch head.
func Open(ctx context.Context, store storage.Provider) (*Dataset, error) {
	ds := &Dataset{
		store:   store,
		tensors: map[string]*Tensor{},
		now:     func() time.Time { return time.Now().UTC() },
		scope:   scopeCounter.Add(1),
	}
	raw, err := store.Get(ctx, datasetMetaKey)
	if err != nil {
		if storage.IsNotFound(err) {
			return nil, fmt.Errorf("core: no dataset at this location")
		}
		return nil, err
	}
	if err := unmarshalJSON(raw, &ds.meta); err != nil {
		return nil, fmt.Errorf("core: corrupt dataset.json: %w", err)
	}
	if ds.meta.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("core: dataset.json: unsupported format version %d (this tree reads version %d)", ds.meta.FormatVersion, FormatVersion)
	}
	if ds.meta.Generation == 0 {
		return nil, fmt.Errorf("core: dataset.json names no generation, so there is no root snapshot to open")
	}
	ds.integrity.Generation = ds.meta.Generation

	root, err := loadRoot(ctx, store, ds.meta.Generation)
	if err != nil {
		return nil, err
	}
	ds.tree, err = version.Unmarshal(root.Tree)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt version tree in root snapshot %s: %w", rootKey(ds.meta.Generation), err)
	}
	ds.branch = ds.meta.CurrentBranch
	headNode, err := ds.tree.Head(ds.branch)
	if err != nil {
		return nil, err
	}
	ds.head = headNode.ID
	if root.Head != ds.head {
		return nil, fmt.Errorf("core: root snapshot %s holds version %s, not the head %s of branch %q", rootKey(ds.meta.Generation), root.Head, ds.head, ds.branch)
	}

	// A staged generation past the published one is the footprint of a
	// writer killed between staging its snapshot and publishing it. The
	// previous (published) generation stays authoritative; the abandoned
	// one is reported so fsck can collect it.
	if ok, err := store.Exists(ctx, rootKey(ds.meta.Generation+1)); err == nil && ok {
		ds.integrity.AbandonedGeneration = ds.meta.Generation + 1
	}

	tensors, err := ds.tensorsFromState(root.versionState)
	if err != nil {
		return nil, fmt.Errorf("core: root snapshot %s: %w", rootKey(ds.meta.Generation), err)
	}
	ds.install(root.versionState, tensors)
	return ds, nil
}

// Name returns the dataset name.
func (ds *Dataset) Name() string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.meta.Name
}

// Branch returns the checked-out branch; empty when detached.
func (ds *Dataset) Branch() string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.branch
}

// Version returns the current version id.
func (ds *Dataset) Version() string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.head
}

// Store exposes the underlying provider (read-only use by the streaming
// layers).
func (ds *Dataset) Store() storage.Provider { return ds.store }

// CreateTensor adds a tensor column to the dataset.
func (ds *Dataset) CreateTensor(ctx context.Context, spec TensorSpec) (*Tensor, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.ensureWritable(); err != nil {
		return nil, err
	}
	if spec.Name == "" || strings.HasPrefix(spec.Name, "/") || strings.HasSuffix(spec.Name, "/") {
		return nil, fmt.Errorf("core: invalid tensor name %q", spec.Name)
	}
	if _, exists := ds.tensors[spec.Name]; exists {
		return nil, fmt.Errorf("core: tensor %q already exists", spec.Name)
	}
	t, err := newTensor(ds, spec)
	if err != nil {
		return nil, err
	}
	// Publish a generation covering the schema change so a process that
	// opens the dataset without an intervening Flush still sees the new
	// tensor. Roll back on failure: a staged root is harmless garbage and
	// the call can be retried.
	ds.tensors[spec.Name] = t
	ds.order = append(ds.order, spec.Name)
	if err := ds.persistRoot(ctx); err != nil {
		delete(ds.tensors, spec.Name)
		ds.order = ds.order[:len(ds.order)-1]
		return nil, err
	}
	return t, nil
}

// DeleteTensor removes a tensor from the current working version's schema.
// Historical commits keep the tensor (schema evolution is version-tracked,
// §2.4(3)/§3.1); its chunks in ancestor versions remain untouched.
func (ds *Dataset) DeleteTensor(ctx context.Context, name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.ensureWritable(); err != nil {
		return err
	}
	if _, ok := ds.tensors[name]; !ok {
		return fmt.Errorf("core: tensor %q does not exist", name)
	}
	// Land every queued AND parked upload before listing this tensor's
	// keys, so neither a background Put nor a later flush's redrive
	// resurrects an object after the delete.
	if ds.flusher != nil {
		if err := ds.flusher.redrive(ctx); err != nil {
			return err
		}
		if err := ds.flusher.drain(ctx); err != nil {
			return err
		}
	}
	delete(ds.tensors, name)
	for i, n := range ds.order {
		if n == name {
			ds.order = append(ds.order[:i], ds.order[i+1:]...)
			break
		}
	}
	// Chunks written in this head are garbage; ancestors keep theirs.
	keys, err := ds.store.List(ctx, tensorPrefix(ds.head, name)+"/")
	if err != nil {
		return err
	}
	for _, key := range keys {
		if err := ds.store.Delete(ctx, key); err != nil {
			return err
		}
	}
	return ds.persistRoot(ctx)
}

// Tensor returns an open tensor by name, or nil if absent.
func (ds *Dataset) Tensor(name string) *Tensor {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.tensors[name]
}

// Tensors lists visible (non-hidden) tensor names in creation order.
func (ds *Dataset) Tensors() []string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	var out []string
	for _, name := range ds.order {
		if !ds.tensors[name].meta.Hidden {
			out = append(out, name)
		}
	}
	return out
}

// AllTensors lists every tensor including hidden ones.
func (ds *Dataset) AllTensors() []string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return append([]string(nil), ds.order...)
}

// NumRows returns the minimum length across visible tensors — the number of
// complete rows. A dataset with no tensors has zero rows.
func (ds *Dataset) NumRows() uint64 {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	var n uint64
	first := true
	for _, name := range ds.order {
		t := ds.tensors[name]
		if t.meta.Hidden {
			continue
		}
		if l := t.lengthShared(); first || l < n {
			n = l
			first = false
		}
	}
	if first {
		return 0
	}
	return n
}

// MaxLength returns the maximum length across visible tensors.
func (ds *Dataset) MaxLength() uint64 {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	var n uint64
	for _, name := range ds.order {
		t := ds.tensors[name]
		if !t.meta.Hidden {
			if l := t.lengthShared(); l > n {
				n = l
			}
		}
	}
	return n
}

// Append adds one full row across the given visible tensors and assigns a
// hidden sample id. Tensors absent from values are left untouched.
//
// The row is appended atomically with respect to other Append calls:
// samples encode outside every lock, then the involved tensors (plus the
// hidden sample-id tensor) are locked together in name order, so
// concurrent row appenders interleave whole rows — index k holds the same
// caller's values in every tensor. Storage trouble cannot tear a row
// either: flush failures defer (the row commits, the error surfaces, the
// next Flush retries the upload). Only a structural failure — an internal
// encoder/builder invariant violation, which no input or storage
// condition produces — can abort mid-row, and its error return means the
// handle should be abandoned.
func (ds *Dataset) Append(ctx context.Context, values map[string]*tensor.NDArray) error {
	ds.mu.RLock()
	err := ds.ensureWritable()
	idt := ds.tensors[SampleIDTensor]
	ds.mu.RUnlock()
	if err != nil {
		return err
	}

	if idt == nil {
		idt, err = ds.CreateTensor(ctx, TensorSpec{
			Name:   SampleIDTensor,
			Htype:  "generic",
			Dtype:  tensor.UInt64,
			Hidden: true,
		})
		if err != nil {
			// A concurrent row append may have created it first.
			if idt = ds.Tensor(SampleIDTensor); idt == nil {
				return err
			}
		}
	}

	// Validate and encode every sample before taking any lock.
	names := make([]string, 0, len(values))
	for name := range values {
		if name == SampleIDTensor {
			return fmt.Errorf("core: cannot append to hidden tensor %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	type rowPart struct {
		t   *Tensor
		s   chunk.Sample
		arr *tensor.NDArray
	}
	parts := make([]rowPart, 0, len(names))
	for _, name := range names {
		t := ds.Tensor(name)
		if t == nil {
			return fmt.Errorf("core: unknown tensor %q", name)
		}
		if t.spec.Sequence {
			return fmt.Errorf("core: append to %q: tensor is a sequence tensor; use AppendSequence", name)
		}
		if t.spec.Link {
			return fmt.Errorf("core: append to %q: tensor is a link tensor; use AppendLink", name)
		}
		s, err := t.encodeSample(values[name])
		if err != nil {
			return fmt.Errorf("core: append to %q: %w", name, err)
		}
		parts = append(parts, rowPart{t: t, s: s, arr: values[name]})
	}

	// Lock the full tensor set in name order (the one deterministic
	// multi-tensor lock order in the package; _sample_id sorts with the
	// rest) and commit the row.
	locked := append(parts, rowPart{t: idt})
	sort.Slice(locked, func(i, j int) bool { return locked[i].t.name < locked[j].t.name })
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if err := ds.ensureWritable(); err != nil {
		return err
	}
	for i := range locked {
		// A Checkout during the unlocked encoding replaces ds.tensors;
		// committing to orphaned handles would silently lose the row.
		if ds.tensors[locked[i].t.name] != locked[i].t {
			return fmt.Errorf("core: tensor handle %q is stale (a checkout replaced it)", locked[i].t.name)
		}
	}
	for i := range locked {
		locked[i].t.mu.Lock()
	}
	defer func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].t.mu.Unlock()
		}
	}()
	// Deferred flush errors (storage hiccups whose bytes are parked and
	// retried by the next Flush) do not abort the row: every tensor still
	// records its sample, so index k stays aligned across the row; the
	// first such error is surfaced after the row commits.
	var dc deferredCollector
	for _, p := range parts {
		if err := dc.note(p.t.appendEncodedSample(ctx, p.s, p.arr)); err != nil {
			return fmt.Errorf("core: append to %q: %w", p.t.name, err)
		}
		p.t.meta.Length++
		p.t.diff.AddedTo = p.t.meta.Length
	}
	ds.idMu.Lock()
	id := ds.meta.NextSampleID
	ds.meta.NextSampleID++
	ds.idMu.Unlock()
	idSample, err := idt.encodeSample(tensor.Scalar(tensor.UInt64, float64(id)))
	if err != nil {
		return err
	}
	if err := dc.note(idt.appendEncodedSample(ctx, idSample, nil)); err != nil {
		return err
	}
	idt.meta.Length++
	idt.diff.AddedTo = idt.meta.Length
	return dc.err()
}

// Flush writes all buffered chunks and metadata to storage. A dataset must
// be flushed (or committed) before another process opens it.
func (ds *Dataset) Flush(ctx context.Context) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.flushLocked(ctx)
}

// flushLocked makes everything appended so far durable and publishes it:
// seal, then one root snapshot and the dataset.json flip. Caller holds ds.mu
// exclusively.
func (ds *Dataset) flushLocked(ctx context.Context) error {
	if err := ds.sealLocked(ctx); err != nil {
		return err
	}
	return ds.persistRoot(ctx)
}

// sealLocked seals every tensor's pending chunk, waits for the flush
// pipeline to land all chunk uploads (the barrier that keeps version
// semantics identical to the serial path), and only then snapshots each
// tensor's state as its savedState — so what gets published next never
// references a chunk that is not in storage. Caller holds ds.mu exclusively.
func (ds *Dataset) sealLocked(ctx context.Context) error {
	// A new flush attempt restarts uploads that failed or were cancelled
	// earlier — their blobs are still in the pipeline's pending map, so a
	// transient upload error is recovered by simply flushing again.
	if ds.flusher != nil {
		if err := ds.flusher.redrive(ctx); err != nil {
			return err
		}
	}
	for _, name := range ds.order {
		if err := ds.tensors[name].flushPending(ctx); err != nil {
			return err
		}
	}
	if ds.flusher != nil {
		if err := ds.flusher.drain(ctx); err != nil {
			return err
		}
	}
	for _, name := range ds.order {
		t := ds.tensors[name]
		st, err := t.snapshotState()
		if err != nil {
			return err
		}
		t.savedState = st
	}
	return nil
}

func (ds *Dataset) ensureWritable() error {
	if ds.branch == "" {
		return fmt.Errorf("core: dataset is in detached read-only state at %s; checkout a branch to write", ds.head)
	}
	return nil
}

// persistRoot publishes the saved state of the version the handle is on.
// Caller holds ds.mu exclusively.
func (ds *Dataset) persistRoot(ctx context.Context) error {
	return ds.publish(ctx, ds.tree, ds.branch, ds.head, ds.savedVersionState())
}

// publish makes vs, as the state of branch's head version in tree, the
// dataset's published head with the staged write-new-then-publish protocol:
// stage the root snapshot under the next generation's roots/ key, then
// atomically flip dataset.json to point at it (FS providers rename into
// place; object stores replace whole objects). Everything the root
// references — chunks, the state objects of versions already left — must be
// durable before the call. A writer killed anywhere before the dataset.json
// rewrite leaves the previous generation untouched and fully readable; the
// staged snapshot and any chunks uploaded for it are garbage fsck collects.
//
// The handle moves onto tree/branch/head only once the publish succeeded, so
// a failed Commit or Checkout leaves it where it was, and the generation
// advances only then too, so a retried flush restages the same generation
// and converges to identical bytes. Caller holds ds.mu exclusively;
// NextSampleID is copied under idMu because row appends allocate ids outside
// the structure lock.
func (ds *Dataset) publish(ctx context.Context, tree *version.Tree, branch, head string, vs versionState) error {
	rawTree, err := tree.Marshal()
	if err != nil {
		return err
	}
	ds.idMu.Lock()
	meta := ds.meta
	ds.idMu.Unlock()
	meta.CurrentBranch = branch
	meta.Generation++
	root := rootFile{Meta: meta, Branch: branch, Head: head, Tree: rawTree, versionState: vs}
	if err := ds.store.Put(ctx, rootKey(meta.Generation), mustJSON(root)); err != nil {
		return err
	}
	// The publish point: after this Put, the new generation is live.
	if err := ds.store.Put(ctx, datasetMetaKey, mustJSON(meta)); err != nil {
		return err
	}
	ds.idMu.Lock()
	ds.meta.Generation, ds.meta.CurrentBranch = meta.Generation, branch
	ds.idMu.Unlock()
	ds.tree, ds.branch, ds.head = tree, branch, head
	// Keep the current and previous snapshots (the previous one is the
	// crash-recovery target while the next publish is in flight); drop
	// older ones best-effort.
	if meta.Generation > 2 {
		_ = ds.store.Delete(ctx, rootKey(meta.Generation-2))
	}
	return nil
}

// Group is a syntactic view over tensors sharing a name prefix (§3.1).
type Group struct {
	ds     *Dataset
	prefix string
}

// Group returns a group rooted at name.
func (ds *Dataset) Group(name string) Group {
	return Group{ds: ds, prefix: strings.TrimSuffix(name, "/") + "/"}
}

// CreateTensor creates a tensor inside the group.
func (g Group) CreateTensor(ctx context.Context, spec TensorSpec) (*Tensor, error) {
	spec.Name = g.prefix + spec.Name
	return g.ds.CreateTensor(ctx, spec)
}

// Tensor opens a tensor inside the group.
func (g Group) Tensor(name string) *Tensor { return g.ds.Tensor(g.prefix + name) }

// Tensors lists visible tensors in the group, names relative to it.
func (g Group) Tensors() []string {
	var out []string
	for _, name := range g.ds.Tensors() {
		if strings.HasPrefix(name, g.prefix) {
			out = append(out, strings.TrimPrefix(name, g.prefix))
		}
	}
	sort.Strings(out)
	return out
}
