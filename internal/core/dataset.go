// Package core implements the Tensor Storage Format dataset (§3): columnar
// datasets whose columns are typed tensors of dynamically shaped
// n-dimensional samples, chunked between size bounds, indexed by compressed
// encoders, and versioned through a branching commit tree over any storage
// provider.
//
// A dataset on storage is fully self-contained (§5): root snapshots
// roots/<gen>, each holding the dataset's provenance record, the version tree
// and the state of the version being written, the newest being the published
// one; and per-version sub-directories versions/<vid>/ holding only the
// chunks modified in that version (§4.2) and, once a handle has left the
// version, its state.json; a chunk object is written once. Nothing else is
// written or read. Every publish (Create, CreateTensor, DeleteTensor, Flush,
// Commit, Checkout, Merge) takes the write round trips its bytes need: the
// chunk uploads and the state objects of versions being left land together,
// then the new root goes out with the delete of the snapshot two generations
// back. A publish with nothing to upload is one round trip.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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

	// flusher is the pipeline every sealed chunk of this handle leaves
	// through, present from construction. It changes only in
	// SetWriteOptions. Guarded by ds.mu.
	flusher *flushPipeline

	// branch is the checked-out branch; empty when detached at a commit.
	branch string
	// head is the current version id (mutable head, or a frozen commit
	// when detached).
	head string
	// gen is the generation of the root this handle last opened or
	// published, and rootBranch the branch that root is on: branch, or the
	// one a detached checkout left.
	gen        uint64
	rootBranch string

	tensors map[string]*Tensor
	order   []string

	// strict rejects out-of-bounds SetAt instead of padding (§3.5:
	// "While the strict mode is disabled, out-of-the-bounds indices of a
	// tensor can be assigned").
	strict bool

	// integrity summarizes what Open learned about the dataset's
	// integrity state (generation, checksum coverage). Guarded by ds.mu.
	integrity IntegrityInfo

	// scope is the process-unique identity of the handle's lineage (see
	// ScopeID). Immutable after construction.
	scope uint64

	// chunks is the lineage's decoded-chunk cache, nil until the first read
	// of a landed chunk or the first twin.
	chunks atomic.Pointer[ChunkCache]
	// superseded and collect are the retired chunks the next root lists and
	// the next publish deletes (see publish, Tensor.retire); deleted is the
	// head schema's tombstones (schemaFile.Deleted). Under ds.mu.
	superseded, collect []string
	deleted             map[string]uint64

	// now supplies timestamps; replaceable in tests.
	now func() time.Time
}

// scopeCounter hands out process-unique lineage ids; see ScopeID.
var scopeCounter atomic.Uint64

// ScopeID returns the process-unique identity of this handle's lineage: the
// handle Create or Open returned and every ReadAtVersion twin of it or of
// its twins, which share its decoded-chunk cache. ChunkKey includes it, so
// lineages sharing one cache (a NodeCache) never alias: two Opens of one
// store are two lineages — conservative, but never wrong.
func (ds *Dataset) ScopeID() uint64 { return ds.scope }

// SetStrict toggles strict index checking for in-place assignment.
func (ds *Dataset) SetStrict(strict bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.strict = strict
}

// Create initializes an empty dataset on the provider. The provider's
// namespace must not already contain a root.
func Create(ctx context.Context, store storage.Provider, name string) (*Dataset, error) {
	if _, err := publishedGeneration(ctx, store); err == nil {
		return nil, fmt.Errorf("core: dataset already exists")
	} else if err != errNoDataset {
		return nil, err
	}
	now := time.Now().UTC()
	ds := newHandle(store)
	ds.meta = datasetMeta{Name: name, FormatVersion: FormatVersion, CreatedAt: version.Stamp{Time: now}}
	ds.tree = version.NewTree(now)
	ds.branch = version.DefaultBranch
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

// newHandle returns an empty handle on store with a process-unique scope and
// its flush pipeline.
func newHandle(store storage.Provider) *Dataset {
	return &Dataset{
		store:   store,
		flusher: newFlushPipeline(store, 0),
		tensors: map[string]*Tensor{},
		now:     func() time.Time { return time.Now().UTC() },
		scope:   scopeCounter.Add(1),
	}
}

// Open loads an existing dataset at the head its newest root is on.
func Open(ctx context.Context, store storage.Provider) (*Dataset, error) {
	gen, err := publishedGeneration(ctx, store)
	if err != nil {
		return nil, err
	}
	root, err := loadRoot(ctx, store, gen)
	if err != nil {
		return nil, err
	}
	ds := newHandle(store)
	ds.meta, ds.gen, ds.branch, ds.rootBranch = root.Meta, gen, root.Branch, root.Branch
	ds.integrity.Generation = gen
	ds.tree, err = version.Unmarshal(root.Tree)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt version tree in root snapshot %s: %w", rootKey(gen), err)
	}
	headNode, err := ds.tree.Head(ds.branch)
	if err != nil {
		return nil, err
	}
	ds.head, ds.collect = headNode.ID, root.Superseded
	if root.Head != ds.head {
		return nil, fmt.Errorf("core: root snapshot %s holds version %s, not the head %s of branch %q", rootKey(gen), root.Head, ds.head, ds.branch)
	}
	tensors, err := ds.tensorsFromState(root.versionState)
	if err != nil {
		return nil, fmt.Errorf("core: root snapshot %s: %w", rootKey(gen), err)
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
	// Restart uploads a failed Flush parked: the root below lists their
	// chunks, and their stale error must not fail a publish that seals nothing.
	if err := ds.flusher.redrive(ctx); err != nil {
		return nil, err
	}
	// Publish a generation covering the schema change so a process that
	// opens the dataset without an intervening Flush still sees the new
	// tensor, whose NextChunkID now carries its name's tombstone. Roll back
	// on failure: a staged root is harmless garbage and the call can be retried.
	ds.tensors[spec.Name] = t
	ds.order = append(ds.order, spec.Name)
	next, tombstoned := ds.deleted[spec.Name]
	delete(ds.deleted, spec.Name)
	if err := ds.persistRoot(ctx); err != nil {
		delete(ds.tensors, spec.Name)
		ds.order = ds.order[:len(ds.order)-1]
		if tombstoned {
			ds.deleted[spec.Name] = next
		}
		return nil, err
	}
	return t, nil
}

// DeleteTensor removes a tensor from the current working version's schema.
// Historical commits keep the tensor (schema evolution is version-tracked,
// §2.4(3)/§3.1); its chunks in ancestor versions remain untouched. Its head
// chunks are retired (Tensor.retire), and the schema keeps its NextChunkID as
// a tombstone, where a tensor recreated under the name starts.
func (ds *Dataset) DeleteTensor(ctx context.Context, name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.ensureWritable(); err != nil {
		return err
	}
	t, ok := ds.tensors[name]
	if !ok {
		return fmt.Errorf("core: tensor %q does not exist", name)
	}
	// Land every queued AND parked upload first, so no later seal redrives
	// one of this tensor's chunks after its collection.
	if err := ds.flusher.land(ctx); err != nil {
		return err
	}
	superseded := ds.superseded
	ds.superseded = slices.Clip(superseded) // appends leave superseded as it is
	for id, vid := range t.chunkVersion {
		t.retire(id, vid, chunkKey(vid, name, id), t.meta.NextChunkID)
	}
	at := slices.Index(ds.order, name)
	delete(ds.tensors, name)
	ds.order = slices.Delete(ds.order, at, at+1)
	if ds.deleted == nil {
		ds.deleted = map[string]uint64{}
	}
	ds.deleted[name] = t.meta.NextChunkID
	// Roll back on failure, as CreateTensor does.
	if err := ds.persistRoot(ctx); err != nil {
		ds.tensors[name] = t
		ds.order = slices.Insert(ds.order, at, name)
		ds.superseded = superseded
		delete(ds.deleted, name)
		return err
	}
	return nil
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
		if err := dc.note(p.t.appendLocked(ctx, []chunk.Sample{p.s}, []*tensor.NDArray{p.arr})); err != nil {
			return fmt.Errorf("core: append to %q: %w", p.t.name, err)
		}
	}
	ds.idMu.Lock()
	id := ds.meta.NextSampleID
	ds.meta.NextSampleID++
	ds.idMu.Unlock()
	idSample, err := idt.encodeSample(tensor.Scalar(tensor.UInt64, float64(id)))
	if err != nil {
		return err
	}
	if err := dc.note(idt.appendLocked(ctx, []chunk.Sample{idSample}, nil)); err != nil {
		return err
	}
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
// seal, then the publish (the chunk uploads landing, then the root
// snapshot). Caller holds ds.mu exclusively.
func (ds *Dataset) flushLocked(ctx context.Context) error {
	// Rushed from before the seal, so the chunks it seals skip the lanes too.
	defer ds.flusher.rush()()
	if err := ds.sealLocked(ctx); err != nil {
		return err
	}
	return ds.persistRoot(ctx)
}

// sealLocked hands every tensor's pending chunk to the flush pipeline,
// unbinds what the encoders no longer name (Tensor.unbindDropped) and
// snapshots each tensor's state as its savedState. It does not wait for the
// uploads: the snapshot does not depend on them landing (writeChunk records
// each chunk's CRC first), and the publish that follows drains the pipeline
// before it writes the root, so nothing published references a chunk that
// is not in storage. Caller holds ds.mu exclusively.
func (ds *Dataset) sealLocked(ctx context.Context) error {
	// A new flush attempt restarts uploads that failed or were cancelled
	// earlier — their blobs are still in the pipeline's pending map, so a
	// transient upload error is recovered by simply flushing again.
	if err := ds.flusher.redrive(ctx); err != nil {
		return err
	}
	for _, name := range ds.order {
		if err := ds.tensors[name].flushPending(ctx); err != nil {
			return err
		}
	}
	for _, name := range ds.order {
		t := ds.tensors[name]
		t.unbindDropped()
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
	return ds.publish(ctx, ds.tree, ds.branch, ds.head, ds.savedVersionState(), "", nil)
}

// publish makes vs, as the state of branch's head version in tree, the
// dataset's published head in the round trips its bytes need. Round 1 lands
// everything the new root names at once: the flush pipeline is rushed (by the
// caller before its seal, or here), so every chunk upload still waiting for a
// lane goes out now, up to the 2 × lanes the pipeline holds, and the staged
// object (stagedKey → stagedBlob unless the key is empty: the state object of
// the version the root moves past) is Put meanwhile. Round 1 sends nothing
// when there is nothing to upload or stage. A seal of more chunks than the
// pipeline holds sent the rest as uploads returned, so round 1 then takes more
// than one round trip. Round 2, only once every round-1 step succeeded, Puts
// the root under the next generation's roots/ key, its superseded list naming
// the retired chunks (Tensor.retire) the published root may name. Beside it,
// on at most lanes goroutines, it deletes best-effort the snapshot two
// generations back and collect: the chunks only that snapshot names, and
// retired ones no root names. The root Put is the commit point, since the
// newest root is the published one and a Put replaces a whole object
// atomically (FS providers rename into place). That is the one ordering crash
// consistency needs: everything the root references is durable before the root
// is written. The deletes need no such wait: the new root names nothing they
// remove, and a reader that listed roots/ chose the published generation,
// whose objects stay. A writer killed anywhere before the root Put leaves the
// previous generation untouched and fully readable; the chunks uploaded for
// the lost root are orphans fsck collects, and a staged state object of a
// version the published root is still on is ignored and overwritten by the
// next Commit. The same holds for a newest root deleted from outside the
// program: the previous generation opens, as after a crash before its publish,
// and fsck names the lost generation's chunks as orphans.
//
// The handle moves onto tree/branch/head only once the publish succeeded, so
// a failed Commit or Checkout leaves it where it was, and the generation
// advances only then too, so a retried flush rewrites the same generation.
// Caller holds ds.mu exclusively; NextSampleID is copied under idMu because
// row appends allocate ids outside the structure lock.
func (ds *Dataset) publish(ctx context.Context, tree *version.Tree, branch, head string, vs versionState, stagedKey string, stagedBlob []byte) error {
	rawTree, err := tree.Marshal()
	if err != nil {
		return err
	}
	slices.Sort(ds.superseded)
	ds.idMu.Lock()
	root := rootFile{Meta: ds.meta, Branch: branch, Head: head, Tree: rawTree, Superseded: ds.superseded, versionState: vs}
	ds.idMu.Unlock()
	gen := ds.gen + 1

	// Round 1: the staged Put on its own goroutine, the rushed pipeline's
	// drain on this one.
	var staged sync.WaitGroup
	var stagedErr error
	if stagedKey != "" {
		staged.Add(1)
		go func() { defer staged.Done(); stagedErr = ds.store.Put(ctx, stagedKey, stagedBlob) }()
	}
	pace := ds.flusher.rush()
	drainErr := ds.flusher.drain(ctx)
	pace()
	staged.Wait()
	if err := cmp.Or(drainErr, stagedErr); err != nil {
		return err
	}
	// Round 2, the commit point: after the root Put, the new generation is
	// live. Two snapshots stay, the published one and the new one.
	doomed := ds.collect
	if gen > 2 {
		doomed = append([]string{rootKey(gen - 2)}, doomed...)
	}
	dropped := ds.flusher.remove(ctx, doomed)
	err = ds.store.Put(ctx, rootKey(gen), mustJSON(root))
	dropped()
	if err != nil {
		return err
	}
	ds.collect, ds.superseded = ds.superseded, nil
	ds.gen, ds.rootBranch = gen, branch
	ds.tree, ds.branch, ds.head = tree, branch, head
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
