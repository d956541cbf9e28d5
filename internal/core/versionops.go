package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/storage"
	"repro/internal/version"
)

// Commit flushes the working version, freezes it as an immutable snapshot
// with the given message, and opens a fresh mutable head (§4.2). It returns
// the commit id.
func (ds *Dataset) Commit(ctx context.Context, message string) (string, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.ensureWritable(); err != nil {
		return "", err
	}
	if err := ds.flushLocked(ctx); err != nil {
		return "", err
	}
	committed, newHead, err := ds.tree.Commit(ds.branch, message, ds.now())
	if err != nil {
		return "", err
	}
	oldHead := ds.head
	ds.head = newHead.ID
	if err := ds.carryStateForward(ctx, oldHead); err != nil {
		return "", err
	}
	if err := ds.persistRoot(ctx); err != nil {
		return "", err
	}
	return committed.ID, nil
}

// carryStateForward copies schema, tensor metadata, encoders and resets
// chunk sets/diffs into the (new, empty) head version directory. Chunks are
// NOT copied — the new version holds only chunks modified in it (§4.2).
// Caller holds the write lock; ds.head is already the new version.
func (ds *Dataset) carryStateForward(ctx context.Context, from string) error {
	raw, err := ds.store.Get(ctx, schemaKey(from))
	if err != nil {
		return err
	}
	if err := ds.store.Put(ctx, schemaKey(ds.head), raw); err != nil {
		return err
	}
	for _, name := range ds.order {
		t := ds.tensors[name]
		t.chunkSet = map[uint64]bool{}
		t.diff = diffRecord{AddedFrom: t.meta.Length, AddedTo: t.meta.Length}
		if err := t.save(ctx); err != nil {
			return err
		}
	}
	// save routes through the flush pipeline; fence the new head's state
	// before the caller persists the root files.
	return ds.drainFlusher(ctx)
}

// Checkout switches to a branch, creating it when create is true, or enters
// a detached read-only state at a commit id. Pending writes are flushed
// first.
func (ds *Dataset) Checkout(ctx context.Context, ref string, create bool) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.branch != "" {
		if err := ds.flushLocked(ctx); err != nil {
			return err
		}
	}
	if create {
		head, err := ds.tree.CreateBranch(ref, ds.currentRefLocked(), ds.now())
		if err != nil {
			return err
		}
		ds.branch = ref
		oldState := head.Parent
		ds.head = head.ID
		if oldState == "" {
			// Branch rooted at an empty lineage: fresh schema.
			if err := ds.store.Put(ctx, schemaKey(ds.head), mustJSON(schemaFile{Tensors: []string{}})); err != nil {
				return err
			}
		} else if err := ds.carryStateFrom(ctx, oldState); err != nil {
			return err
		}
		if err := ds.loadTensors(ctx); err != nil {
			return err
		}
		return ds.persistRoot(ctx)
	}
	node, err := ds.tree.Resolve(ref)
	if err != nil {
		return err
	}
	if _, isBranch := ds.tree.Heads[ref]; isBranch {
		ds.branch = ref
		ds.head = node.ID
	} else {
		// Detached checkout of a specific commit: read-only time travel
		// (§5.2).
		if !node.Committed {
			return fmt.Errorf("core: cannot checkout mutable head %q of another branch", ref)
		}
		ds.branch = ""
		ds.head = node.ID
	}
	if err := ds.loadTensors(ctx); err != nil {
		return err
	}
	return ds.persistRoot(ctx)
}

// carryStateFrom copies schema/meta/encoders from an existing version dir
// into the current head (used when forking a branch).
func (ds *Dataset) carryStateFrom(ctx context.Context, from string) error {
	raw, err := ds.store.Get(ctx, schemaKey(from))
	if err != nil {
		return err
	}
	if err := ds.store.Put(ctx, schemaKey(ds.head), raw); err != nil {
		return err
	}
	var schema schemaFile
	if err := unmarshalJSON(raw, &schema); err != nil {
		return err
	}
	for _, name := range schema.Tensors {
		for _, key := range []struct{ src, dst string }{
			{tensorMetaKey(from, name), tensorMetaKey(ds.head, name)},
			{chunkEncoderKey(from, name), chunkEncoderKey(ds.head, name)},
			{shapeEncoderKey(from, name), shapeEncoderKey(ds.head, name)},
			{tileEncoderKey(from, name), tileEncoderKey(ds.head, name)},
			{seqEncoderKey(from, name), seqEncoderKey(ds.head, name)},
		} {
			blob, err := ds.store.Get(ctx, key.src)
			if storage.IsNotFound(err) {
				continue
			}
			if err != nil {
				return err
			}
			if err := ds.store.Put(ctx, key.dst, blob); err != nil {
				return err
			}
		}
		// Fresh chunk set and diff for the fork head.
		if err := ds.store.Put(ctx, chunkSetKey(ds.head, name), mustJSON(chunkSetFile{})); err != nil {
			return err
		}
		var meta TensorMeta
		rawMeta, err := ds.store.Get(ctx, tensorMetaKey(from, name))
		if err != nil {
			return err
		}
		if err := unmarshalJSON(rawMeta, &meta); err != nil {
			return err
		}
		d := diffRecord{AddedFrom: meta.Length, AddedTo: meta.Length}
		if err := ds.store.Put(ctx, diffKey(ds.head, name), mustJSON(d)); err != nil {
			return err
		}
	}
	return nil
}

func (ds *Dataset) currentRefLocked() string {
	if ds.branch != "" {
		return ds.branch
	}
	return ds.head
}

// Log returns committed versions reachable from the current position,
// newest first.
func (ds *Dataset) Log() ([]*version.Node, error) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.tree.Log(ds.currentRefLocked())
}

// Branches lists all branches.
func (ds *Dataset) Branches() []string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.tree.Branches()
}

// TensorDiff summarizes one tensor's changes on one side of a Diff.
type TensorDiff struct {
	// Added counts samples appended.
	Added uint64
	// Updated lists indices modified in place.
	Updated []uint64
}

// DiffResult reports per-tensor changes of two refs relative to their
// common ancestor (§4.2 Diff).
type DiffResult struct {
	Base string
	// Left/Right map tensor name to its changes on each side.
	Left, Right map[string]TensorDiff
}

// Diff compares two refs (branch names or commit ids). Pending working-set
// changes are flushed first so the comparison reflects the live state.
func (ds *Dataset) Diff(ctx context.Context, a, b string) (*DiffResult, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.branch != "" {
		if err := ds.flushLocked(ctx); err != nil {
			return nil, err
		}
	}
	base, err := ds.tree.CommonAncestor(a, b)
	if err != nil {
		return nil, err
	}
	left, err := ds.collectDiffs(ctx, a, base)
	if err != nil {
		return nil, err
	}
	right, err := ds.collectDiffs(ctx, b, base)
	if err != nil {
		return nil, err
	}
	return &DiffResult{Base: base, Left: left, Right: right}, nil
}

// collectDiffs aggregates per-version diff records from ref down to (but
// excluding) base.
func (ds *Dataset) collectDiffs(ctx context.Context, ref, base string) (map[string]TensorDiff, error) {
	node, err := ds.tree.Resolve(ref)
	if err != nil {
		return nil, err
	}
	anc, err := ds.tree.Ancestry(node.ID)
	if err != nil {
		return nil, err
	}
	out := map[string]TensorDiff{}
	for _, vid := range anc {
		if vid == base {
			break
		}
		raw, err := ds.store.Get(ctx, schemaKey(vid))
		if storage.IsNotFound(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var schema schemaFile
		if err := unmarshalJSON(raw, &schema); err != nil {
			return nil, err
		}
		for _, name := range schema.Tensors {
			rawDiff, err := ds.store.Get(ctx, diffKey(vid, name))
			if storage.IsNotFound(err) {
				continue
			}
			if err != nil {
				return nil, err
			}
			var d diffRecord
			if err := unmarshalJSON(rawDiff, &d); err != nil {
				return nil, err
			}
			agg := out[name]
			agg.Added += d.AddedTo - d.AddedFrom
			agg.Updated = append(agg.Updated, d.Updated...)
			out[name] = agg
		}
	}
	for name, agg := range out {
		sort.Slice(agg.Updated, func(i, j int) bool { return agg.Updated[i] < agg.Updated[j] })
		out[name] = agg
	}
	return out, nil
}

// MergePolicy resolves conflicting in-place updates during Merge.
type MergePolicy int

const (
	// MergeOurs keeps the destination branch's value on conflict.
	MergeOurs MergePolicy = iota
	// MergeTheirs takes the source branch's value on conflict.
	MergeTheirs
)

// Merge applies the changes of srcBranch since the common ancestor onto the
// current branch (§4.2 Merge): appended samples are appended here; in-place
// updates are re-applied, with conflicts (both sides updated the same
// index) resolved by policy.
func (ds *Dataset) Merge(ctx context.Context, srcBranch string, policy MergePolicy) error {
	if ds.Branch() == "" {
		return fmt.Errorf("core: cannot merge into a detached checkout")
	}
	if srcBranch == ds.Branch() {
		return fmt.Errorf("core: cannot merge a branch into itself")
	}
	diff, err := ds.Diff(ctx, srcBranch, ds.Branch())
	if err != nil {
		return err
	}
	// Open a read-only view of the source head to pull data from.
	srcNode, err := func() (*version.Node, error) {
		ds.mu.RLock()
		defer ds.mu.RUnlock()
		return ds.tree.Resolve(srcBranch)
	}()
	if err != nil {
		return err
	}
	src := &Dataset{
		store:   ds.store,
		meta:    ds.meta,
		tree:    ds.tree,
		branch:  "", // detached
		head:    srcNode.ID,
		tensors: map[string]*Tensor{},
		now:     ds.now,
	}
	if err := src.loadTensors(ctx); err != nil {
		return err
	}
	for name, change := range diff.Left {
		srcT := src.Tensor(name)
		dstT := ds.Tensor(name)
		if srcT == nil {
			continue
		}
		if dstT == nil {
			// Tensor created on the source branch: recreate here.
			spec := TensorSpec{
				Name:              name,
				Htype:             srcT.meta.Htype,
				Dtype:             srcT.Dtype(),
				SampleCompression: srcT.meta.SampleCompression,
				ChunkCompression:  srcT.meta.ChunkCompression,
				Hidden:            srcT.meta.Hidden,
				Bounds:            srcT.meta.Bounds,
			}
			var err error
			dstT, err = ds.CreateTensor(ctx, spec)
			if err != nil {
				return err
			}
		}
		// Appends: source samples beyond its base length.
		srcLen := srcT.Len()
		for idx := srcLen - change.Added; idx < srcLen; idx++ {
			arr, err := srcT.At(ctx, idx)
			if err != nil {
				return err
			}
			if err := dstT.Append(ctx, arr); err != nil {
				return err
			}
		}
		// Updates with conflict resolution.
		rightUpdated := map[uint64]bool{}
		if r, ok := diff.Right[name]; ok {
			for _, u := range r.Updated {
				rightUpdated[u] = true
			}
		}
		for _, idx := range change.Updated {
			if rightUpdated[idx] && policy == MergeOurs {
				continue // keep ours
			}
			if idx >= dstT.Len() {
				continue // updated a sample we do not have
			}
			arr, err := srcT.At(ctx, idx)
			if err != nil {
				return err
			}
			if err := dstT.SetAt(ctx, idx, arr); err != nil {
				return err
			}
		}
	}
	return ds.Flush(ctx)
}

// ReadAtVersion opens a detached read-only dataset at a specific commit,
// sharing storage with ds — the time-travel primitive behind TQL's
// versioned queries (§4.4).
func (ds *Dataset) ReadAtVersion(ctx context.Context, ref string) (*Dataset, error) {
	ds.mu.RLock()
	node, err := ds.tree.Resolve(ref)
	ds.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if !node.Committed {
		// A branch head: read it through a detached twin as well.
		if _, isBranch := ds.tree.Heads[ref]; !isBranch {
			return nil, fmt.Errorf("core: ref %q is not a commit or branch", ref)
		}
	}
	out := &Dataset{
		store:   ds.store,
		meta:    ds.meta,
		tree:    ds.tree,
		branch:  "",
		head:    node.ID,
		tensors: map[string]*Tensor{},
		now:     ds.now,
		scope:   scopeCounter.Add(1),
	}
	if err := out.loadTensors(ctx); err != nil {
		return nil, err
	}
	return out, nil
}
