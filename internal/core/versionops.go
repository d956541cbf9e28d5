package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/version"
)

// Commit flushes the working version, freezes it as an immutable snapshot
// with the given message, and opens a fresh mutable head (§4.2). It returns
// the commit id. A failed Commit leaves the handle on the uncommitted head it
// was on, so the call can be retried.
func (ds *Dataset) Commit(ctx context.Context, message string) (string, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.ensureWritable(); err != nil {
		return "", err
	}
	if err := ds.sealLocked(ctx); err != nil {
		return "", err
	}
	// Freeze the version being committed where loadVersionState finds it,
	// before the root that moves past it.
	vs := ds.savedVersionState()
	if err := ds.store.Put(ctx, versionStateKey(ds.head), mustJSON(vs)); err != nil {
		return "", err
	}
	tree := ds.tree.Clone()
	committed, newHead, err := tree.Commit(ds.branch, message, ds.now())
	if err != nil {
		return "", err
	}
	// The new head starts from the same tensors with an empty diff; chunks
	// are NOT copied — it will hold only chunks modified in it (§4.2).
	vs.resetDiffs()
	if err := ds.publish(ctx, tree, ds.branch, newHead.ID, vs); err != nil {
		return "", err
	}
	for _, name := range ds.order {
		t := ds.tensors[name]
		t.savedState = vs.Tensors[name]
		t.diff = t.savedState.Diff
	}
	return committed.ID, nil
}

// resetDiffs empties every tensor's commit diff: vs becomes the starting
// state of a fresh head forked from the version it described.
func (vs versionState) resetDiffs() {
	for name, st := range vs.Tensors {
		st.Diff = diffRecord{AddedFrom: st.Meta.Length, AddedTo: st.Meta.Length}
		vs.Tensors[name] = st
	}
}

// Checkout switches to a branch, creating it when create is true, or enters
// a detached read-only state at a commit id. Pending writes are flushed
// first. A detached checkout publishes nothing: the root stays on the head of
// the branch the handle left, which is where a plain Open lands.
func (ds *Dataset) Checkout(ctx context.Context, ref string, create bool) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.branch != "" {
		if err := ds.flushLocked(ctx); err != nil {
			return err
		}
	}
	tree, branch := ds.tree, ref
	var node *version.Node
	var vs versionState
	var err error
	if create {
		tree = ds.tree.Clone()
		node, err = tree.CreateBranch(ref, ds.currentRefLocked(), ds.now())
		if err != nil {
			return err
		}
		// A branch rooted at an empty lineage starts from the empty state.
		if node.Parent != "" {
			if vs, err = ds.loadVersionState(ctx, node.Parent); err != nil {
				return err
			}
			vs.resetDiffs()
		}
	} else {
		node, err = tree.Resolve(ref)
		if err != nil {
			return err
		}
		if _, isBranch := tree.Heads[ref]; !isBranch {
			// Detached checkout of a specific commit: read-only time travel
			// (§5.2).
			if !node.Committed {
				return fmt.Errorf("core: cannot checkout mutable head %q of another branch", ref)
			}
			branch = ""
		}
		if vs, err = ds.loadVersionState(ctx, node.ID); err != nil {
			return err
		}
	}
	tensors, err := ds.tensorsFromState(vs)
	if err != nil {
		return err
	}
	if branch == "" {
		ds.branch, ds.head = "", node.ID
		ds.install(vs, tensors)
		return nil
	}
	// Moving the root off the head it is on: park that head's state where
	// loadVersionState will look for it from now on.
	if left := ds.tree.Heads[ds.meta.CurrentBranch]; left != node.ID {
		parked, err := ds.loadVersionState(ctx, left)
		if err != nil {
			return err
		}
		if err := ds.store.Put(ctx, versionStateKey(left), mustJSON(parked)); err != nil {
			return err
		}
	}
	if err := ds.publish(ctx, tree, branch, node.ID, vs); err != nil {
		return err
	}
	ds.install(vs, tensors)
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
		vs, err := ds.loadVersionState(ctx, vid)
		if err != nil {
			return nil, err
		}
		for _, name := range vs.Schema.Tensors {
			d := vs.Tensors[name].Diff
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
	src, err := ds.ReadAtVersion(ctx, srcBranch)
	if err != nil {
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
	defer ds.mu.RUnlock()
	node, err := ds.tree.Resolve(ref)
	if err != nil {
		return nil, err
	}
	if !node.Committed {
		// A branch head: read it through a detached twin as well.
		if _, isBranch := ds.tree.Heads[ref]; !isBranch {
			return nil, fmt.Errorf("core: ref %q is not a commit or branch", ref)
		}
	}
	vs, err := ds.loadVersionState(ctx, node.ID)
	if err != nil {
		return nil, err
	}
	out := &Dataset{
		store:  ds.store,
		meta:   ds.meta,
		tree:   ds.tree,
		branch: "",
		head:   node.ID,
		now:    ds.now,
		scope:  scopeCounter.Add(1),
	}
	tensors, err := out.tensorsFromState(vs)
	if err != nil {
		return nil, err
	}
	out.install(vs, tensors)
	return out, nil
}
