package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/storage"
	"repro/internal/version"
)

// Fsck issue kinds. Each issue names the exact storage object it concerns.
const (
	// FsckCorruptObject: a metadata object exists but does not parse.
	FsckCorruptObject = "corrupt-object"
	// FsckMissingRoot: dataset.json points at a generation whose snapshot
	// object is gone.
	FsckMissingRoot = "missing-root"
	// FsckAbandonedRoot: a staged generation newer than the published one —
	// the footprint of a writer killed between staging and publishing.
	FsckAbandonedRoot = "abandoned-root"
	// FsckStaleRoot: a snapshot older than the previous generation that
	// best-effort cleanup failed to remove.
	FsckStaleRoot = "stale-root"
	// FsckMissingObject: the state object of a version in the tree is
	// absent.
	FsckMissingObject = "missing-object"
	// FsckMissingChunk: a chunk listed in a version's chunk set is absent.
	FsckMissingChunk = "missing-chunk"
	// FsckChecksumMismatch: a stored chunk's bytes fail the CRC32C recorded
	// in the tensor's checksum manifest, or the manifest records none.
	FsckChecksumMismatch = "checksum-mismatch"
	// FsckOrphanChunk: a stored chunk not referenced by its version's chunk
	// set (e.g. uploaded for a generation that was never published).
	FsckOrphanChunk = "orphan-chunk"
	// FsckOrphanVersion: a version directory with no node in the version
	// tree.
	FsckOrphanVersion = "orphan-version"
)

// FsckOptions configures a consistency walk.
type FsckOptions struct {
	// Repair makes fsck fix what it safely can: delete abandoned/stale
	// roots, orphan chunks and orphan version directories. Missing objects
	// and checksum mismatches are data loss and are only ever reported.
	Repair bool
}

// FsckIssue is one problem found by Fsck.
type FsckIssue struct {
	Kind       string
	Key        string // the exact storage object concerned
	Detail     string
	Repairable bool
	Repaired   bool
}

func (i FsckIssue) String() string {
	state := ""
	switch {
	case i.Repaired:
		state = " [repaired]"
	case i.Repairable:
		state = " [repairable]"
	}
	return fmt.Sprintf("%s: %s: %s%s", i.Kind, i.Key, i.Detail, state)
}

// FsckReport is the result of a consistency walk.
type FsckReport struct {
	// Generation is the published generation.
	Generation uint64
	// Issues lists every problem found, in discovery order.
	Issues []FsckIssue
	// ObjectsChecked counts storage objects inspected.
	ObjectsChecked int
	// ChunksVerified counts chunks whose bytes matched their recorded
	// CRC32C.
	ChunksVerified int
}

// Clean reports whether the dataset has no outstanding problems: no issues,
// or every issue repaired.
func (r *FsckReport) Clean() bool {
	for _, i := range r.Issues {
		if !i.Repaired {
			return false
		}
	}
	return true
}

// Format renders the report for humans, one line per issue.
func (r *FsckReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck: generation %d, %d objects checked, %d chunks verified\n",
		r.Generation, r.ObjectsChecked, r.ChunksVerified)
	for _, i := range r.Issues {
		fmt.Fprintf(&b, "  %s\n", i.String())
	}
	if r.Clean() {
		b.WriteString("  clean\n")
	}
	return b.String()
}

// fsckState threads the walk.
type fsckState struct {
	store storage.Provider
	rep   *FsckReport
	root  *rootFile
	tree  *version.Tree
	// fixes holds the repair action for the same-index repairable issue.
	fixes []func(context.Context) error
}

func (f *fsckState) issue(kind, key, detail string, fix func(context.Context) error) {
	f.rep.Issues = append(f.rep.Issues, FsckIssue{Kind: kind, Key: key, Detail: detail, Repairable: fix != nil})
	f.fixes = append(f.fixes, fix)
}

// Fsck walks a dataset's storage namespace and cross-checks the manifest
// against the stored objects: the published root and every left version's
// state present and parsing, every referenced chunk present, every stored
// chunk referenced, every checksum matching, and no leftovers from dead
// generations. With opts.Repair it fixes what is safely fixable (see
// FsckOptions). The returned error is reserved for infrastructure failures
// (storage errors, no dataset at all); consistency problems land in the
// report.
func Fsck(ctx context.Context, store storage.Provider, opts FsckOptions) (*FsckReport, error) {
	f := &fsckState{store: store, rep: &FsckReport{}}

	raw, err := store.Get(ctx, datasetMetaKey)
	if err != nil {
		if storage.IsNotFound(err) {
			return nil, fmt.Errorf("core: no dataset at this location")
		}
		return nil, err
	}
	f.rep.ObjectsChecked++
	var meta datasetMeta
	if err := unmarshalJSON(raw, &meta); err != nil {
		f.issue(FsckCorruptObject, datasetMetaKey, fmt.Sprintf("does not parse: %v", err), nil)
		return f.rep, nil
	}
	f.rep.Generation = meta.Generation

	root, err := loadRoot(ctx, store, meta.Generation)
	switch {
	case err == nil:
		f.root = root
	case storage.IsNotFound(err):
		f.issue(FsckMissingRoot, rootKey(meta.Generation),
			"dataset.json points at this generation but its snapshot is gone", nil)
	default:
		f.issue(FsckCorruptObject, rootKey(meta.Generation), err.Error(), nil)
	}
	f.rep.ObjectsChecked++
	if err := f.checkRootsListing(ctx, meta.Generation); err != nil {
		return nil, err
	}
	// Without the root there is no version tree to judge the rest by, and
	// the other snapshots are all that is left to recover from: report only.
	if f.root == nil {
		return f.rep, nil
	}
	f.tree, err = version.Unmarshal(f.root.Tree)
	if err != nil {
		f.issue(FsckCorruptObject, rootKey(meta.Generation), fmt.Sprintf("embedded version tree does not parse: %v", err), nil)
		return f.rep, nil
	}
	if err := f.checkVersions(ctx); err != nil {
		return nil, err
	}
	if err := f.checkOrphanVersions(ctx); err != nil {
		return nil, err
	}

	if opts.Repair {
		if err := f.repair(ctx); err != nil {
			return f.rep, err
		}
	}
	return f.rep, nil
}

// checkRootsListing flags staged-but-unpublished generations (a crashed
// writer's footprint) and stale snapshots older than the kept window
// (current + previous).
func (f *fsckState) checkRootsListing(ctx context.Context, gen uint64) error {
	keys, err := f.store.List(ctx, rootsPrefix)
	if err != nil {
		return err
	}
	for _, key := range keys {
		key := key
		g, ok := parseChunkName(strings.TrimPrefix(key, rootsPrefix))
		if !ok {
			f.issue(FsckOrphanVersion, key, "unparseable name under roots/", func(ctx context.Context) error {
				return f.store.Delete(ctx, key)
			})
			continue
		}
		switch {
		case g > gen:
			f.issue(FsckAbandonedRoot, key,
				fmt.Sprintf("staged generation %d was never published (writer died before the dataset.json flip); published generation is %d", g, gen),
				func(ctx context.Context) error { return f.store.Delete(ctx, key) })
		case gen >= 2 && g < gen-1:
			f.issue(FsckStaleRoot, key,
				fmt.Sprintf("superseded snapshot (published generation is %d)", gen),
				func(ctx context.Context) error { return f.store.Delete(ctx, key) })
		}
	}
	return nil
}

// versionState resolves one version's state the way loadVersionState does:
// the root for the version it is on, versions/<vid>/state.json otherwise. A
// missing or unparseable state object is an issue naming it, and the version
// then checks as empty.
func (f *fsckState) versionState(ctx context.Context, vid string) (versionState, error) {
	if f.root.Head == vid {
		return f.root.versionState, nil
	}
	key := versionStateKey(vid)
	raw, err := f.store.Get(ctx, key)
	if storage.IsNotFound(err) {
		f.issue(FsckMissingObject, key, "version is in the tree but its state object is gone", nil)
		return versionState{}, nil
	}
	if err != nil {
		return versionState{}, err
	}
	f.rep.ObjectsChecked++
	vs, err := parseVersionState(key, raw)
	if err != nil {
		f.issue(FsckCorruptObject, key, fmt.Sprintf("does not parse: %v", err), nil)
	}
	return vs, nil
}

// checkVersions walks every version in the tree: referenced chunks must
// exist and match their recorded CRC32C, and stored chunks must be
// referenced.
func (f *fsckState) checkVersions(ctx context.Context) error {
	vids := make([]string, 0, len(f.tree.Nodes))
	for vid := range f.tree.Nodes {
		vids = append(vids, vid)
	}
	sort.Strings(vids)
	for _, vid := range vids {
		vs, err := f.versionState(ctx, vid)
		if err != nil {
			return err
		}
		for _, name := range vs.Schema.Tensors {
			st := vs.Tensors[name]
			// The version's chunk set: the ids its state binds to itself.
			var ids []uint64
			for _, g := range st.ChunkVersions {
				if g.Version == vid {
					ids = append(ids, g.Chunks...)
				}
			}
			referenced := make(map[uint64]bool, len(ids))
			for _, id := range ids {
				referenced[id] = true
				key := chunkKey(vid, name, id)
				f.rep.ObjectsChecked++
				raw, err := f.store.Get(ctx, key)
				if err != nil {
					if storage.IsNotFound(err) {
						f.issue(FsckMissingChunk, key, "referenced by the version's chunk set but absent from storage", nil)
						continue
					}
					return err
				}
				want, hasDigest := st.Meta.Checksums[chunkName(id)]
				if !hasDigest {
					f.issue(FsckChecksumMismatch, key, "no digest recorded in the tensor's checksum manifest", nil)
					continue
				}
				if got := storage.Checksum(raw); got != want {
					f.issue(FsckChecksumMismatch, key,
						fmt.Sprintf("stored bytes have CRC32C %08x, manifest records %08x", got, want), nil)
					continue
				}
				f.rep.ChunksVerified++
			}
			// Stored chunks this version's set does not reference.
			prefix := tensorPrefix(vid, name) + "/chunks/"
			keys, err := f.store.List(ctx, prefix)
			if err != nil {
				return err
			}
			for _, key := range keys {
				key := key
				id, ok := parseChunkName(strings.TrimPrefix(key, prefix))
				if !ok || !referenced[id] {
					f.issue(FsckOrphanChunk, key,
						"stored but not referenced by the version's chunk set (e.g. uploaded for a generation that was never published)",
						func(ctx context.Context) error { return f.store.Delete(ctx, key) })
				}
			}
		}
	}
	return nil
}

// checkOrphanVersions flags version directories with no node in the tree —
// the object footprint of commits or branches that were never published.
func (f *fsckState) checkOrphanVersions(ctx context.Context) error {
	keys, err := f.store.List(ctx, "versions/")
	if err != nil {
		return err
	}
	flagged := map[string]bool{}
	for _, key := range keys {
		rest := strings.TrimPrefix(key, "versions/")
		vid, _, _ := strings.Cut(rest, "/")
		if vid == "" || flagged[vid] {
			continue
		}
		if _, ok := f.tree.Nodes[vid]; ok {
			continue
		}
		flagged[vid] = true
		prefix := versionPrefix(vid) + "/"
		f.issue(FsckOrphanVersion, versionPrefix(vid),
			"version directory has no node in the version tree (never-published commit or branch)",
			func(ctx context.Context) error {
				keys, err := f.store.List(ctx, prefix)
				if err != nil {
					return err
				}
				for _, k := range keys {
					if err := f.store.Delete(ctx, k); err != nil {
						return err
					}
				}
				return nil
			})
	}
	return nil
}

// repair runs the collected fixes.
func (f *fsckState) repair(ctx context.Context) error {
	for i, fix := range f.fixes {
		if fix == nil {
			continue
		}
		if err := fix(ctx); err != nil {
			return fmt.Errorf("core: fsck repair of %s %q: %w", f.rep.Issues[i].Kind, f.rep.Issues[i].Key, err)
		}
		f.rep.Issues[i].Repaired = true
	}
	return nil
}
