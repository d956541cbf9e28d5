package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/chunk"
	"repro/internal/encoder"
	"repro/internal/storage"
	"repro/internal/version"
)

// Fsck issue kinds. Each issue names the exact storage object it concerns.
const (
	// FsckCorruptObject: a metadata object exists but does not parse.
	FsckCorruptObject = "corrupt-object"
	// FsckStaleRoot: a snapshot older than the previous generation that
	// best-effort cleanup failed to remove.
	FsckStaleRoot = "stale-root"
	// FsckMissingObject: the state object of a version in the tree is
	// absent.
	FsckMissingObject = "missing-object"
	// FsckMissingChunk: a chunk listed in a version's chunk set is absent,
	// or a chunk the tensor's encoders reference is bound to no version in
	// its state's chunk→version map (the issue then names the state object).
	FsckMissingChunk = "missing-chunk"
	// FsckChecksumMismatch: a stored chunk's bytes fail the CRC32C recorded
	// in the tensor's checksum manifest, or the manifest records none. The
	// detail names the data block, or the directory or block table seal,
	// whose own CRC32C fails, when one does.
	FsckChecksumMismatch = "checksum-mismatch"
	// FsckOrphanChunk: a stored chunk not referenced by its version's chunk
	// set (e.g. uploaded for a generation that was never published, or left
	// by a tensor the version's schema no longer has), and not listed as
	// superseded by the published root.
	FsckOrphanChunk = "orphan-chunk"
	// FsckOrphanVersion: a version directory with no node in the version
	// tree.
	FsckOrphanVersion = "orphan-version"
)

// FsckOptions configures a consistency walk.
type FsckOptions struct {
	// Repair makes fsck fix what it safely can: delete stale roots, orphan
	// chunks and orphan version directories. Missing objects and checksum
	// mismatches are data loss and are only ever reported.
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
	gens, stray, err := listRoots(ctx, store)
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, errNoDataset
	}
	gen := gens[len(gens)-1]
	f.rep.Generation = gen
	for _, key := range stray {
		f.issue(FsckOrphanVersion, key, "unparseable name under roots/", f.deleteFix(key))
	}
	// Publish keeps two snapshots: the published one and the one before it.
	for _, g := range gens {
		if g+1 < gen {
			f.issue(FsckStaleRoot, rootKey(g), fmt.Sprintf("superseded snapshot (published generation is %d)", gen), f.deleteFix(rootKey(g)))
		}
	}
	f.rep.ObjectsChecked++
	if f.root, err = loadRoot(ctx, store, gen); err != nil {
		f.issue(FsckCorruptObject, rootKey(gen), err.Error(), nil)
	}
	// Without the root there is no version tree to judge the rest by, and
	// the other snapshots are all that is left to recover from: report only.
	if f.root == nil {
		return f.rep, nil
	}
	f.tree, err = version.Unmarshal(f.root.Tree)
	if err != nil {
		f.issue(FsckCorruptObject, rootKey(gen), fmt.Sprintf("embedded version tree does not parse: %v", err), nil)
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

// deleteFix is the repair that deletes key.
func (f *fsckState) deleteFix(key string) func(context.Context) error {
	return func(ctx context.Context) error { return f.store.Delete(ctx, key) }
}

// versionState resolves one version's state the way loadVersionState does:
// the root for the version it is on, versions/<vid>/state.json otherwise, and
// names the object it came from. A missing or unparseable state object is an
// issue naming it, and the version then checks as empty.
func (f *fsckState) versionState(ctx context.Context, vid string) (versionState, string, error) {
	if f.root.Head == vid {
		return f.root.versionState, rootKey(f.rep.Generation), nil
	}
	key := versionStateKey(vid)
	raw, err := f.store.Get(ctx, key)
	if storage.IsNotFound(err) {
		f.issue(FsckMissingObject, key, "version is in the tree but its state object is gone", nil)
		return versionState{}, key, nil
	}
	if err != nil {
		return versionState{}, key, err
	}
	f.rep.ObjectsChecked++
	vs, err := parseVersionState(key, raw)
	if err != nil {
		f.issue(FsckCorruptObject, key, fmt.Sprintf("does not parse: %v", err), nil)
	}
	return vs, key, nil
}

// checkBindings flags every chunk id a tensor's chunk or tile encoder
// references that the state's chunk→version map binds to no version: the rows
// in such a chunk are unreadable whatever is in storage.
func (f *fsckState) checkBindings(stateKey, name string, st tensorRootState) {
	bound := map[uint64]bool{}
	for _, g := range st.ChunkVersions {
		for _, id := range g.Chunks {
			bound[id] = true
		}
	}
	chunks, tiles := encoder.NewChunkEncoder(), encoder.NewTileEncoder()
	var err error
	if len(st.ChunkEnc) > 0 {
		err = chunks.UnmarshalBinary(st.ChunkEnc)
	}
	if err == nil && len(st.TileEnc) > 0 {
		err = tiles.UnmarshalBinary(st.TileEnc)
	}
	if err != nil {
		f.issue(FsckCorruptObject, stateKey, fmt.Sprintf("tensor %q: encoder does not parse: %v", name, err), nil)
		return
	}
	for _, id := range namedChunks(chunks, tiles) {
		if !bound[id] {
			bound[id] = true // one issue per id
			f.issue(FsckMissingChunk, stateKey,
				fmt.Sprintf("tensor %q: chunk %d is referenced by the tensor's encoders but bound to no version in the chunk→version map", name, id), nil)
		}
	}
}

// checkVersions walks every version in the tree: every chunk the encoders
// reference must be bound to a version, referenced chunks must exist and
// match their recorded CRC32C, and stored chunks must be referenced.
func (f *fsckState) checkVersions(ctx context.Context) error {
	// kept holds the chunk keys the root lists as superseded, and those each
	// version's chunk set references as the walk reaches them.
	kept := make(map[string]bool, len(f.root.Superseded))
	for _, key := range f.root.Superseded {
		kept[key] = true
	}
	vids := make([]string, 0, len(f.tree.Nodes))
	for vid := range f.tree.Nodes {
		vids = append(vids, vid)
	}
	sort.Strings(vids)
	for _, vid := range vids {
		vs, stateKey, err := f.versionState(ctx, vid)
		if err != nil {
			return err
		}
		// Per tensor in the version's schema, its chunk set: the ids its
		// state binds to itself.
		for _, name := range vs.Schema.Tensors {
			st := vs.Tensors[name]
			f.checkBindings(stateKey, name, st)
			var ids []uint64
			for _, g := range st.ChunkVersions {
				if g.Version == vid {
					ids = append(ids, g.Chunks...)
				}
			}
			for _, id := range ids {
				key := chunkKey(vid, name, id)
				kept[key] = true
				f.rep.ObjectsChecked++
				raw, err := f.store.Get(ctx, key)
				if err != nil {
					if storage.IsNotFound(err) {
						f.issue(FsckMissingChunk, key, "referenced by the version's chunk set but absent from storage", nil)
						continue
					}
					return err
				}
				want, hasDigest := st.Sums.lookup(id)
				if !hasDigest {
					f.issue(FsckChecksumMismatch, key, "no digest recorded in the tensor's checksum manifest", nil)
					continue
				}
				if got := storage.Checksum(raw); got != want {
					f.issue(FsckChecksumMismatch, key,
						fmt.Sprintf("stored bytes have CRC32C %08x, manifest records %08x%s", got, want, chunkDamage(st.Meta, raw)), nil)
					continue
				}
				f.rep.ChunksVerified++
			}
		}
		// Stored chunks no chunk set of this version references and the root
		// does not list as superseded, including those of tensors its schema
		// no longer has. Group tensor names contain "/", so the name runs up
		// to the last /chunks/.
		prefix := versionPrefix(vid) + "/tensors/"
		keys, err := f.store.List(ctx, prefix)
		if err != nil {
			return err
		}
		for _, key := range keys {
			if kept[key] {
				continue
			}
			name := strings.TrimPrefix(key, prefix)
			if i := strings.LastIndex(name, "/chunks/"); i >= 0 {
				name = name[:i]
			}
			detail := "stored but not referenced by the version's chunk set (e.g. uploaded for a generation that was never published)"
			if _, inSchema := vs.Tensors[name]; !inSchema {
				detail = fmt.Sprintf("stored for tensor %q, which the version's schema does not have (a collection delete failed or was cut short)", name)
			}
			f.issue(FsckOrphanChunk, key, detail, f.deleteFix(key))
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

// chunkDamage says where inside a chunk object whose digest failed the
// damage is: the block whose CRC32C fails or that does not inflate, or the
// directory or block table seal. It opens the chunk and reads every block.
// It is empty when the chunk's own checks all pass, so only the manifest's
// digest disagrees.
func chunkDamage(meta TensorMeta, raw []byte) string {
	codec, err := chunk.CodecNamed(meta.ChunkCompression)
	if err != nil {
		return ""
	}
	c, err := openStored(codec, raw)
	if err == nil {
		_, err = c.Samples()
	}
	if err != nil {
		return "; " + err.Error()
	}
	return ""
}
