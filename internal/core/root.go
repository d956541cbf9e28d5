package core

import (
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// versionState is everything one version records besides its chunk objects:
// the schema and, per tensor, metadata, encoders, the resolved chunk→version
// map and the commit diff (§4.2). It lives in one of two places: inside the
// published root snapshot while the handle is on the version, and in
// versions/<vid>/state.json once a handle has left it — frozen there by
// Commit, parked there by a Checkout to another branch.
type versionState struct {
	Schema  schemaFile                 `json:"schema"`
	Tensors map[string]tensorRootState `json:"tensors"`
}

// rootFile is the root snapshot (roots/<gen>), the only metadata a flush
// writes and the dataset's commit point: dataset metadata, the version tree,
// and the state of the version the handle is on. publish writes it under a
// brand-new key once everything it names is durable, and the newest root is
// the published one, so a reader's snapshot is immutable and a writer killed
// mid-flush cannot tear it.
type rootFile struct {
	Meta datasetMeta `json:"meta"`
	// Branch/Head name the version the embedded state belongs to: always
	// the mutable head of Branch (a detached checkout publishes nothing).
	Branch string          `json:"branch"`
	Head   string          `json:"head"`
	Tree   json.RawMessage `json:"tree"`
	// Superseded lists the head chunks the previous root names and this one
	// does not: the next publish deletes them with the previous root.
	Superseded []string `json:"superseded,omitempty"`
	versionState
}

// tensorRootState is one tensor's full state in one version. Encoder
// payloads are their binary marshallings (base64 in JSON).
type tensorRootState struct {
	Meta     TensorMeta `json:"meta"`
	ChunkEnc []byte     `json:"chunk_encoder,omitempty"`
	ShapeEnc []byte     `json:"shape_encoder,omitempty"`
	TileEnc  []byte     `json:"tile_encoder,omitempty"`
	SeqEnc   []byte     `json:"sequence_encoder,omitempty"`
	// ChunkVersions is the resolved chunk id → version directory map (§4.2
	// chunk resolution, done once at write time instead of by walking the
	// ancestry at open). The chunk_set of §4.2 is the group whose Version is
	// the state's own.
	ChunkVersions []chunkVersionGroup `json:"chunk_versions"`
	Diff          diffRecord          `json:"diff"`
}

// chunkVersionGroup lists the chunk ids of one tensor whose bytes live in one
// version directory.
type chunkVersionGroup struct {
	Version string   `json:"version"`
	Chunks  []uint64 `json:"chunks"`
}

// groupChunkVersions renders a chunk→version map in its stored form: groups
// ordered by version, ids ascending, so equal maps marshal to equal bytes.
func groupChunkVersions(m map[uint64]string) []chunkVersionGroup {
	byVersion := map[string][]uint64{}
	for id, vid := range m {
		byVersion[vid] = append(byVersion[vid], id)
	}
	groups := make([]chunkVersionGroup, 0, len(byVersion))
	for vid, ids := range byVersion {
		slices.Sort(ids)
		groups = append(groups, chunkVersionGroup{Version: vid, Chunks: ids})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Version < groups[j].Version })
	return groups
}

// savedVersionState assembles the durable state of the version the handle is
// on from each tensor's savedState. Caller holds ds.mu.
func (ds *Dataset) savedVersionState() versionState {
	vs := versionState{
		Schema:  schemaFile{Tensors: append([]string{}, ds.order...)},
		Tensors: make(map[string]tensorRootState, len(ds.order)),
	}
	for _, name := range ds.order {
		vs.Tensors[name] = ds.tensors[name].savedState
	}
	return vs
}

// errNoDataset reports a location that holds no root.
var errNoDataset = errors.New("core: no dataset at this location")

// listRoots lists the generations stored under roots/, ascending, and the
// keys there that name none.
func listRoots(ctx context.Context, store storage.Provider) (gens []uint64, stray []string, err error) {
	keys, err := store.List(ctx, rootsPrefix)
	if err != nil {
		return nil, nil, err
	}
	for _, key := range keys {
		// rootKey pads to a fixed width, so List's order is generation order.
		if g, err := strconv.ParseUint(strings.TrimPrefix(key, rootsPrefix), 16, 64); err == nil && rootKey(g) == key {
			gens = append(gens, g)
		} else {
			stray = append(stray, key)
		}
	}
	return gens, stray, nil
}

// publishedGeneration is the newest generation under roots/, which is the
// published one: a root is written only after everything it names is durable.
func publishedGeneration(ctx context.Context, store storage.Provider) (uint64, error) {
	gens, _, err := listRoots(ctx, store)
	if err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 0, errNoDataset
	}
	return gens[len(gens)-1], nil
}

// loadRoot fetches and parses the snapshot for one generation, refusing any
// other format version by the snapshot's key.
func loadRoot(ctx context.Context, store storage.Provider, gen uint64) (*rootFile, error) {
	raw, err := store.Get(ctx, rootKey(gen))
	if err != nil {
		return nil, fmt.Errorf("core: root snapshot %s: %w", rootKey(gen), err)
	}
	root := &rootFile{}
	if err := unmarshalJSON(raw, root); err != nil {
		return nil, fmt.Errorf("core: corrupt root snapshot %s: %w", rootKey(gen), err)
	}
	if v := root.Meta.FormatVersion; v != FormatVersion {
		return nil, fmt.Errorf("core: root snapshot %s: unsupported format version %d (this tree reads version %d)", rootKey(gen), v, FormatVersion)
	}
	return root, nil
}

// loadVersionState is the one lookup for a version's recorded state. The
// version this handle is on is what its last flush published (savedState);
// detached, the root still holds the head of the branch the handle left;
// every other version was left by a handle, which wrote
// versions/<vid>/state.json. Caller holds ds.mu.
func (ds *Dataset) loadVersionState(ctx context.Context, vid string) (versionState, error) {
	switch {
	case ds.branch != "" && vid == ds.head:
		return ds.savedVersionState(), nil
	case ds.branch == "" && vid == ds.tree.Heads[ds.rootBranch]:
		root, err := loadRoot(ctx, ds.store, ds.gen)
		if err != nil {
			return versionState{}, err
		}
		return root.versionState, nil
	}
	key := versionStateKey(vid)
	raw, err := ds.store.Get(ctx, key)
	if err != nil {
		return versionState{}, fmt.Errorf("core: state of version %s: %s: %w", vid, key, err)
	}
	return parseVersionState(key, raw)
}

func parseVersionState(key string, raw []byte) (versionState, error) {
	var vs versionState
	if err := unmarshalJSON(raw, &vs); err != nil {
		return versionState{}, fmt.Errorf("core: corrupt version state %s: %w", key, err)
	}
	return vs, nil
}

// tensorsFromState builds fresh tensor handles for ds from a version's
// state. Nothing is installed: the caller swaps them in (install) once
// whatever it publishes is durable.
func (ds *Dataset) tensorsFromState(vs versionState) (map[string]*Tensor, error) {
	tensors := make(map[string]*Tensor, len(vs.Schema.Tensors))
	for _, name := range vs.Schema.Tensors {
		st, ok := vs.Tensors[name]
		if !ok {
			return nil, fmt.Errorf("core: version state lists tensor %q in its schema but carries no state for it", name)
		}
		t, err := tensorFromState(ds, name, st)
		if err != nil {
			return nil, fmt.Errorf("core: load tensor %q: %w", name, err)
		}
		tensors[name] = t
	}
	return tensors, nil
}

// install makes the tensors built from vs the handle's open tensors and
// seeds their digests. Caller holds ds.mu exclusively (or owns ds).
func (ds *Dataset) install(vs versionState, tensors map[string]*Tensor) {
	ds.tensors = tensors
	ds.order = append([]string(nil), vs.Schema.Tensors...)
	ds.seedChecksums()
}

// tensorFromState builds a tensor handle from its recorded state.
func tensorFromState(ds *Dataset, name string, st tensorRootState) (*Tensor, error) {
	hspec, err := tensor.ParseHtype(st.Meta.Htype)
	if err != nil {
		return nil, err
	}
	t, err := newTensorShell(ds, name, st.Meta, hspec)
	if err != nil {
		return nil, err
	}
	// The record's manifest stays frozen (twins share it); the live one grows.
	t.meta.Checksums = maps.Clone(st.Meta.Checksums)
	for blob, enc := range map[*[]byte]encoding.BinaryUnmarshaler{
		&st.ChunkEnc: t.chunkEnc,
		&st.ShapeEnc: t.shapeEnc,
		&st.TileEnc:  t.tileEnc,
		&st.SeqEnc:   t.seqEnc,
	} {
		if len(*blob) == 0 {
			continue
		}
		if err := enc.UnmarshalBinary(*blob); err != nil {
			return nil, err
		}
	}
	t.diff = st.Diff
	for _, g := range st.ChunkVersions {
		for _, id := range g.Chunks {
			t.chunkVersion[id] = g.Version
		}
	}
	t.savedState = st
	return t, nil
}

// seedChecksums registers every chunk's recorded CRC32C with a
// storage.Verify layer in the provider chain (a no-op when none is stacked),
// and tallies coverage for IntegrityInfo. writeChunk records a digest for
// every chunk it stores; one without is a fault fsck names.
func (ds *Dataset) seedChecksums() {
	digests := map[string]uint32{}
	for _, name := range ds.order {
		t := ds.tensors[name]
		for id, vid := range t.chunkVersion {
			if crc, ok := t.meta.Checksums[chunkName(id)]; ok {
				digests[chunkKey(vid, t.name, id)] = crc
			}
		}
	}
	ds.integrity.ChunksWithChecksum = len(digests)
	ds.integrity.SeededDigests = storage.SeedDigests(ds.store, digests)
}

// IntegrityInfo summarizes what the integrity machinery knows about an open
// dataset: which commit generation it reads from and how much of the chunk
// population carries checksums.
type IntegrityInfo struct {
	// Generation is the published generation this handle opened at (0 for
	// the handle that created the dataset in this process).
	Generation uint64
	// ChunksWithChecksum counts resolved chunks with a recorded CRC32C.
	ChunksWithChecksum int
	// SeededDigests is how many digests were handed to a storage.Verify
	// layer at load time (0 when the provider chain has none).
	SeededDigests int
}

// Integrity reports the handle's integrity summary.
func (ds *Dataset) Integrity() IntegrityInfo {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.integrity
}

// parseChunkName inverts chunkName; ok is false for malformed names.
func parseChunkName(name string) (uint64, bool) {
	id, err := strconv.ParseUint(name, 16, 64)
	return id, err == nil
}
