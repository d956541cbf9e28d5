package core

import (
	"context"
	"encoding"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

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
// writes: dataset metadata, the version tree, and the state of the version
// the handle is on. publish stages it under a brand-new key and only then
// rewrites dataset.json to point at it, so the snapshot a reader follows is
// immutable once published and a writer killed mid-flush cannot tear it.
type rootFile struct {
	Meta datasetMeta `json:"meta"`
	// Branch/Head name the version the embedded state belongs to: always
	// the mutable head of Branch (a detached checkout publishes nothing).
	Branch string          `json:"branch"`
	Head   string          `json:"head"`
	Tree   json.RawMessage `json:"tree"`
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

// loadRoot fetches and parses the snapshot for one generation.
func loadRoot(ctx context.Context, store storage.Provider, gen uint64) (*rootFile, error) {
	raw, err := store.Get(ctx, rootKey(gen))
	if err != nil {
		return nil, fmt.Errorf("core: root snapshot %s that dataset.json points at: %w", rootKey(gen), err)
	}
	root := &rootFile{}
	if err := unmarshalJSON(raw, root); err != nil {
		return nil, fmt.Errorf("core: corrupt root snapshot %s: %w", rootKey(gen), err)
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
	case ds.branch == "" && vid == ds.tree.Heads[ds.meta.CurrentBranch]:
		root, err := loadRoot(ctx, ds.store, ds.meta.Generation)
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
	t := newTensorShell(ds, name, st.Meta, hspec)
	// The record's manifest stays frozen (twins share it); the live one grows.
	t.meta.Checksums = maps.Clone(st.Meta.Checksums)
	if err := t.resolveCodecs(); err != nil {
		return nil, err
	}
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
// dataset: which commit generation it reads from, whether a staged-but-never-
// published generation from a crashed writer was found, and how much of the
// chunk population carries checksums.
type IntegrityInfo struct {
	// Generation is the published generation this handle opened at (0 for
	// the handle that created the dataset in this process).
	Generation uint64
	// AbandonedGeneration is a staged generation found past the published
	// one — the footprint of a writer killed between staging its snapshot
	// and publishing it. Zero when none was found. The abandoned snapshot
	// and its chunks are garbage; fsck -repair removes them.
	AbandonedGeneration uint64
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
