package core

import (
	"context"
	"encoding"
	"encoding/base64"
	"encoding/binary"
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
// payloads are their binary marshallings, and the two per-chunk structures
// binary runs (base64 in JSON).
type tensorRootState struct {
	Meta     TensorMeta `json:"meta"`
	ChunkEnc []byte     `json:"chunk_encoder,omitempty"`
	ShapeEnc []byte     `json:"shape_encoder,omitempty"`
	TileEnc  []byte     `json:"tile_encoder,omitempty"`
	SeqEnc   []byte     `json:"sequence_encoder,omitempty"`
	// Sums is the checksum manifest.
	Sums chunkSums `json:"chunk_sums,omitempty"`
	// ChunkVersions is the resolved chunk id → version directory map (§4.2
	// chunk resolution, done once at write time instead of by walking the
	// ancestry at open). The chunk_set of §4.2 is the group whose Version is
	// the state's own.
	ChunkVersions chunkVersionRun `json:"chunk_version_run,omitempty"`
	Diff          diffRecord      `json:"diff"`
}

// chunkVersionGroup lists the chunk ids of one tensor whose bytes live in one
// version directory.
type chunkVersionGroup struct {
	Version string
	Chunks  []uint64
}

// chunkVersionRun is a chunk→version map in its stored form: groups ordered
// by version, ids ascending, so equal maps marshal to equal bytes. Stored as
// one binary run, per group the uvarint length of the version id, its bytes,
// the uvarint count of its chunks, then the first id and each later id's
// delta from the one before as uvarints.
type chunkVersionRun []chunkVersionGroup

// groupChunkVersions renders a chunk→version map in its stored form.
func groupChunkVersions(m map[uint64]string) chunkVersionRun {
	byVersion := map[string][]uint64{}
	for id, vid := range m {
		byVersion[vid] = append(byVersion[vid], id)
	}
	groups := make(chunkVersionRun, 0, len(byVersion))
	for vid, ids := range byVersion {
		slices.Sort(ids)
		groups = append(groups, chunkVersionGroup{Version: vid, Chunks: ids})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Version < groups[j].Version })
	return groups
}

func (r chunkVersionRun) MarshalText() ([]byte, error) {
	var raw []byte
	for _, g := range r {
		raw = binary.AppendUvarint(raw, uint64(len(g.Version)))
		raw = append(raw, g.Version...)
		raw = binary.AppendUvarint(raw, uint64(len(g.Chunks)))
		prev := uint64(0)
		for _, id := range g.Chunks {
			raw = binary.AppendUvarint(raw, id-prev)
			prev = id
		}
	}
	return base64.StdEncoding.AppendEncode(nil, raw), nil
}

// UnmarshalText decodes a stored run, refusing a truncated one, versions
// that do not strictly ascend, an empty group, and a chunk id that does not
// strictly ascend in its group or is bound to two versions. No allocation
// is larger than the run's own bytes allow.
func (r *chunkVersionRun) UnmarshalText(text []byte) error {
	raw, err := base64.StdEncoding.AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("chunk version run: %w", err)
	}
	next := func() (uint64, error) {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return 0, errors.New("chunk version run: truncated")
		}
		raw = raw[n:]
		return v, nil
	}
	var groups chunkVersionRun
	total := 0
	for len(raw) > 0 {
		n, err := next()
		if err != nil {
			return err
		}
		if n > uint64(len(raw)) {
			return errors.New("chunk version run: truncated version id")
		}
		vid := string(raw[:n])
		raw = raw[n:]
		if len(groups) > 0 && vid <= groups[len(groups)-1].Version {
			return fmt.Errorf("chunk version run: version %q follows %q (versions must strictly ascend)", vid, groups[len(groups)-1].Version)
		}
		// Each id takes at least one byte, so the count is checked against
		// what is left before it sizes anything.
		if n, err = next(); err != nil {
			return err
		}
		if n == 0 || n > uint64(len(raw)) {
			return fmt.Errorf("chunk version run: version %q lists %d chunks in %d bytes", vid, n, len(raw))
		}
		ids := make([]uint64, n)
		for i := range ids {
			d, err := next()
			if err != nil {
				return err
			}
			if i > 0 {
				if d == 0 || ids[i-1]+d < ids[i-1] {
					return fmt.Errorf("chunk version run: version %q: chunk ids must strictly ascend", vid)
				}
				d += ids[i-1]
			}
			ids[i] = d
		}
		groups = append(groups, chunkVersionGroup{Version: vid, Chunks: ids})
		total += len(ids)
	}
	if len(groups) > 1 {
		all := make([]uint64, 0, total)
		for _, g := range groups {
			all = append(all, g.Chunks...)
		}
		slices.Sort(all)
		for i := 1; i < len(all); i++ {
			if all[i] == all[i-1] {
				return fmt.Errorf("chunk version run: chunk %d is bound to two versions", all[i])
			}
		}
	}
	*r = groups
	return nil
}

// savedVersionState assembles the durable state of the version the handle is
// on from each tensor's savedState. Caller holds ds.mu.
func (ds *Dataset) savedVersionState() versionState {
	vs := versionState{
		Schema:  schemaFile{Tensors: append([]string{}, ds.order...), Deleted: ds.deleted},
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

// install makes the tensors built from vs, and its tombstones, the handle's
// and seeds their digests. Caller holds ds.mu exclusively (or owns ds).
func (ds *Dataset) install(vs versionState, tensors map[string]*Tensor) {
	ds.tensors, ds.deleted = tensors, maps.Clone(vs.Schema.Deleted) // a twin's vs shares its source's
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
	// The record's manifest stays frozen (twins share it): clipped, the
	// live one appends into a fresh array.
	t.sums = st.Sums[:len(st.Sums):len(st.Sums)]
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
	st.Diff.Updated = slices.Clip(st.Diff.Updated) // shared with savedState; see recordUpdate
	t.diff = st.Diff
	bound := 0
	for _, g := range st.ChunkVersions {
		bound += len(g.Chunks)
	}
	t.chunkVersion = make(map[uint64]string, bound)
	for _, g := range st.ChunkVersions {
		for _, id := range g.Chunks {
			t.chunkVersion[id] = g.Version
		}
	}
	t.savedState = st
	return t, nil
}

// seedChecksums registers every resolved chunk's recorded CRC32C with the
// layers of the provider chain that check digests (storage.Verify, the disk
// tier). A chain with none gets no keys built for it. writeChunk records a
// digest for every chunk it stores; one without is a fault fsck names.
func (ds *Dataset) seedChecksums() {
	ds.integrity.SeededDigests = 0
	if !storage.TakesDigests(ds.store) {
		return
	}
	digests := map[string]uint32{}
	for _, name := range ds.order {
		t := ds.tensors[name]
		for id, vid := range t.chunkVersion {
			if crc, ok := t.sums.lookup(id); ok {
				digests[chunkKey(vid, t.name, id)] = crc
			}
		}
	}
	ds.integrity.SeededDigests = storage.SeedDigests(ds.store, digests)
}

// IntegrityInfo summarizes what the integrity machinery knows about an open
// dataset: which commit generation it reads from and how much of the chunk
// population carries checksums.
type IntegrityInfo struct {
	// Generation is the published generation this handle opened at (0 for
	// the handle that created the dataset in this process).
	Generation uint64
	// ChunksWithChecksum counts the handle's resolved chunks with a
	// recorded CRC32C.
	ChunksWithChecksum int
	// SeededDigests is how many digests were handed to the layers that
	// check them (storage.Verify, the disk tier) at load time: 0 when the
	// provider chain has none.
	SeededDigests int
}

// Integrity reports the handle's integrity summary.
func (ds *Dataset) Integrity() IntegrityInfo {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	info := ds.integrity
	for _, name := range ds.order {
		t := ds.tensors[name]
		t.mu.RLock()
		for i := range t.sums.len() {
			if _, ok := t.chunkVersion[t.sums.id(i)]; ok {
				info.ChunksWithChecksum++
			}
		}
		t.mu.RUnlock()
	}
	return info
}
