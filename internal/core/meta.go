package core

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/chunk"
	"repro/internal/tensor"
	"repro/internal/version"
)

// FormatVersion is bumped on incompatible dataset layout changes; Open
// refuses a root carrying any other. Version 5 adds the schema's tombstones
// (schemaFile.Deleted), which a version-4 reader would drop. Version 4
// stores each tensor state's checksum manifest and chunk→version map as
// binary runs (chunkSums, chunkVersionRun) and every time at a fixed width
// (version.Stamp).
// Version 3 stores only roots/ and versions/: the newest root is the
// published one. Version 2 also kept a dataset.json pointer, and its roots/
// could hold a staged root whose chunks never landed, so listing it would
// open garbage. Version 1 spread a version's state over per-tensor objects.
const FormatVersion = 5

// TensorSpec declares a new tensor column (§3.2-3.3).
type TensorSpec struct {
	// Name identifies the tensor; "/" segments express group nesting
	// (§3.1: groups implement syntactic nesting).
	Name string
	// Htype is the htype expression ("image", "sequence[image]",
	// "link[image]", ...). Empty means generic.
	Htype string
	// Dtype overrides the htype's default element type.
	Dtype tensor.Dtype
	// SampleCompression is the per-sample media codec ("jpeg", "png",
	// "none"). Empty adopts the htype default.
	SampleCompression string
	// ChunkCompression is the per-chunk byte codec ("lz4", "deflate",
	// "none"). Empty adopts the htype default.
	ChunkCompression string
	// Hidden excludes the tensor from listings; used for derived data
	// such as down-sampled previews and sample ids (§3.4).
	Hidden bool
	// Bounds overrides the chunk sizing policy; zero value uses the 8MB
	// default.
	Bounds chunk.Bounds
}

// TensorMeta is the persisted tensor metadata, part of tensorRootState.
type TensorMeta struct {
	Htype             string       `json:"htype"`
	Dtype             string       `json:"dtype"`
	SampleCompression string       `json:"sample_compression"`
	ChunkCompression  string       `json:"chunk_compression"`
	Hidden            bool         `json:"hidden"`
	Bounds            chunk.Bounds `json:"bounds"`
	// NextChunkID feeds monotonically increasing chunk ids.
	NextChunkID uint64 `json:"next_chunk_id"`
	// Length is the logical row count (sequence rows for sequence
	// tensors, samples otherwise).
	Length uint64 `json:"length"`
}

// chunkSums is a tensor's checksum manifest: the CRC32C of each stored
// (post-compression) chunk object, as fixed-width records — the chunk id,
// then its CRC32C, both big-endian — in strictly ascending id order (base64
// in JSON). Records accumulate as chunks are written and ride along
// commits, so readers of any version in this lineage can verify the bytes
// they fetch. A run is never written in place: a seal's snapshot shares the
// live run's records, so the live run only appends past them (with) or is
// replaced by a copy (with, without).
type chunkSums []byte

// sumSize is one chunkSums record: an 8-byte id and a 4-byte CRC32C.
const sumSize = 12

func (s chunkSums) len() int { return len(s) / sumSize }

func (s chunkSums) id(i int) uint64 { return binary.BigEndian.Uint64(s[i*sumSize:]) }

// search returns the index of the first record whose id is not below id.
func (s chunkSums) search(id uint64) int {
	return sort.Search(s.len(), func(i int) bool { return s.id(i) >= id })
}

// lookup returns the recorded CRC32C of chunk id.
func (s chunkSums) lookup(id uint64) (uint32, bool) {
	if i := s.search(id); i < s.len() && s.id(i) == id {
		return binary.BigEndian.Uint32(s[i*sumSize+8:]), true
	}
	return 0, false
}

// with records crc for chunk id. Ids are allocated in ascending order, so a
// write almost always appends past every record, and so past every
// snapshot sharing them. A chunk buffered while later ids were written (a
// SetAt's fresh id) lands in the middle, in a copy.
func (s chunkSums) with(id uint64, crc uint32) chunkSums {
	var rec [sumSize]byte
	binary.BigEndian.PutUint64(rec[:], id)
	binary.BigEndian.PutUint32(rec[8:], crc)
	i := s.search(id)
	if i == s.len() {
		return append(s, rec[:]...)
	}
	rest := s[i*sumSize:]
	if s.id(i) == id {
		rest = rest[sumSize:]
	}
	out := make(chunkSums, 0, len(s)+sumSize)
	out = append(out, s[:i*sumSize]...)
	out = append(out, rec[:]...)
	return append(out, rest...)
}

// without returns a copy of s without the records of the ids in gone.
func (s chunkSums) without(gone map[uint64]bool) chunkSums {
	out := make(chunkSums, 0, len(s))
	for i := range s.len() {
		if !gone[s.id(i)] {
			out = append(out, s[i*sumSize:(i+1)*sumSize]...)
		}
	}
	return out
}

func (s chunkSums) MarshalText() ([]byte, error) {
	return base64.StdEncoding.AppendEncode(nil, s), nil
}

// UnmarshalText decodes a stored run, refusing a truncated record and ids
// that do not strictly ascend (an unsorted or duplicate record).
func (s *chunkSums) UnmarshalText(text []byte) error {
	raw, err := base64.StdEncoding.AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("checksum run: %w", err)
	}
	run := chunkSums(raw[:len(raw):len(raw)])
	if len(run)%sumSize != 0 {
		return fmt.Errorf("checksum run: %d bytes is not a whole number of %d-byte records", len(run), sumSize)
	}
	for i := 1; i < run.len(); i++ {
		if prev, id := run.id(i-1), run.id(i); id <= prev {
			return fmt.Errorf("checksum run: chunk %d follows chunk %d (ids must strictly ascend)", id, prev)
		}
	}
	*s = run
	return nil
}

// datasetMeta is the persisted dataset metadata, the provenance record of
// §3.4, carried by every root.
type datasetMeta struct {
	Name          string        `json:"name"`
	FormatVersion int           `json:"format_version"`
	CreatedAt     version.Stamp `json:"created_at"`
	NextSampleID  uint64        `json:"next_sample_id"`
}

// schemaFile lists the tensors of one version (schema evolution is tracked
// per version, §3.1). Deleted maps a deleted tensor's name to its NextChunkID
// (a tombstone), where a tensor recreated under the name starts.
type schemaFile struct {
	Tensors []string          `json:"tensors"`
	Deleted map[string]uint64 `json:"deleted,omitempty"`
}

// diffRecord is the per-tensor, per-version commit diff (§4.2: "for each
// version, a commit diff file is also stored per tensor").
type diffRecord struct {
	// AddedFrom/AddedTo delimit [from, to) sample indices appended in
	// this version.
	AddedFrom uint64 `json:"added_from"`
	AddedTo   uint64 `json:"added_to"`
	// Updated lists indices modified in place in this version.
	Updated []uint64 `json:"updated,omitempty"`
}

// Storage layout helpers. All keys are relative to the dataset root.

const rootsPrefix = "roots/"

// rootKey is the root snapshot of one generation; see Dataset.publish.
func rootKey(gen uint64) string { return rootsPrefix + chunkName(gen) }

// chunkName is the canonical textual name of a chunk id, "%016x" without fmt
// (every landed-chunk read names one), used as the final key segment.
func chunkName(id uint64) string {
	var buf [32]byte
	copy(buf[:], "0000000000000000")
	name := strconv.AppendUint(buf[:16], id, 16)
	return string(name[len(name)-16:])
}

func versionPrefix(vid string) string { return "versions/" + vid }

// versionStateKey is where a version's state lives once the handle has left
// it; see loadVersionState.
func versionStateKey(vid string) string { return versionPrefix(vid) + "/state.json" }

func tensorPrefix(vid, name string) string { return versionPrefix(vid) + "/tensors/" + name }

func chunkKey(vid, name string, id uint64) string {
	return tensorPrefix(vid, name) + "/chunks/" + chunkName(id)
}
