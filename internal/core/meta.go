package core

import (
	"strconv"
	"time"

	"repro/internal/chunk"
	"repro/internal/tensor"
)

// FormatVersion is bumped on incompatible dataset layout changes; Open
// refuses a root carrying any other. Version 3 stores only roots/ and
// versions/: the newest root is the published one. Version 2 also kept a
// dataset.json pointer, and its roots/ could hold a staged root whose chunks
// never landed, so listing it would open garbage. Version 1 spread a
// version's state over per-tensor objects.
const FormatVersion = 3

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
	// Checksums maps chunk names ("%016x" of the chunk id) to the CRC32C
	// of the stored (post-compression) chunk object. Entries accumulate as
	// chunks are written and ride along commits, so readers of any version
	// in this lineage can verify the bytes they fetch.
	Checksums map[string]uint32 `json:"checksums,omitempty"`
}

// datasetMeta is the persisted dataset metadata, the provenance record of
// §3.4, carried by every root.
type datasetMeta struct {
	Name          string    `json:"name"`
	FormatVersion int       `json:"format_version"`
	CreatedAt     time.Time `json:"created_at"`
	NextSampleID  uint64    `json:"next_sample_id"`
}

// schemaFile lists the tensors of one version (schema evolution is tracked
// per version, §3.1).
type schemaFile struct {
	Tensors []string `json:"tensors"`
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
// (every landed-chunk read names one), used as the final key segment and as
// the TensorMeta.Checksums map key.
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
