// Package chunk implements the on-storage chunk format of the Tensor
// Storage Format (§3.4): binary blobs holding a directory of sample byte
// ranges and shapes followed by the sample payloads. Chunks are sized
// between a lower and an upper bound so they stay in the range optimal for
// streaming while accommodating mixed-shape samples; samples larger than the
// upper bound are tiled across spatial dimensions by the layer above.
//
// A version-3 chunk is laid out as
//
//	header | directory | data | block table | footer
//
// The footer's CRC32C covers the whole blob, so a whole-chunk read checks
// one digest. The block table holds a CRC32C per BlockSize bytes of the data
// section, so a reader that fetches only some samples' bytes (§3.5 range
// requests) checks exactly what it fetched: Layout computes where the
// sections of a chunk lie from its sample shapes and sizes, and a Sparse
// plan names the table, directory and block ranges holding a selection of
// samples, with the checks that make each range safe to use.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Format constants.
const (
	// Magic identifies a chunk blob.
	Magic = "DLCH"
	// FormatVersion is bumped on layout changes. Version 3 adds the block
	// table (see BlockSize) between the data section and version 2's CRC32C
	// footer (see FooterMagic). It is the only version decoded: this tree
	// reads what this tree writes, and a header naming any other version is
	// corruption.
	FormatVersion = 3

	// FooterMagic opens the 8-byte trailer of a chunk: FooterMagic(4) then
	// CRC32C(4, little-endian, Castagnoli) of every preceding byte of the
	// blob (header, directory, payload, block table, footer magic). The
	// footer sits after the data section so a directory-prefix read never
	// needs it.
	FooterMagic = "DLCF"
	// footerSize is the byte length of the trailer.
	footerSize = len(FooterMagic) + 4

	// BlockSize is the span of the data section one block-table CRC32C
	// covers. The table sits after the data section: a directory seal
	// (CRC32C of header and directory), one CRC32C per block, then a table
	// seal (CRC32C of the table bytes before it), 4 bytes each. The size is
	// the trade between the table's share of every stored byte, 4/BlockSize,
	// and what a sparse read over-reads, up to one block on either side of a
	// sample. At 1 KiB the table adds 0.39 % to every chunk, and a 16 KiB
	// frame spans at most 18 blocks, 12 % over its own bytes at worst and
	// ≈ 6 % on average, so a quarter-density view of 192 chunks of sixteen
	// such frames reads ≈ 13.4 MB and fits a 16 MiB byte cache in one wave.
	// At 4 KiB the table would add 0.1 %, but the same frame spans up to 6
	// blocks, ≈ 25 % over-read on average, and that view ≈ 15.8 MB, the
	// edge of the cache.
	BlockSize = 1 << 10

	// DefaultTargetBytes is the paper's default chunk size (§3.5: "the
	// default chunk size is 8MB").
	DefaultTargetBytes = 8 << 20
	// DefaultMinBytes is the lower bound: a chunk may close once it holds
	// at least this much payload.
	DefaultMinBytes = DefaultTargetBytes / 2
	// DefaultMaxBytes is the upper bound: appending must not push a chunk
	// past this size; larger samples are tiled.
	DefaultMaxBytes = DefaultTargetBytes * 2
)

// Sample is one entry in a chunk: the (possibly media-encoded) payload plus
// the logical sample shape. For sample-compressed tensors Data holds e.g.
// JPEG bytes while Shape records the decoded pixel shape, so shape queries
// never decode media.
type Sample struct {
	Shape []int
	Data  []byte
}

// header layout: magic(4) version(u16) numSamples(u32) dirBytes(u32).
const headerSize = 4 + 2 + 4 + 4

// Directory describes where each sample lives inside a chunk. Offsets are
// relative to the start of the data section and have length numSamples+1 so
// sample i spans [Offsets[i], Offsets[i+1]).
type Directory struct {
	Offsets []uint64
	Shapes  [][]int
}

// NumSamples returns the number of samples described.
func (d *Directory) NumSamples() int { return len(d.Shapes) }

// DataStart returns the absolute byte offset of the data section for a chunk
// whose directory serializes to dirBytes.
func dataStart(dirBytes int) int { return headerSize + dirBytes }

// castagnoli is the CRC32C table of the footer and the block table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// numBlocks is how many BlockSize blocks a data section of n bytes spans.
func numBlocks(n uint64) uint64 { return (n + BlockSize - 1) / BlockSize }

// tableSize is the byte length of the block table of a data section of n
// bytes: the directory seal, one CRC32C per block and the table seal.
func tableSize(n uint64) uint64 { return 4 * (numBlocks(n) + 2) }

// Encode serializes samples into a version-3 chunk blob: header, directory,
// payload, block table and CRC32C footer.
func Encode(samples []Sample) ([]byte, error) {
	dir, err := encodeDirectory(samples)
	if err != nil {
		return nil, err
	}
	var payload int
	for _, s := range samples {
		payload += len(s.Data)
	}
	// One allocation of the exact size: the table's CRCs are computed over
	// bytes of out that appending the table never moves.
	out := make([]byte, 0, headerSize+len(dir)+payload+int(tableSize(uint64(payload)))+footerSize)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(samples)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
	out = append(out, dir...)
	dataStart := len(out)
	for _, s := range samples {
		out = append(out, s.Data...)
	}
	tableStart := len(out)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[:dataStart], castagnoli))
	for b := dataStart; b < tableStart; b += BlockSize {
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[b:min(b+BlockSize, tableStart)], castagnoli))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[tableStart:], castagnoli))
	out = append(out, FooterMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	return out, nil
}

func encodeDirectory(samples []Sample) ([]byte, error) {
	var dir []byte
	var off uint64
	// Offsets: n+1 entries.
	for _, s := range samples {
		dir = binary.LittleEndian.AppendUint64(dir, off)
		off += uint64(len(s.Data))
	}
	dir = binary.LittleEndian.AppendUint64(dir, off)
	// Shapes: ndim(u8) then u32 dims.
	for _, s := range samples {
		if len(s.Shape) > 255 {
			return nil, fmt.Errorf("chunk: sample rank %d exceeds 255", len(s.Shape))
		}
		dir = append(dir, byte(len(s.Shape)))
		for _, d := range s.Shape {
			if d < 0 {
				return nil, fmt.Errorf("chunk: negative dimension %d", d)
			}
			dir = binary.LittleEndian.AppendUint32(dir, uint32(d))
		}
	}
	return dir, nil
}

// ErrCorrupt marks a chunk blob whose bytes do not form a valid chunk:
// short or garbled header, directory that disagrees with its own length,
// non-monotone offsets, or a failed CRC32C footer check. Every decode-path
// corruption error wraps it, so callers can separate data corruption
// (errors.Is(err, ErrCorrupt) — re-fetch, heal, or fsck) from logic bugs
// like out-of-range sample indices, which do not.
var ErrCorrupt = errors.New("chunk: corrupt blob")

// corruptf builds a corruption error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// parseHeader validates the fixed header and returns sample count and
// directory length.
func parseHeader(raw []byte) (numSamples, dirBytes int, err error) {
	if len(raw) < headerSize {
		return 0, 0, corruptf("%d bytes is shorter than the %d-byte header", len(raw), headerSize)
	}
	if string(raw[:4]) != Magic {
		return 0, 0, corruptf("bad magic %q", raw[:4])
	}
	if version := binary.LittleEndian.Uint16(raw[4:]); version != FormatVersion {
		return 0, 0, corruptf("unsupported version %d", version)
	}
	numSamples = int(binary.LittleEndian.Uint32(raw[6:]))
	dirBytes = int(binary.LittleEndian.Uint32(raw[10:]))
	if dirBytes < 0 || headerSize+dirBytes > len(raw) {
		return 0, 0, corruptf("directory of %d bytes overruns %d-byte blob", dirBytes, len(raw))
	}
	return numSamples, dirBytes, nil
}

// Verify checks the integrity footer of a full chunk blob. checked reports
// that the header parsed and the footer was examined; a missing or
// mismatched footer yields an error wrapping ErrCorrupt. Verify only
// inspects the header and trailer, so it is safe to call before (or instead
// of) a full Decode.
func Verify(raw []byte) (checked bool, err error) {
	if _, _, err := parseHeader(raw); err != nil {
		return false, err
	}
	if len(raw) < headerSize+footerSize {
		return true, corruptf("%d bytes is too short for the footer", len(raw))
	}
	trailer := raw[len(raw)-footerSize:]
	if string(trailer[:len(FooterMagic)]) != FooterMagic {
		return true, corruptf("bad footer magic %q", trailer[:len(FooterMagic)])
	}
	want := binary.LittleEndian.Uint32(trailer[len(FooterMagic):])
	if got := crc32.Checksum(raw[:len(raw)-4], castagnoli); got != want {
		return true, corruptf("CRC32C mismatch: stored %08x, computed %08x", want, got)
	}
	return true, nil
}

// DecodeDirectory parses only the header + directory of a chunk blob. The
// input may be a prefix of the chunk (a header range request), as long as it
// covers the directory. Every count it reads is bounded by the bytes it
// holds before anything is sized from it.
func DecodeDirectory(raw []byte) (*Directory, error) {
	n, dirBytes, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	dir := raw[headerSize : headerSize+dirBytes]
	// Each sample takes an 8-byte offset and at least its rank byte, and
	// one more offset closes the list.
	need := (n + 1) * 8
	if n > len(dir)/9 || need+n > len(dir) {
		return nil, corruptf("directory holds %d bytes, %d samples need at least %d", len(dir), n, need+n)
	}
	d := &Directory{Offsets: make([]uint64, 0, n+1), Shapes: make([][]int, 0, n)}
	for i := 0; i <= n; i++ {
		d.Offsets = append(d.Offsets, binary.LittleEndian.Uint64(dir[i*8:]))
	}
	// Every shape is cut from one backing slice, capacity-clipped so that an
	// append to one shape cannot overwrite its neighbour. The shape section
	// holds one rank byte per sample and 4 bytes per dimension, which bounds
	// the dimension count before a single shape is read.
	dims := make([]int, 0, (len(dir)-need-n)/4)
	p := need
	for i := 0; i < n; i++ {
		if p >= len(dir) {
			return nil, corruptf("directory truncated at shape %d of %d", i, n)
		}
		nd := int(dir[p])
		p++
		if p+nd*4 > len(dir) {
			return nil, corruptf("directory truncated inside rank-%d shape %d", nd, i)
		}
		lo := len(dims)
		for j := 0; j < nd; j++ {
			dims = append(dims, int(binary.LittleEndian.Uint32(dir[p:])))
			p += 4
		}
		d.Shapes = append(d.Shapes, dims[lo:len(dims):len(dims)])
	}
	// Offsets must be monotone.
	for i := 0; i < n; i++ {
		if d.Offsets[i] > d.Offsets[i+1] {
			return nil, corruptf("offsets not monotone at sample %d (%d > %d)", i, d.Offsets[i], d.Offsets[i+1])
		}
	}
	return d, nil
}

// HeaderRange returns a conservative byte range [0, n) that is guaranteed to
// contain the header and directory of a chunk with at most maxSamples
// samples of rank at most maxRank. Streaming readers use it to fetch the
// directory with one range request before fetching sample payloads.
func HeaderRange(maxSamples, maxRank int) int64 {
	return int64(headerSize + (maxSamples+1)*8 + maxSamples*(1+4*maxRank))
}

// Decode parses a full chunk blob into its samples. Sample Data slices
// alias raw.
func Decode(raw []byte) ([]Sample, error) { return DecodeAppend(raw, nil) }

// DecodeAppend is Decode reusing dst's capacity for the sample directory,
// so a streaming reader that decodes chunks in a loop pays zero steady-state
// allocations for the slice itself. dst is truncated and appended to; Sample
// Data slices alias raw.
func DecodeAppend(raw []byte, dst []Sample) ([]Sample, error) {
	d, err := DecodeDirectory(raw)
	if err != nil {
		return nil, err
	}
	_, dirBytes, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	// The data section ends where the directory's last offset says; the
	// block table and the footer follow it and end the blob.
	data := raw[dataStart(dirBytes):]
	n := d.NumSamples()
	size := d.Offsets[n]
	if size > uint64(len(data)) || uint64(len(data))-size != tableSize(size)+uint64(footerSize) {
		return nil, corruptf("directory spans %d data bytes, which with the block table and footer is not the %d bytes after the directory", size, len(data))
	}
	data = data[:size]
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n; i++ {
		dst = append(dst, Sample{
			Shape: d.Shapes[i],
			// Capped, so an append to one sample cannot write into the next.
			Data: data[d.Offsets[i]:d.Offsets[i+1]:d.Offsets[i+1]],
		})
	}
	return dst, nil
}

// SampleRange returns the absolute byte range of sample i inside a chunk
// blob, computed from its directory; streaming readers pass it to
// Provider.GetRange to fetch a single sample out of an 8MB chunk (§3.5).
func SampleRange(raw []byte, i int) (offset, length int64, shape []int, err error) {
	d, err := DecodeDirectory(raw)
	if err != nil {
		return 0, 0, nil, err
	}
	return d.SampleRange(raw, i)
}

// SampleRange computes the absolute byte range of sample i given the chunk
// prefix raw (which must include the directory).
func (d *Directory) SampleRange(raw []byte, i int) (offset, length int64, shape []int, err error) {
	if i < 0 || i >= d.NumSamples() {
		return 0, 0, nil, fmt.Errorf("chunk: sample %d out of range (%d samples)", i, d.NumSamples())
	}
	_, dirBytes, err := parseHeader(raw)
	if err != nil {
		return 0, 0, nil, err
	}
	start := int64(dataStart(dirBytes)) + int64(d.Offsets[i])
	return start, int64(d.Offsets[i+1] - d.Offsets[i]), d.Shapes[i], nil
}
