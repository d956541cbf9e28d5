// Package chunk implements the on-storage chunk format of the Tensor
// Storage Format (§3.4): binary blobs holding a directory of sample byte
// ranges and shapes followed by the sample payloads. Chunks are sized
// between a lower and an upper bound so they stay in the range optimal for
// streaming while accommodating mixed-shape samples; samples larger than the
// upper bound are tiled across spatial dimensions by the layer above.
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
	// FormatVersion is bumped on layout changes. Version 2 appends a CRC32C
	// integrity footer (see FooterMagic). It is the only version decoded:
	// this tree reads what this tree writes, and a header naming any other
	// version is corruption.
	FormatVersion = 2

	// FooterMagic opens the 8-byte trailer of a version-2 chunk:
	// FooterMagic(4) then CRC32C(4, little-endian, Castagnoli) of every
	// preceding byte of the blob (header, directory, payload, footer magic).
	// The footer sits after the data section so a directory-prefix read
	// never needs it.
	FooterMagic = "DLCF"
	// footerSize is the byte length of the version-2 trailer.
	footerSize = len(FooterMagic) + 4

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

// castagnoli is the CRC32C table used by the version-2 integrity footer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes samples into a version-2 chunk blob, including the
// CRC32C integrity footer.
func Encode(samples []Sample) ([]byte, error) {
	dir, err := encodeDirectory(samples)
	if err != nil {
		return nil, err
	}
	var payload int
	for _, s := range samples {
		payload += len(s.Data)
	}
	out := make([]byte, 0, headerSize+len(dir)+payload+footerSize)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(samples)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
	out = append(out, dir...)
	for _, s := range samples {
		out = append(out, s.Data...)
	}
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
		return true, corruptf("%d bytes is too short for the version-2 footer", len(raw))
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
// covers the directory.
func DecodeDirectory(raw []byte) (*Directory, error) {
	n, dirBytes, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	dir := raw[headerSize : headerSize+dirBytes]
	d := &Directory{Offsets: make([]uint64, 0, n+1), Shapes: make([][]int, 0, n)}
	need := (n + 1) * 8
	if len(dir) < need {
		return nil, corruptf("directory holds %d bytes, %d samples need %d", len(dir), n, need)
	}
	for i := 0; i <= n; i++ {
		d.Offsets = append(d.Offsets, binary.LittleEndian.Uint64(dir[i*8:]))
	}
	// Every shape is cut from one backing slice, capacity-clipped so that an
	// append to one shape cannot overwrite its neighbour. The shape section
	// holds one rank byte per sample and 4 bytes per dimension, which bounds
	// the dimension count before a single shape is read.
	dims := make([]int, 0, max(0, len(dir)-need-n)/4)
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
	// The trailer sits after the data section.
	data := raw[dataStart(dirBytes):]
	if len(data) < footerSize {
		return nil, corruptf("blob too short for the version-2 footer")
	}
	data = data[:len(data)-footerSize]
	n := d.NumSamples()
	if n > 0 && d.Offsets[n] > uint64(len(data)) {
		return nil, corruptf("payload truncated: directory spans %d bytes, data section holds %d", d.Offsets[n], len(data))
	}
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
