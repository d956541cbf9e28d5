// Package chunk implements the on-storage chunk format of the Tensor
// Storage Format (§3.4): binary blobs holding a directory of sample byte
// ranges and shapes followed by the sample payloads. Chunks are sized
// between a lower and an upper bound so they stay in the range optimal for
// streaming while accommodating mixed-shape samples; samples larger than the
// upper bound are tiled across spatial dimensions by the layer above.
//
// A version-4 chunk is laid out as
//
//	header | directory | data blocks | block table
//
// The data section — the samples' payloads end to end — is cut into blocks
// of the size the header records. A chunk with a codec (chunk compression)
// stores each block compressed on its own, so a read inflates only the
// blocks its samples span (§3.5 range access inside a chunk). An opened
// chunk checks each block, and inflates a compressed one, the first time a
// read touches it. The block table holds each block's CRC32C over its
// stored bytes (and, in a compressed chunk, where its stored bytes end),
// sealed by a CRC32C of the header and directory and one of the table
// itself, so a reader checks exactly the blocks it reads. An uncompressed
// chunk's blocks are 1 KiB, so a reader that fetches only some samples'
// bytes (range requests) fetches and checks little beyond them: Layout
// computes where the sections of such a chunk lie from its sample shapes
// and sizes, and a Sparse plan names the table, directory and block ranges
// holding a selection of samples, with the checks that make each range safe
// to use.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
)

// Format constants.
const (
	// Magic identifies a chunk blob.
	Magic = "DLCH"
	// FormatVersion is bumped on layout changes. Version 4 records the
	// block size and codec in the header, compresses each block of a
	// compressed chunk on its own, and drops version 3's whole-blob CRC32C
	// footer: the block table checks every byte. It is the only version
	// decoded: this tree reads what this tree writes, and a header naming
	// any other version is corruption.
	FormatVersion = 4

	// BlockSize is the block of an uncompressed chunk: the span one
	// block-table CRC32C covers and the unit of a sparse read. The size is
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

	// CompressedBlockSize is the block of a compressed chunk: the unit of
	// inflation. A read of one sample inflates every block the sample spans,
	// so a smaller block inflates less beyond the sample; each block also
	// restarts the codec's window and costs 8 bytes of table. On D_img's
	// 4 KiB lz4 masks in 256 KiB chunks, 4 KiB blocks stored the fewest
	// bytes and gave the fastest shuffled first batch of the 4–64 KiB
	// sizes tried (see CHANGES.md for the sweep).
	CompressedBlockSize = 4 << 10

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

// Block sizes a header may record, as log2: from BlockSize to 64 KiB.
const (
	minBlockLog = 10
	maxBlockLog = 16
)

// maxRatio bounds how many bytes one stored byte of a compressed block may
// claim to inflate to: DEFLATE's ceiling (LZ4's is 255). Open refuses a
// block table claiming more, before it sizes the decoded buffer from it.
const maxRatio = 1032

// Sample is one entry in a chunk: the (possibly media-encoded) payload plus
// the logical sample shape. For sample-compressed tensors Data holds e.g.
// JPEG bytes while Shape records the decoded pixel shape, so shape queries
// never decode media.
type Sample struct {
	Shape []int
	Data  []byte
}

// Codec is the block codec of a chunk, by the id its header records.
type Codec uint8

// Block codecs.
const (
	None Codec = iota
	LZ4
	Deflate
)

// blockCodecs are the compress block codecs behind the ids.
var blockCodecs = [...]compress.BlockCodec{None: nil, LZ4: compress.LZ4Block, Deflate: compress.DeflateBlock}

// CodecNamed returns the block codec of a tensor's chunk compression
// (compress.BlockNamed): "" and "none" mean uncompressed.
func CodecNamed(name string) (Codec, error) {
	bc, err := compress.BlockNamed(name)
	if err != nil {
		return None, err
	}
	return Codec(slices.Index(blockCodecs[:], bc)), nil
}

// blockLog is log2 of the codec's block size.
func (c Codec) blockLog() uint8 {
	if c == None {
		return uint8(bits.TrailingZeros(BlockSize))
	}
	return uint8(bits.TrailingZeros(CompressedBlockSize))
}

// entrySize is the bytes one block takes in the table: its CRC32C, and in a
// compressed chunk first the end of its stored bytes.
func (c Codec) entrySize() int {
	if c == None {
		return 4
	}
	return 8
}

// header layout: magic(4) version(u16) numSamples(u32) dirBytes(u32)
// codec(u8) blockLog(u8).
const headerSize = 4 + 2 + 4 + 4 + 1 + 1

// header is a parsed chunk header.
type header struct {
	samples, dirBytes int
	codec             Codec
	blockLog          uint8
}

// Directory describes where each sample lives inside a chunk. Offsets are
// relative to the start of the (decoded) data section and have length
// numSamples+1 so sample i spans [Offsets[i], Offsets[i+1]).
type Directory struct {
	Offsets []uint64
	Shapes  [][]int
}

// NumSamples returns the number of samples described.
func (d *Directory) NumSamples() int { return len(d.Shapes) }

// castagnoli is the CRC32C table of the block table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// numBlocks is how many BlockSize blocks a data section of n bytes spans.
func numBlocks(n uint64) uint64 { return (n + BlockSize - 1) / BlockSize }

// tableSize is the byte length of the block table of an uncompressed data
// section of n bytes: the directory seal, one CRC32C per block, the block
// count and the table seal.
func tableSize(n uint64) uint64 { return 4 * (numBlocks(n) + 3) }

// Encode serializes samples into an uncompressed chunk blob.
func Encode(samples []Sample) ([]byte, error) { return None.Encode(samples) }

// Encode serializes samples into a chunk blob whose data blocks are
// compressed with c, each on its own; a block compression would not shrink
// is stored as it is.
func (c Codec) Encode(samples []Sample) ([]byte, error) {
	if int(c) >= len(blockCodecs) {
		return nil, fmt.Errorf("chunk: unknown block codec %d", c)
	}
	dir, err := encodeDirectory(samples)
	if err != nil {
		return nil, err
	}
	var size int
	for _, s := range samples {
		size += len(s.Data)
	}
	bs := 1 << c.blockLog()
	nb := (size + bs - 1) / bs
	out := make([]byte, 0, headerSize+len(dir)+size+4*3+nb*c.entrySize())
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(samples)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
	out = append(out, byte(c), c.blockLog())
	out = append(out, dir...)
	start := len(out)
	ends := make([]int, nb) // where each block's stored bytes end in out
	if c == None {
		for _, s := range samples {
			out = append(out, s.Data...)
		}
		for b := range ends {
			ends[b] = start + min((b+1)*bs, size)
		}
	} else {
		bc := blockCodecs[c]
		data := make([]byte, 0, size)
		for _, s := range samples {
			data = append(data, s.Data...)
		}
		for b := range ends {
			block := data[b*bs : min((b+1)*bs, size)]
			var ok bool
			if out, ok = bc.AppendBlock(out, block); !ok {
				out = append(out, block...)
			}
			ends[b] = len(out)
		}
		if len(out)-start > math.MaxUint32 {
			return nil, fmt.Errorf("chunk: %d stored data bytes overflow the block table", len(out)-start)
		}
	}
	table := len(out)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[:start], castagnoli))
	prev := start
	for _, end := range ends {
		if c != None {
			out = binary.LittleEndian.AppendUint32(out, uint32(end-start))
		}
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[prev:end], castagnoli))
		prev = end
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(nb))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[table:], castagnoli)), nil
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
// non-monotone offsets, a failed seal or block CRC32C, or a block that does
// not inflate. Every decode-path corruption error wraps it, so callers can
// separate data corruption (errors.Is(err, ErrCorrupt) — re-fetch, heal, or
// fsck) from logic bugs like out-of-range sample indices, which do not.
var ErrCorrupt = errors.New("chunk: corrupt blob")

// corruptf builds a corruption error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// parseHeader validates the fixed header.
func parseHeader(raw []byte) (h header, err error) {
	if len(raw) < headerSize {
		return h, corruptf("%d bytes is shorter than the %d-byte header", len(raw), headerSize)
	}
	if string(raw[:4]) != Magic {
		return h, corruptf("bad magic %q", raw[:4])
	}
	if version := binary.LittleEndian.Uint16(raw[4:]); version != FormatVersion {
		return h, corruptf("unsupported version %d", version)
	}
	h.samples = int(binary.LittleEndian.Uint32(raw[6:]))
	h.dirBytes = int(binary.LittleEndian.Uint32(raw[10:]))
	h.codec, h.blockLog = Codec(raw[14]), raw[15]
	if int(h.codec) >= len(blockCodecs) {
		return h, corruptf("unknown block codec %d", h.codec)
	}
	if h.blockLog < minBlockLog || h.blockLog > maxBlockLog {
		return h, corruptf("block size 2^%d is outside 2^%d..2^%d", h.blockLog, minBlockLog, maxBlockLog)
	}
	if h.dirBytes < 0 || headerSize+h.dirBytes > len(raw) {
		return h, corruptf("directory of %d bytes overruns %d-byte blob", h.dirBytes, len(raw))
	}
	return h, nil
}

// DecodeDirectory parses only the header + directory of a chunk blob. The
// input may be a prefix of the chunk (a header range request), as long as it
// covers the directory. Every count it reads is bounded by the bytes it
// holds before anything is sized from it.
func DecodeDirectory(raw []byte) (*Directory, error) {
	h, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	n := h.samples
	dir := raw[headerSize : headerSize+h.dirBytes]
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

// parsed is a whole chunk blob whose structure and seals have been checked,
// but not yet its blocks.
type parsed struct {
	h       header
	dir     *Directory
	size    int    // decoded data section bytes
	stored  []byte // the data blocks as stored
	entries []byte // the table's per-block entries
}

// parse checks a whole chunk blob's structure and its two seals. The table
// is found from the blob's end — its seal, then the block count before it —
// not from the directory it protects, and it is checked first, then the
// header and directory against it: so a damaged byte is named by the seal or
// block that covers it. Every failure wraps ErrCorrupt.
func parse(raw []byte) (*parsed, error) {
	h, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	start := headerSize + h.dirBytes
	rest := raw[start:]
	if len(rest) < 12 {
		return nil, corruptf("%d bytes after the directory hold no block table", len(rest))
	}
	w := h.codec.entrySize()
	nb := int(binary.LittleEndian.Uint32(rest[len(rest)-8:]))
	if nb > (len(rest)-12)/w {
		return nil, corruptf("block table of %d blocks overruns the %d bytes after the directory", nb, len(rest))
	}
	table := rest[len(rest)-12-nb*w:]
	n := len(table)
	if got, seal := crc32.Checksum(table[:n-4], castagnoli), binary.LittleEndian.Uint32(table[n-4:]); got != seal {
		return nil, corruptf("block table seal mismatch: stored %08x, computed %08x", seal, got)
	}
	if got, seal := crc32.Checksum(raw[:start], castagnoli), binary.LittleEndian.Uint32(table); got != seal {
		return nil, corruptf("directory seal mismatch: stored %08x, computed %08x", seal, got)
	}
	d, err := DecodeDirectory(raw)
	if err != nil {
		return nil, err
	}
	p := &parsed{h: h, dir: d, stored: rest[:len(rest)-n], entries: table[4 : n-8]}
	total := d.Offsets[d.NumSamples()]
	bs := uint64(1) << h.blockLog
	if total > uint64(nb)*bs || (nb > 0 && total <= uint64(nb-1)*bs) {
		return nil, corruptf("directory spans %d data bytes, which is not %d blocks of %d", total, nb, bs)
	}
	p.size = int(total)
	if h.codec == None {
		if len(p.stored) != p.size {
			return nil, corruptf("directory spans %d data bytes, the blob stores %d", total, len(p.stored))
		}
		return p, nil
	}
	prev := 0
	for b := 0; b < nb; b++ {
		end := int(binary.LittleEndian.Uint32(p.entries[8*b:]))
		decoded := min(p.size-b*int(bs), int(bs))
		if end < prev || end-prev > decoded || (end-prev)*maxRatio < decoded {
			return nil, corruptf("block %d stores bytes [%d, %d) for %d decoded bytes", b, prev, end, decoded)
		}
		prev = end
	}
	if prev != len(p.stored) {
		return nil, corruptf("the block table stores %d data bytes, the blob %d", prev, len(p.stored))
	}
	return p, nil
}

// block returns block b's stored bytes, its stored CRC32C and its span of
// the decoded data section.
func (p *parsed) block(b int) (stored []byte, crc uint32, lo, hi int) {
	bs := 1 << p.h.blockLog
	lo, hi = b*bs, min((b+1)*bs, p.size)
	if p.h.codec == None {
		return p.stored[lo:hi], binary.LittleEndian.Uint32(p.entries[4*b:]), lo, hi
	}
	var from int
	if b > 0 {
		from = int(binary.LittleEndian.Uint32(p.entries[8*(b-1):]))
	}
	to := int(binary.LittleEndian.Uint32(p.entries[8*b:]))
	return p.stored[from:to], binary.LittleEndian.Uint32(p.entries[8*b+4:]), lo, hi
}

// blocks is the chunk's block count.
func (p *parsed) blocks() int { return len(p.entries) / p.h.codec.entrySize() }

// check checks block b's stored bytes against the table.
func (p *parsed) check(b int) error {
	stored, want, _, _ := p.block(b)
	if got := crc32.Checksum(stored, castagnoli); got != want {
		return corruptf("block %d CRC32C mismatch: stored %08x, computed %08x", b, want, got)
	}
	return nil
}

// Verify checks a whole chunk blob: its block table seal, its directory seal
// and every data block's stored bytes, naming the first that fails, without
// inflating anything — fsck's account of where a damaged chunk is damaged.
// checked reports that the header parsed. Every failure wraps ErrCorrupt.
func Verify(raw []byte) (checked bool, err error) {
	if _, err := parseHeader(raw); err != nil {
		return false, err
	}
	p, err := parse(raw)
	if err != nil {
		return true, err
	}
	for b := 0; b < p.blocks(); b++ {
		if err := p.check(b); err != nil {
			return true, err
		}
	}
	return true, nil
}

// Chunk is an opened chunk: its samples' shapes, and their payloads. Open
// checks the blob's structure and seals and decodes the directory; a data
// block is checked the first time a read touches it, and nothing sized by
// the data is allocated until a read asks for it. An uncompressed chunk's
// payloads alias the blob it was opened from. A compressed chunk inflates
// each block the first time a read touches it, once however many goroutines
// read at a time: a sample inside one block aliases a buffer of that
// block's own. The first read of a sample spanning blocks, or whole read
// (Samples, Column), makes one contiguous buffer of the decoded data
// section, moves the blocks already inflated into it, and inflates every
// block a read touches from then on straight into its span: such a read,
// and every read after it, aliases that buffer, which a whole read fills.
// A block that fails its check or does not inflate fails every read that
// touches it, and no other: the reader heals by fetching the chunk's object
// again (MarkStale). A Chunk is safe for concurrent use; what it returns is
// read-only.
type Chunk struct {
	// dir and data are an opened chunk's directory and data section; nil
	// for a chunk made FromSamples.
	dir  *Directory
	data section
	// samples is the sample table: given to FromSamples, or built from the
	// directory by an opened chunk's first whole read.
	samples []Sample
	table   sync.Once
	stale   atomic.Bool
	// elem is the byte length of every sample when each holds one element
	// and they lie back to back (see Column), else 0.
	elem int
}

// section is an opened chunk's data section.
type section interface {
	// read returns decoded bytes [lo, hi), checking and inflating the
	// blocks they span that no read has.
	read(lo, hi uint64) ([]byte, error)
	// whole returns the whole decoded data section, every block checked.
	whole() ([]byte, error)
}

// Open opens a whole chunk blob. It checks the blob's structure and seals
// and decodes the directory; the data blocks are checked, and a compressed
// chunk's inflated, as reads touch them. Every failure wraps ErrCorrupt.
func Open(raw []byte) (*Chunk, error) {
	p, err := parse(raw)
	if err != nil {
		return nil, err
	}
	d := p.dir
	c := &Chunk{dir: d}
	if p.h.codec == None {
		c.data = &plainBlocks{p: p, checked: make([]atomic.Uint64, (p.blocks()+63)/64)}
	} else {
		c.data = &lazyBlocks{p: p, codec: blockCodecs[p.h.codec], blocks: make([]lazyBlock, p.blocks())}
	}
	n := d.NumSamples()
	var elem uint64
	if n > 0 && d.Offsets[0] == 0 {
		elem = d.Offsets[1]
	}
	for i := 0; i < n && elem > 0; i++ {
		if d.Offsets[i+1] != uint64(i+1)*elem || !oneElement(d.Shapes[i]) {
			elem = 0
		}
	}
	c.elem = int(elem)
	return c, nil
}

// oneElement reports whether a shape holds exactly one element.
func oneElement(shape []int) bool {
	for _, d := range shape {
		if d != 1 {
			return false
		}
	}
	return true
}

// FromSamples is a Chunk of samples already in memory: a chunk still in a
// writer's buffer, or the part of one a sparse read fetched.
func FromSamples(samples []Sample) *Chunk { return &Chunk{samples: samples} }

// Len is the chunk's sample count.
func (c *Chunk) Len() int {
	if c.dir != nil {
		return c.dir.NumSamples()
	}
	return len(c.samples)
}

// Bytes is the chunk's decoded payload bytes: what it holds once every
// block is inflated, an upper bound on what its reads have allocated.
func (c *Chunk) Bytes() int64 {
	if d := c.dir; d != nil {
		return int64(d.Offsets[d.NumSamples()] - d.Offsets[0])
	}
	var n int64
	for _, s := range c.samples {
		n += int64(len(s.Data))
	}
	return n
}

// CountInflated makes the chunk add the decoded bytes of every block it
// inflates from now on to n. Call it before the chunk is shared.
func (c *Chunk) CountInflated(n *atomic.Int64) {
	if l, ok := c.data.(*lazyBlocks); ok {
		l.inflated = n
	}
}

// SumBlocks makes each block the chunk inflates from now on record the
// CRC32C of its decoded bytes, which Digest checks. Call it before the chunk
// is shared.
func (c *Chunk) SumBlocks() {
	if l, ok := c.data.(*lazyBlocks); ok {
		l.kept = make([]atomic.Pointer[[]byte], len(l.blocks))
	}
}

// Digest is a CRC32C of the bytes no reader of the chunk may write: an
// uncompressed chunk's payloads; a compressed chunk's stored blocks and
// block table, which alias the blob it was opened from, and — after
// SumBlocks — each inflated block's decoded bytes wherever reads found
// them (its own buffer, and once placed its span of the contiguous buffer),
// held to the CRC32C they inflated to. Inflating or placing a block changes
// no digest; writing into a payload read out of the chunk does. It is the
// mutation detector's view of a cached chunk (storage.CacheFuncs.Digest).
func (c *Chunk) Digest() uint32 {
	switch s := c.data.(type) {
	case *plainBlocks:
		return crc32.Checksum(s.p.stored, castagnoli)
	case *lazyBlocks:
		crc := crc32.Update(crc32.Checksum(s.p.stored, castagnoli), castagnoli, s.p.entries)
		for b := range s.blocks {
			blk := &s.blocks[b]
			if !blk.summed.Load() {
				continue
			}
			for _, buf := range [...]*[]byte{blk.buf.Load(), s.kept[b].Load()} {
				if buf != nil && crc32.Checksum(*buf, castagnoli) != blk.sum {
					return ^crc
				}
			}
		}
		return crc
	}
	var crc uint32
	for _, s := range c.samples {
		crc = crc32.Update(crc, castagnoli, s.Data)
	}
	return crc
}

// MarkStale marks the chunk as one a reader found a damaged block in and
// fetches again, to heal it: a cache holding it drops it on its next lookup.
func (c *Chunk) MarkStale() { c.stale.Store(true) }

// Stale reports whether MarkStale was called.
func (c *Chunk) Stale() bool { return c.stale.Load() }

// Sample returns sample i, checking and inflating the blocks it spans on
// first touch.
func (c *Chunk) Sample(i int) (Sample, error) {
	if i < 0 || i >= c.Len() {
		return Sample{}, fmt.Errorf("chunk: sample %d out of range (%d samples)", i, c.Len())
	}
	if c.data == nil {
		return c.samples[i], nil
	}
	data, err := c.data.read(c.dir.Offsets[i], c.dir.Offsets[i+1])
	if err != nil {
		return Sample{}, err
	}
	return Sample{Shape: c.dir.Shapes[i], Data: data}, nil
}

// Samples returns every sample, checking and inflating every block not yet
// touched: the read of a whole chunk. The slice is shared and read-only.
func (c *Chunk) Samples() ([]Sample, error) {
	if c.data == nil {
		return c.samples, nil
	}
	data, err := c.data.whole()
	if err != nil {
		return nil, err
	}
	c.table.Do(func() {
		d := c.dir
		c.samples = make([]Sample, d.NumSamples())
		for i := range c.samples {
			// Capped, so an append to one sample cannot write into the next.
			c.samples[i] = Sample{Shape: d.Shapes[i], Data: data[d.Offsets[i]:d.Offsets[i+1]:d.Offsets[i+1]]}
		}
	})
	return c.samples, nil
}

// Column returns the payloads of a chunk whose samples each hold one
// element of size bytes, stored back to back, as one byte run: sample i is
// col[i*size:(i+1)*size]. Open decides this once from the directory; for
// any other chunk Column returns nil, with nothing read. Like Samples it
// checks and inflates every block not yet touched. The bytes are shared and
// read-only.
func (c *Chunk) Column(size int) ([]byte, error) {
	if size <= 0 || c.elem != size {
		return nil, nil
	}
	return c.data.whole()
}

// plainBlocks is an uncompressed chunk's data section, the blob's own
// bytes, with a bit per block set once the block has passed its check, and
// all set once every block has. A block that fails is checked again by the
// next read touching it.
type plainBlocks struct {
	p       *parsed
	checked []atomic.Uint64
	all     atomic.Bool
}

func (s *plainBlocks) read(lo, hi uint64) ([]byte, error) {
	if err := s.check(lo, hi); err != nil {
		return nil, err
	}
	return s.p.stored[lo:hi:hi], nil
}

func (s *plainBlocks) whole() ([]byte, error) {
	if !s.all.Load() {
		if err := s.check(0, uint64(s.p.size)); err != nil {
			return nil, err
		}
		s.all.Store(true)
	}
	return s.p.stored[:s.p.size:s.p.size], nil
}

// check checks the blocks spanning bytes [lo, hi) that have not passed yet.
func (s *plainBlocks) check(lo, hi uint64) error {
	if hi <= lo {
		return nil
	}
	shift := s.p.h.blockLog
	for b := int(lo >> shift); b <= int((hi-1)>>shift); b++ {
		word, bit := &s.checked[b/64], uint64(1)<<(b%64)
		if word.Load()&bit != 0 {
			continue
		}
		if err := s.p.check(b); err != nil {
			return err
		}
		for old := word.Load(); !word.CompareAndSwap(old, old|bit); old = word.Load() {
		}
	}
	return nil
}

// lazyBlocks is a compressed chunk's data section: the blocks as stored,
// and their decoded bytes. Until a read spans blocks or reads whole, a block
// a read touches is inflated into a buffer of its own, which a sample inside
// it aliases. The first read that spans blocks or reads whole makes the
// contiguous buffer of the decoded data section, and moves the blocks
// already inflated into their spans of it; from then on a read places each
// block it touches in its span once, inflating it there, and aliases the
// buffer, which a whole read fills. A read of a cached chunk allocates
// nothing once its blocks are in place.
type lazyBlocks struct {
	p        *parsed
	codec    compress.BlockCodec
	blocks   []lazyBlock
	inflated *atomic.Int64
	// kept is non-nil after SumBlocks, which makes inflation record each
	// block's CRC32C; kept[b] is then the buffer of its own block b was
	// read from before it was placed, which Digest still checks.
	kept []atomic.Pointer[[]byte]
	// alloc makes contig, the contiguous buffer, and spans, each block's
	// span of it, once; ready is set once they are made, and full once
	// every block is placed in contig.
	alloc       sync.Once
	contig      []byte
	spans       [][]byte
	ready, full atomic.Bool
}

// lazyBlock is one block of a compressed chunk: inflated under once into
// the buffer buf points at — its own, or its span of the contiguous buffer,
// where placed puts it once — or failed with err. After SumBlocks, sum is
// the CRC32C of its decoded bytes, written before summed is set.
type lazyBlock struct {
	once   sync.Once
	placed sync.Once
	err    error
	buf    atomic.Pointer[[]byte]
	sum    uint32
	summed atomic.Bool
}

func (l *lazyBlocks) read(lo, hi uint64) ([]byte, error) {
	if l.full.Load() {
		return l.contig[lo:hi:hi], nil
	}
	if hi <= lo {
		return []byte{}, nil
	}
	shift := l.p.h.blockLog
	first, last := int(lo>>shift), int((hi-1)>>shift)
	if first == last && !l.ready.Load() {
		buf, err := l.block(first)
		if err != nil {
			return nil, err
		}
		base := uint64(first) << shift
		return buf[lo-base : hi-base : hi-base], nil
	}
	contig := l.contiguous()
	for b := first; b <= last; b++ {
		if err := l.place(b); err != nil {
			return nil, err
		}
	}
	return contig[lo:hi:hi], nil
}

// block returns block b's decoded bytes, inflating it into a buffer of its
// own if no read has.
func (l *lazyBlocks) block(b int) ([]byte, error) {
	blk := &l.blocks[b]
	blk.once.Do(func() {
		_, _, lo, hi := l.p.block(b)
		buf := make([]byte, hi-lo)
		if blk.err = l.inflate(b, buf); blk.err == nil {
			blk.buf.Store(&buf)
		}
	})
	if blk.err != nil {
		return nil, blk.err
	}
	return *blk.buf.Load(), nil
}

// contiguous returns the contiguous buffer, making it once and placing in
// it every block already inflated.
func (l *lazyBlocks) contiguous() []byte {
	l.alloc.Do(func() {
		l.contig = make([]byte, l.p.size)
		l.spans = make([][]byte, len(l.blocks))
		for b := range l.spans {
			_, _, lo, hi := l.p.block(b)
			l.spans[b] = l.contig[lo:hi:hi]
		}
		l.ready.Store(true)
		for b := range l.blocks {
			if l.blocks[b].buf.Load() != nil {
				l.place(b)
			}
		}
	})
	return l.contig
}

// place puts block b's decoded bytes in its span of the contiguous buffer
// once: inflated there if no read has inflated it, else copied from its own
// buffer, which reads then no longer find.
func (l *lazyBlocks) place(b int) error {
	blk := &l.blocks[b]
	blk.placed.Do(func() {
		span := &l.spans[b]
		inflated := false
		blk.once.Do(func() {
			if blk.err = l.inflate(b, *span); blk.err == nil {
				blk.buf.Store(span)
				inflated = true
			}
		})
		if blk.err != nil || inflated {
			return
		}
		own := blk.buf.Load()
		copy(*span, *own)
		if l.kept != nil {
			l.kept[b].Store(own)
		}
		blk.buf.Store(span)
	})
	return blk.err
}

// whole places every block in the contiguous buffer and returns it.
func (l *lazyBlocks) whole() ([]byte, error) {
	if l.full.Load() {
		return l.contig, nil
	}
	contig := l.contiguous()
	for b := range l.blocks {
		if err := l.place(b); err != nil {
			return nil, err
		}
	}
	l.full.Store(true)
	return contig, nil
}

// inflate checks block b and decodes it into dst, its decoded length.
func (l *lazyBlocks) inflate(b int, dst []byte) error {
	if err := l.p.check(b); err != nil {
		return err
	}
	stored, _, _, _ := l.p.block(b)
	if len(stored) == len(dst) {
		copy(dst, stored)
	} else if err := l.codec.DecodeBlock(dst, stored); err != nil {
		return corruptf("block %d does not inflate: %v", b, err)
	}
	if l.inflated != nil {
		l.inflated.Add(int64(len(dst)))
	}
	if l.kept != nil {
		blk := &l.blocks[b]
		blk.sum = crc32.Checksum(dst, castagnoli)
		blk.summed.Store(true)
	}
	return nil
}

// Decode parses a full chunk blob into its samples.
func Decode(raw []byte) ([]Sample, error) { return DecodeAppend(raw, nil) }

// DecodeAppend is Decode reusing dst's capacity for the sample list. dst is
// truncated and appended to; an uncompressed chunk's sample Data slices
// alias raw, a compressed one's a buffer of their own.
func DecodeAppend(raw []byte, dst []Sample) ([]Sample, error) {
	c, err := Open(raw)
	if err != nil {
		return nil, err
	}
	samples, err := c.Samples()
	if err != nil {
		return nil, err
	}
	return append(slices.Grow(dst[:0], len(samples)), samples...), nil
}

// SampleRange returns the absolute byte range of sample i inside an
// uncompressed chunk blob, computed from its directory; streaming readers
// pass it to Provider.GetRange to fetch a single sample out of an 8MB chunk
// (§3.5).
func SampleRange(raw []byte, i int) (offset, length int64, shape []int, err error) {
	d, err := DecodeDirectory(raw)
	if err != nil {
		return 0, 0, nil, err
	}
	return d.SampleRange(raw, i)
}

// SampleRange computes the absolute byte range of sample i given the chunk
// prefix raw (which must include the directory). A compressed chunk's
// samples have no byte range of their own.
func (d *Directory) SampleRange(raw []byte, i int) (offset, length int64, shape []int, err error) {
	if i < 0 || i >= d.NumSamples() {
		return 0, 0, nil, fmt.Errorf("chunk: sample %d out of range (%d samples)", i, d.NumSamples())
	}
	h, err := parseHeader(raw)
	if err != nil {
		return 0, 0, nil, err
	}
	if h.codec != None {
		return 0, 0, nil, fmt.Errorf("chunk: sample %d of a compressed chunk has no byte range", i)
	}
	start := int64(headerSize+h.dirBytes) + int64(d.Offsets[i])
	return start, int64(d.Offsets[i+1] - d.Offsets[i]), d.Shapes[i], nil
}
