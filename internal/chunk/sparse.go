package chunk

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sort"
)

// Layout is where the sections of a chunk lie, computed from the shapes and
// payload sizes of its samples as Encode writes them, without reading a byte
// of it. A reader that knows its samples' shapes and sizes (a raw tensor's
// shape encoder does) plans range requests from it.
type Layout struct {
	dirEnd  int64    // header and directory: where the data section starts
	offsets []uint64 // the directory's n+1 data-section offsets
	shapes  [][]int
}

// NewLayout returns the layout of a chunk whose sample i has shape shapes[i]
// and sizes[i] payload bytes.
func NewLayout(shapes [][]int, sizes []int64) Layout {
	l := Layout{offsets: make([]uint64, len(sizes)+1), shapes: shapes}
	dir := (len(sizes) + 1) * 8
	for i, n := range sizes {
		l.offsets[i+1] = l.offsets[i] + uint64(n)
		dir += 1 + 4*len(shapes[i])
	}
	l.dirEnd = int64(headerSize + dir)
	return l
}

// dataBytes is the length of the data section.
func (l *Layout) dataBytes() uint64 { return l.offsets[len(l.offsets)-1] }

// Range is one byte range [Offset, Offset+Length) of a chunk object.
type Range struct{ Offset, Length int64 }

// Sparse is a planned read of part of a chunk's data section: the byte
// ranges to fetch, in the order their checks run — the block table, the
// header and directory, then each run of adjacent blocks holding the wanted
// bytes — and the checks themselves (Checker, Check). Whatever it reads is
// checked against the chunk's own block table, which the directory and
// table seals in turn protect, so a partial read is as safe as a whole one.
type Sparse struct {
	layout Layout
	sel    []int       // the samples planned by Samples, ascending
	runs   [][2]uint64 // block runs [first, end), one per range after the directory
	ranges []Range
}

// Samples plans the read of the samples sel names (local indices into the
// chunk, each in range).
func (l Layout) Samples(sel []int) *Sparse {
	spans := make([][2]uint64, len(sel))
	for i, s := range sel {
		spans[i] = [2]uint64{l.offsets[s], l.offsets[s+1]}
	}
	sp := l.plan(spans)
	sp.sel = slices.Clone(sel)
	slices.Sort(sp.sel)
	return sp
}

// Bytes plans the read of data-section bytes [start, end) of sample i:
// a slice of one sample.
func (l Layout) Bytes(i int, start, end uint64) *Sparse {
	return l.plan([][2]uint64{{l.offsets[i] + start, l.offsets[i] + end}})
}

// plan covers the data-section spans with runs of whole blocks, merging
// runs that touch.
func (l Layout) plan(spans [][2]uint64) *Sparse {
	sp := &Sparse{layout: l}
	for _, s := range spans {
		if s[1] > s[0] {
			sp.runs = append(sp.runs, [2]uint64{s[0] / BlockSize, numBlocks(s[1])})
		}
	}
	sort.Slice(sp.runs, func(a, b int) bool { return sp.runs[a][0] < sp.runs[b][0] })
	merged := sp.runs[:0]
	for _, r := range sp.runs {
		if n := len(merged); n > 0 && r[0] <= merged[n-1][1] {
			merged[n-1][1] = max(merged[n-1][1], r[1])
			continue
		}
		merged = append(merged, r)
	}
	sp.runs = merged
	size := l.dataBytes()
	sp.ranges = append(make([]Range, 0, 2+len(sp.runs)),
		Range{Offset: l.dirEnd + int64(size), Length: int64(tableSize(size))},
		Range{Offset: 0, Length: l.dirEnd})
	for _, r := range sp.runs {
		lo, hi := r[0]*BlockSize, min(r[1]*BlockSize, size)
		sp.ranges = append(sp.ranges, Range{Offset: l.dirEnd + int64(lo), Length: int64(hi - lo)})
	}
	return sp
}

// Ranges returns the byte ranges to fetch, in check order. The slice is
// shared; callers do not modify it.
func (s *Sparse) Ranges() []Range { return s.ranges }

// Size is the total byte length of the ranges.
func (s *Sparse) Size() int64 {
	var n int64
	for _, r := range s.ranges {
		n += r.Length
	}
	return n
}

// Blocks reports how many of the chunk's data blocks the plan reads, and how
// many it has.
func (s *Sparse) Blocks() (read, total int64) {
	for _, r := range s.runs {
		read += int64(r[1] - r[0])
	}
	return read, int64(numBlocks(s.layout.dataBytes()))
}

// Selection returns the samples planned by Samples, ascending.
func (s *Sparse) Selection() []int { return s.sel }

// Checker holds what one fetch of a plan's ranges has checked so far: once
// the table range passes its seal, the directory and block ranges are
// checked against it. A Checker is for one goroutine.
type Checker struct {
	s     *Sparse
	table []byte
}

// Checker returns a checker for one fetch of the plan's ranges.
func (s *Sparse) Checker() *Checker { return &Checker{s: s} }

// Check checks b, the bytes fetched for range i of the plan. checked is false,
// with no error, when range i is checked against the block table and this
// checker has not yet passed one: the ranges of one fetch are checked in plan
// order. A failed check is an error wrapping ErrCorrupt that names the seal
// or block.
func (c *Checker) Check(i int, b []byte) (checked bool, err error) {
	s := c.s
	want := s.ranges[i].Length
	if int64(len(b)) != want {
		return true, corruptf("range %d holds %d bytes, want %d", i, len(b), want)
	}
	if i == 0 {
		n := len(b)
		if got, seal := crc32.Checksum(b[:n-4], castagnoli), binary.LittleEndian.Uint32(b[n-4:]); got != seal {
			return true, corruptf("block table seal mismatch: stored %08x, computed %08x", seal, got)
		}
		c.table = b
		return true, nil
	}
	if c.table == nil {
		return false, nil
	}
	if i == 1 {
		if got, seal := crc32.Checksum(b, castagnoli), binary.LittleEndian.Uint32(c.table); got != seal {
			return true, corruptf("directory seal mismatch: stored %08x, computed %08x", seal, got)
		}
		return true, nil
	}
	r := s.runs[i-2]
	return true, checkBlocks(c.table, r[0], b)
}

// checkBlocks checks data bytes b, which start at block first, against the
// block CRCs of table.
func checkBlocks(table []byte, first uint64, b []byte) error {
	for j := 0; j < len(b); j += BlockSize {
		block := first + uint64(j/BlockSize)
		want := binary.LittleEndian.Uint32(table[4+4*block:])
		if got := crc32.Checksum(b[j:min(j+BlockSize, len(b))], castagnoli); got != want {
			return corruptf("block %d CRC32C mismatch: stored %08x, computed %08x", block, want, got)
		}
	}
	return nil
}

// Check checks one fetch of every range, parts parallel to Ranges, in order,
// and that the fetched directory lists the offsets and shapes the layout was
// computed from. Every failure wraps ErrCorrupt.
func (s *Sparse) Check(parts [][]byte) error {
	if len(parts) != len(s.ranges) {
		return corruptf("%d ranges fetched, %d planned", len(parts), len(s.ranges))
	}
	c := s.Checker()
	for i, p := range parts {
		if _, err := c.Check(i, p); err != nil {
			return err
		}
	}
	d, err := DecodeDirectory(parts[1])
	if err != nil {
		return err
	}
	if h, _ := parseHeader(parts[1]); h.codec != None || h.blockLog != None.blockLog() {
		return corruptf("a chunk of codec %d and 2^%d-byte blocks has no sparse read", h.codec, h.blockLog)
	}
	if !slices.Equal(d.Offsets, s.layout.offsets) {
		return corruptf("directory offsets disagree with the layout the reader computed")
	}
	for i, shape := range d.Shapes {
		if !slices.Equal(shape, s.layout.shapes[i]) {
			return corruptf("directory shape %v of sample %d disagrees with the reader's %v", shape, i, s.layout.shapes[i])
		}
	}
	return nil
}

// data returns data-section bytes [start, end) out of checked parts. The
// interval lies inside one planned span; the result aliases parts.
func (s *Sparse) data(parts [][]byte, start, end uint64) []byte {
	if end <= start {
		return nil
	}
	k := sort.Search(len(s.runs), func(k int) bool { return s.runs[k][1]*BlockSize > start })
	base := s.runs[k][0] * BlockSize
	return parts[2+k][start-base : end-base : end-base]
}

// SampleBytes returns data bytes [start, end) of sample i, as planned by
// Bytes, out of checked parts.
func (s *Sparse) SampleBytes(parts [][]byte, i int, start, end uint64) []byte {
	return s.data(parts, s.layout.offsets[i]+start, s.layout.offsets[i]+end)
}

// Decode returns the chunk's samples out of checked parts: every sample has
// its shape, and the samples planned by Samples their payload, aliasing
// parts; the others have none.
func (s *Sparse) Decode(parts [][]byte) []Sample {
	l := &s.layout
	out := make([]Sample, len(l.shapes))
	for i, shape := range l.shapes {
		out[i].Shape = shape
	}
	for _, i := range s.sel {
		out[i].Data = s.data(parts, l.offsets[i], l.offsets[i+1])
	}
	return out
}
