package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// lz4 implements the LZ4 block format from scratch: a byte-oriented LZ77
// variant with 64KB windows, 4-byte minimum matches, and token-encoded
// sequence lengths. It is the paper's choice for chunk compression of
// numeric tensors (labels, boxes, segmentation masks) where decode speed
// matters far more than ratio: a shuffled epoch's first batch waits for the
// mask blocks its rows span to decompress.
//
// Framing: because the raw LZ4 block format does not record the decompressed
// size, Compress prepends a one-byte mode tag (lz4Raw when compression did
// not help, lz4Block otherwise) and a uvarint decompressed length. A block
// decodes to at most 255 bytes per stored byte, so Decompress refuses a
// larger size header before it allocates anything: stored bytes are
// untrusted input. AppendBlock and DecodeBlock are the unframed blocks of a
// container that records each block's length itself, as a chunk does.
type lz4 struct{}

func (lz4) Name() string { return "lz4" }

const (
	lz4Raw   = 0x00
	lz4Block = 0x01

	lz4MinMatch = 4
	// The block format forbids matches starting within the final 12
	// bytes; the last 5 bytes must be literals.
	lz4MFLimit    = 12
	lz4LastLits   = 5
	lz4MaxOffset  = 65535
	lz4HashLog    = 16
	lz4TokenLits  = 15
	lz4TokenMatch = 15
	// lz4MaxRatio bounds a block's output: every input byte decodes to
	// at most 255 bytes (a 255 extension byte adds 255 to a match).
	lz4MaxRatio = 255
)

// lz4CompressBound is the worst-case size of an LZ4 block for n input bytes.
func lz4CompressBound(n int) int { return n + n/255 + 16 }

func (lz4) Compress(src []byte) ([]byte, error) {
	e := lz4Encoders.Get().(*lz4Encoder)
	defer lz4Encoders.Put(e)
	mode, payload := byte(lz4Block), e.compressBlock(src)
	if payload == nil || len(payload) >= len(src) {
		mode, payload = lz4Raw, src // incompressible: store raw
	}
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(payload))
	out = append(out, mode)
	out = binary.AppendUvarint(out, uint64(len(src)))
	return append(out, payload...), nil
}

func (lz4) Decompress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, errors.New("lz4: empty input")
	}
	mode := src[0]
	size, n := binary.Uvarint(src[1:])
	if n <= 0 {
		return nil, errors.New("lz4: bad size header")
	}
	payload := src[1+n:]
	switch mode {
	case lz4Raw:
		if uint64(len(payload)) != size {
			return nil, fmt.Errorf("lz4: raw payload size %d != header %d", len(payload), size)
		}
		return append([]byte(nil), payload...), nil
	case lz4Block:
		// Checked before the output is allocated: a corrupt header must
		// fail here, not size an allocation the process cannot survive.
		if size > lz4MaxRatio*uint64(len(payload)) {
			return nil, fmt.Errorf("lz4: header claims %d bytes, more than a %d-byte block decodes to", size, len(payload))
		}
		return lz4DecompressBlock(payload, int(size))
	default:
		return nil, fmt.Errorf("lz4: unknown mode byte %#x", mode)
	}
}

// AppendBlock appends the raw LZ4 block of src to dst, for a container that
// records src's length itself (a chunk's block table). ok is false, and dst
// is returned unchanged, when the block would not be shorter than src.
func (lz4) AppendBlock(dst, src []byte) (out []byte, ok bool) {
	e := lz4Encoders.Get().(*lz4Encoder)
	defer lz4Encoders.Put(e)
	payload := e.compressBlock(src)
	if payload == nil || len(payload) >= len(src) {
		return dst, false
	}
	return append(dst, payload...), true
}

// DecodeBlock decodes a raw LZ4 block AppendBlock wrote into exactly
// len(dst) bytes, allocating nothing.
func (lz4) DecodeBlock(dst, src []byte) error { return lz4DecodeInto(dst, src) }

// LZ4Stored frames b as Compress frames an incompressible input, in the
// stored mode: Decompress returns b.
func LZ4Stored(b []byte) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(b))
	out = append(out, lz4Raw)
	out = binary.AppendUvarint(out, uint64(len(b)))
	return append(out, b...)
}

// LZ4StoredPayload returns the bytes a stored-mode frame holds, aliasing
// frame: the inverse of LZ4Stored, without Decompress's copy.
func LZ4StoredPayload(frame []byte) ([]byte, error) {
	if len(frame) == 0 || frame[0] != lz4Raw {
		return nil, errors.New("lz4: not a stored-mode frame")
	}
	size, n := binary.Uvarint(frame[1:])
	if n <= 0 || size != uint64(len(frame)-1-n) {
		return nil, errors.New("lz4: stored-mode size header disagrees with the frame")
	}
	return frame[1+n:], nil
}

func lz4Hash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lz4HashLog)
}

func le32(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b)
}

// lz4Encoder is one compression's scratch: the match finder's hash table and
// the block being written. Encoders are pooled, so Compress allocates only
// its output.
type lz4Encoder struct {
	// table[h] is base plus the last position hashed to h. An entry below
	// base was written by an earlier call and reads as empty, so the table
	// is cleared only when base would overflow.
	table [1 << lz4HashLog]int32
	base  int32
	block []byte
}

var lz4Encoders = sync.Pool{New: func() any { return &lz4Encoder{base: 1} }}

// compressBlock encodes src as a raw LZ4 block into the encoder's scratch,
// valid until its next call. It returns nil when src is too short to contain
// any match, or has none, signalling the caller to store raw.
func (e *lz4Encoder) compressBlock(src []byte) []byte {
	if len(src) < lz4MFLimit+lz4MinMatch {
		return nil
	}
	if int64(e.base)+int64(len(src)) > math.MaxInt32 {
		clear(e.table[:])
		e.base = 1
	}
	base := int(e.base)
	e.base += int32(len(src))
	if bound := lz4CompressBound(len(src)); cap(e.block) < bound {
		e.block = make([]byte, 0, bound)
	}
	dst := e.block[:0]
	anchor := 0
	i := 0
	limit := len(src) - lz4MFLimit
	for i <= limit {
		cur := le32(src[i:])
		h := lz4Hash(cur)
		ref := int(e.table[h]) - base
		e.table[h] = int32(base + i)
		if ref < 0 || i-ref > lz4MaxOffset || le32(src[ref:]) != cur {
			i++
			continue
		}
		// Extend the match forward, leaving the final literals intact:
		// eight bytes a compare, then byte by byte.
		matchLen := lz4MinMatch
		maxLen := len(src) - lz4LastLits - i
		for matchLen+8 <= maxLen {
			if x := binary.LittleEndian.Uint64(src[i+matchLen:]) ^ binary.LittleEndian.Uint64(src[ref+matchLen:]); x != 0 {
				matchLen += bits.TrailingZeros64(x) / 8
				break
			}
			matchLen += 8
		}
		for matchLen < maxLen && src[ref+matchLen] == src[i+matchLen] {
			matchLen++
		}
		dst = lz4EmitSequence(dst, src[anchor:i], i-ref, matchLen)
		i += matchLen
		anchor = i
	}
	if anchor == 0 {
		return nil // no matches at all; raw storage is cheaper
	}
	return lz4EmitLiterals(dst, src[anchor:])
}

// lz4EmitSequence appends one literal run + match to dst.
func lz4EmitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	mlToken := matchLen - lz4MinMatch

	token := byte(0)
	if litLen >= lz4TokenLits {
		token = lz4TokenLits << 4
	} else {
		token = byte(litLen) << 4
	}
	if mlToken >= lz4TokenMatch {
		token |= lz4TokenMatch
	} else {
		token |= byte(mlToken)
	}
	dst = append(dst, token)
	if litLen >= lz4TokenLits {
		dst = lz4AppendExtLen(dst, litLen-lz4TokenLits)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if mlToken >= lz4TokenMatch {
		dst = lz4AppendExtLen(dst, mlToken-lz4TokenMatch)
	}
	return dst
}

// lz4EmitLiterals appends the trailing literal-only sequence.
func lz4EmitLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= lz4TokenLits {
		dst = append(dst, lz4TokenLits<<4)
		dst = lz4AppendExtLen(dst, litLen-lz4TokenLits)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func lz4AppendExtLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

var errLZ4Corrupt = errors.New("lz4: corrupt block")

// lz4DecompressBlock decodes a raw LZ4 block into exactly size bytes.
func lz4DecompressBlock(src []byte, size int) ([]byte, error) {
	dst := make([]byte, size)
	if err := lz4DecodeInto(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// lz4DecodeInto decodes a raw LZ4 block into exactly len(dst) bytes. It
// writes into dst by index: a literal run, or a match at least as far back
// as it is long, is one copy; a closer match repeats its period with copies
// that double each time.
func lz4DecodeInto(dst, src []byte) error {
	size := len(dst)
	d, s := 0, 0
	for s < len(src) {
		token := src[s]
		s++
		// Literals.
		litLen := int(token >> 4)
		if litLen == lz4TokenLits {
			n, ns, err := lz4ReadExtLen(src, s)
			if err != nil {
				return err
			}
			litLen += n
			s = ns
		}
		if litLen > len(src)-s {
			return errLZ4Corrupt
		}
		if litLen > size-d {
			return lz4Overrun(size)
		}
		if litLen > 0 { // most sequences of a mask chunk carry none
			d += copy(dst[d:], src[s:s+litLen])
			s += litLen
		}
		if s == len(src) {
			break // final literal-only sequence
		}
		// Match.
		if len(src)-s < 2 {
			return errLZ4Corrupt
		}
		offset := int(src[s]) | int(src[s+1])<<8
		s += 2
		if offset == 0 || offset > d {
			return errLZ4Corrupt
		}
		matchLen := int(token & 0x0F)
		if matchLen == lz4TokenMatch {
			n, ns, err := lz4ReadExtLen(src, s)
			if err != nil {
				return err
			}
			matchLen += n
			s = ns
		}
		matchLen += lz4MinMatch
		if matchLen > size-d {
			return lz4Overrun(size)
		}
		if offset >= matchLen {
			d += copy(dst[d:d+matchLen], dst[d-offset:])
			continue
		}
		// dst[d-offset:d] holds a whole number of periods, so copying it
		// on continues the period.
		start, end := d-offset, d+matchLen
		for d < end {
			d += copy(dst[d:end], dst[start:d])
		}
	}
	if d != size {
		return fmt.Errorf("lz4: decoded %d bytes, header said %d", d, size)
	}
	return nil
}

func lz4Overrun(size int) error {
	return fmt.Errorf("lz4: decoded past the header's %d bytes", size)
}

func lz4ReadExtLen(src []byte, s int) (n, next int, err error) {
	for {
		if s >= len(src) {
			return 0, 0, errLZ4Corrupt
		}
		b := src[s]
		s++
		n += int(b)
		if b != 255 {
			return n, s, nil
		}
	}
}

func init() {
	Register(lz4{})
}
