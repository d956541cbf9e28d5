// Package compress provides the compression substrate for the Tensor Storage
// Format. The paper uses two distinct notions of compression (§5):
//
//   - chunk compression: a byte codec applied to a chunk's data (the
//     paper's example stores class_label chunks with LZ4); the chunk format
//     compresses each block of a chunk on its own (AppendBlock, DecodeBlock);
//   - sample compression: a per-sample media codec (the paper's example
//     stores image samples as JPEG so raw JPEG files can be copied into
//     chunks without recoding).
//
// This package implements both: byte codecs (a from-scratch LZ4 block codec,
// DEFLATE via the standard library, and the identity codec) and image sample
// codecs (JPEG and PNG over stdlib image packages).
package compress

import (
	"fmt"
	"sort"
	"sync"
)

// Codec compresses and decompresses whole byte blocks. Implementations must
// be safe for concurrent use.
type Codec interface {
	// Name is the identifier recorded in tensor metadata (e.g. "lz4").
	Name() string
	// Compress returns an encoded block that Decompress restores exactly.
	Compress(src []byte) ([]byte, error)
	// Decompress inverts Compress.
	Decompress(src []byte) ([]byte, error)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Codec)
)

// Register makes a codec available by name. It panics on duplicates, which
// indicates a programmer error at init time.
func Register(c Codec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic(fmt.Sprintf("compress: duplicate codec %q", c.Name()))
	}
	registry[c.Name()] = c
}

// ByName returns the codec registered under name. The empty string and
// "none" resolve to the identity codec.
func ByName(name string) (Codec, error) {
	if name == "" {
		name = "none"
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
	return c, nil
}

// Names lists registered codec names in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// none is the identity codec.
type none struct{}

func (none) Name() string { return "none" }

func (none) Compress(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

func (none) Decompress(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// BlockCodec is the unframed block form of a chunk compression codec, for a
// container that records each block's decoded length itself and checks its
// bytes (a chunk's block table). Implementations are safe for concurrent use.
type BlockCodec interface {
	// AppendBlock appends src's encoded block to dst. ok is false, and dst
	// is returned unchanged, when the block would not be shorter than src.
	AppendBlock(dst, src []byte) (out []byte, ok bool)
	// DecodeBlock decodes a block AppendBlock wrote into exactly len(dst)
	// bytes.
	DecodeBlock(dst, src []byte) error
}

// The block codecs.
var (
	LZ4Block     BlockCodec = lz4{}
	DeflateBlock BlockCodec = deflateCodec{}
)

// BlockNamed returns the block codec of chunk compression name: nil, for
// uncompressed blocks, when name is "" or "none". A gzip tensor's blocks
// are DEFLATE's: gzip's container adds nothing to a block its container
// already checks.
func BlockNamed(name string) (BlockCodec, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "lz4":
		return LZ4Block, nil
	case "deflate", "gzip":
		return DeflateBlock, nil
	}
	return nil, fmt.Errorf("compress: no block codec for chunk compression %q", name)
}

func init() {
	Register(none{})
}
