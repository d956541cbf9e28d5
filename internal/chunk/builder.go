package chunk

import "fmt"

// Bounds configures the chunk sizing policy (§3.4): a chunk may close once
// its payload reaches Min bytes and must not grow past Max bytes; Target is
// the preferred size reported in metadata and used by re-chunking.
type Bounds struct {
	Min, Target, Max int
}

// DefaultBounds returns the paper's 8MB default policy.
func DefaultBounds() Bounds {
	return Bounds{Min: DefaultMinBytes, Target: DefaultTargetBytes, Max: DefaultMaxBytes}
}

// Validate checks the invariants 0 < Min <= Target <= Max.
func (b Bounds) Validate() error {
	if b.Min <= 0 || b.Min > b.Target || b.Target > b.Max {
		return fmt.Errorf("chunk: invalid bounds min=%d target=%d max=%d", b.Min, b.Target, b.Max)
	}
	return nil
}

// Builder accumulates samples into one chunk under a Bounds policy, and
// encodes it with a block codec.
type Builder struct {
	bounds  Bounds
	codec   Codec
	samples []Sample
	bytes   int
}

// NewBuilder returns an empty builder. Invalid bounds fall back to defaults.
func NewBuilder(bounds Bounds, codec Codec) *Builder {
	if bounds.Validate() != nil {
		bounds = DefaultBounds()
	}
	return &Builder{bounds: bounds, codec: codec}
}

// Bounds returns the configured sizing policy.
func (b *Builder) Bounds() Bounds { return b.bounds }

// Len returns the number of buffered samples.
func (b *Builder) Len() int { return len(b.samples) }

// PayloadBytes returns the buffered payload size.
func (b *Builder) PayloadBytes() int { return b.bytes }

// Samples returns the buffered samples. The slice is the builder's own and
// read-only: Flush reuses it, so a caller copies what it keeps.
func (b *Builder) Samples() []Sample { return b.samples }

// Set replaces buffered sample i with s, whatever its size: an update may
// take the chunk past Max.
func (b *Builder) Set(i int, s Sample) {
	b.bytes += len(s.Data) - len(b.samples[i].Data)
	b.samples[i] = s
}

// NeedsTiling reports whether a sample of n payload bytes can never fit in
// one chunk and must be tiled (§3.4), except for videos which are exempt.
func (b *Builder) NeedsTiling(n int) bool { return n > b.bounds.Max }

// ShouldFlushBefore reports whether the builder should be flushed before
// appending a sample of n bytes: the chunk already holds data and adding the
// sample would exceed the upper bound, or the chunk already reached its
// target size.
func (b *Builder) ShouldFlushBefore(n int) bool {
	if len(b.samples) == 0 {
		return false
	}
	if b.bytes >= b.bounds.Target {
		return true
	}
	return b.bytes+n > b.bounds.Max
}

// Append buffers one sample. Callers must consult ShouldFlushBefore and
// NeedsTiling first; Append rejects samples that violate the upper bound on
// a non-empty builder.
func (b *Builder) Append(s Sample) error {
	if len(b.samples) > 0 && b.bytes+len(s.Data) > b.bounds.Max {
		return fmt.Errorf("chunk: appending %d bytes would exceed upper bound %d (have %d)", len(s.Data), b.bounds.Max, b.bytes)
	}
	b.samples = append(b.samples, s)
	b.bytes += len(s.Data)
	return nil
}

// Flush encodes the buffered samples into a chunk blob and resets the
// builder. It returns the blob and the number of samples it holds; flushing
// an empty builder returns (nil, 0, nil).
func (b *Builder) Flush() ([]byte, int, error) {
	if len(b.samples) == 0 {
		return nil, 0, nil
	}
	blob, err := b.codec.Encode(b.samples)
	if err != nil {
		return nil, 0, err
	}
	n := len(b.samples)
	b.samples = b.samples[:0]
	b.bytes = 0
	return blob, n, nil
}
