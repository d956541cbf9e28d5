// Package storage defines the pluggable storage-provider abstraction from
// §3.6 of the paper. A Deep Lake dataset is a flat namespace of objects
// (chunks, encoders, metadata files) that can live on object storage, a POSIX
// filesystem, or in memory, and providers can be chained — most importantly
// an LRU cache of a remote store backed by local memory.
//
// # Error classification contract
//
// Two predicates classify provider errors across the whole chain:
//
//   - IsNotFound(err): the key does not exist. Permanent; never retried.
//   - IsRetryable(err): a transient origin failure (marked with ErrTransient
//     or an interface{ Transient() bool }) that a Retry wrapper may safely
//     re-attempt. Context errors and ErrNotFound are never retryable.
//
// A third predicate covers silent corruption:
//
//   - IsCorrupted(err): stored bytes failed a CRC32C check against their
//     recorded digest (see Verify). Distinct from both of the above: the key
//     exists and the transport worked, but the bytes are wrong.
//
// # Writing a layer
//
// A layer embeds passthrough, which carries Unwrap and forwards the seven
// Provider methods to inner, and declares only the methods it intercepts.
// Everything beyond Provider is an explicit per-layer opt-in, never
// inherited: GetRanges (a layer without it is read key by key through its
// Get/GetRange, which is what a layer that keeps per-key state needs; a
// stateless layer forwards the batch with the package-level GetRanges so a
// coalesced plan stays one round trip), SeedDigest(key, crc) (found by
// SeedDigests) and Evict(key) (found by Evict). Inner errors are returned
// unchanged, or wrapped with fmt.Errorf("...: %w", err), so the predicates
// above keep working through the layer: one that flattens an inner error
// into a new string breaks retry classification for everything stacked
// above it. Providers signal a missing key with ErrNotFound (wrapped or
// bare) and mark only genuinely momentary failures transient — never
// validation errors.
//
// # Resilient chain order
//
// The canonical resilient read chain is, outermost first:
//
//	LRU (singleflight + cache) -> Verify -> Retry -> Counting -> Sim/S3 origin
//
// Retry sits below the LRU's singleflight so that when N readers coalesce on
// one miss, a transient origin fault is retried once by the flight leader on
// behalf of all N waiters — one extra origin request total, not N recovery
// storms. Counting placed below Retry observes per-attempt traffic; placed
// above it, logical (net-of-retries) traffic.
//
// # Integrity
//
// Verify sits under the LRU and above Retry: under the LRU so that only
// bytes that passed their digest check are ever admitted to the cache (and
// so a corruption heal, like any miss, runs exactly once for N coalesced
// waiters — the flight leader heals on behalf of all of them); above Retry
// so its own re-fetch of a corrupted object rides the ordinary retry/backoff
// machinery below and is itself shielded from transient faults. A digest
// mismatch that survives the heal budget is reported as an error that is
// both Transient and ErrCorrupted: transient because a re-fetch can
// legitimately return different — correct — bytes (the origin copy may be
// rewritten, the corruption may live in a middlebox), so an upper retry
// layer is allowed to try again; ErrCorrupted so callers and fsck can still
// classify the failure precisely. Keys that keep failing are quarantined and
// fail fast without touching the origin until a Put replaces the object.
package storage

import (
	"context"
	"errors"
	"fmt"
)

// ErrNotFound is returned when a key does not exist in a provider.
var ErrNotFound = errors.New("storage: key not found")

// IsNotFound reports whether err indicates a missing key.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// Provider is the minimal object-store contract the Tensor Storage Format
// needs: whole-object get/put, byte-range get (S3 Range requests power
// sub-chunk streaming, §3.5), existence checks, listing, and delete.
//
// Implementations must be safe for concurrent use.
type Provider interface {
	// Get returns the full object stored under key.
	Get(ctx context.Context, key string) ([]byte, error)
	// GetRange returns length bytes starting at offset. If length is
	// negative, it returns everything from offset to the end. Reads past
	// the end are truncated, mirroring HTTP Range semantics.
	GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error)
	// Put stores data under key, replacing any previous object.
	Put(ctx context.Context, key string, data []byte) error
	// Delete removes key. Deleting a missing key is not an error.
	Delete(ctx context.Context, key string) error
	// Exists reports whether key is present.
	Exists(ctx context.Context, key string) (bool, error)
	// List returns all keys with the given prefix, in lexical order.
	List(ctx context.Context, prefix string) ([]string, error)
	// Size returns the byte length of the object at key.
	Size(ctx context.Context, key string) (int64, error)
}

// passthrough is the forwarding base every layer embeds (see "Writing a
// layer" in the package comment). It deliberately has no GetRanges: a layer
// that keeps per-key state (LRU, Verify, Disk) must see every read, so
// inheriting a batch forward would silently route reads around it.
type passthrough struct{ inner Provider }

// Unwrap returns the wrapped provider, for walkChain.
func (p passthrough) Unwrap() Provider { return p.inner }

func (p passthrough) Get(ctx context.Context, key string) ([]byte, error) {
	return p.inner.Get(ctx, key)
}

func (p passthrough) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	return p.inner.GetRange(ctx, key, offset, length)
}

func (p passthrough) Put(ctx context.Context, key string, data []byte) error {
	return p.inner.Put(ctx, key, data)
}

func (p passthrough) Delete(ctx context.Context, key string) error {
	return p.inner.Delete(ctx, key)
}

func (p passthrough) Exists(ctx context.Context, key string) (bool, error) {
	return p.inner.Exists(ctx, key)
}

func (p passthrough) List(ctx context.Context, prefix string) ([]string, error) {
	return p.inner.List(ctx, prefix)
}

func (p passthrough) Size(ctx context.Context, key string) (int64, error) {
	return p.inner.Size(ctx, key)
}

// walkChain visits p and then each provider below it, following the
// layers' Unwrap methods, until visit returns false or a layer wraps nothing.
func walkChain(p Provider, visit func(Provider) bool) {
	for p != nil && visit(p) {
		u, ok := p.(interface{ Unwrap() Provider })
		if !ok {
			return
		}
		p = u.Unwrap()
	}
}

// clampRange resolves an (offset, length) pair against an object of size n
// using HTTP Range semantics. ok is false when offset is out of bounds.
func clampRange(n int64, offset, length int64) (lo, hi int64, ok bool) {
	if offset < 0 || offset > n {
		return 0, 0, false
	}
	if length < 0 {
		return offset, n, true
	}
	hi = offset + length
	if hi > n {
		hi = n
	}
	return offset, hi, true
}

// rangeErr builds a descriptive out-of-range error.
func rangeErr(key string, offset, length, size int64) error {
	return fmt.Errorf("storage: range [%d, %d+%d) out of bounds for %q (size %d)", offset, offset, length, key, size)
}
