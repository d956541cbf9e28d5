package storage

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// ErrCorrupted marks an object whose bytes failed CRC32C verification
// against its recorded digest. IsCorrupted separates silent data corruption
// (a flipped bit, a truncated transfer, a poisoned cache) from missing keys
// and transport failures.
var ErrCorrupted = errors.New("storage: object corrupted (checksum mismatch)")

// IsCorrupted reports whether err indicates a failed integrity check.
func IsCorrupted(err error) bool { return errors.Is(err, ErrCorrupted) }

// castagnoli is the CRC32C table shared by all storage-level digests.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) digest of data — the digest
// recorded per stored object by Verify and in per-tensor chunk manifests.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// VerifyOptions tunes a Verify wrapper.
type VerifyOptions struct {
	// HealAttempts bounds how many extra fetches a single Get spends trying
	// to obtain bytes that match the recorded digest before giving up with a
	// transient ErrCorrupted. Zero means DefaultHealAttempts.
	HealAttempts int
	// QuarantineAfter is the number of operations that may exhaust their
	// heal attempts on a key before the key is quarantined: further reads
	// fail fast (permanently, without touching the origin) until a Put
	// replaces the object. Zero means DefaultQuarantineAfter; negative
	// disables quarantining.
	QuarantineAfter int
}

// Default Verify tuning.
const (
	DefaultHealAttempts    = 3
	DefaultQuarantineAfter = 3
)

// VerifyStats is a point-in-time copy of a Verify wrapper's counters.
type VerifyStats struct {
	// Verified counts reads checked against a recorded digest and found
	// intact on the first fetch.
	Verified int64
	// Unverified counts reads of keys with no recorded digest (legacy
	// objects), which pass through unchecked.
	Unverified int64
	// Detected counts digest mismatches observed (every corrupted fetch,
	// including failed heal attempts).
	Detected int64
	// Repaired counts detected mismatches that were resolved by a re-fetch
	// returning verified bytes.
	Repaired int64
	// Quarantined counts keys put into quarantine after repeated mismatches.
	Quarantined int64
}

// Verify wraps a provider with CRC32C verify-on-read and self-healing
// re-fetch. It keeps an in-memory registry of expected digests — recorded on
// every Put and seedable from a persisted manifest via SeedDigest — and
// checks whole-object Get/GetRanges results against it. See the package doc
// ("Integrity") for where Verify sits in the chain and why a mismatch is
// classified transient.
//
// On a mismatch the wrapper re-fetches from the inner chain (whose Retry
// layer shields the re-fetch from ordinary transient faults) up to
// HealAttempts times; bytes that verify are returned as if nothing happened
// and the repair is counted. A key that keeps failing is quarantined after
// QuarantineAfter exhausted operations: further reads fail fast with a
// permanent error instead of hammering the origin for bytes known to be bad.
// The terminal mismatch error is marked Transient *and* wraps ErrCorrupted,
// so a caller's own retry loop may try again later while IsCorrupted still
// classifies the failure.
//
// Reads of keys with no recorded digest pass through unchecked and are
// counted as Unverified, so pre-checksum datasets keep working and the gap
// is visible in stats.
type Verify struct {
	passthrough
	opts VerifyOptions

	mu          sync.Mutex
	digests     map[string]uint32
	strikes     map[string]int
	quarantined map[string]bool

	verified    atomic.Int64
	unverified  atomic.Int64
	detected    atomic.Int64
	repaired    atomic.Int64
	quarantines atomic.Int64
}

// NewVerify wraps inner with digest verification.
func NewVerify(inner Provider, opts VerifyOptions) *Verify {
	if opts.HealAttempts <= 0 {
		opts.HealAttempts = DefaultHealAttempts
	}
	if opts.QuarantineAfter == 0 {
		opts.QuarantineAfter = DefaultQuarantineAfter
	}
	return &Verify{
		passthrough: passthrough{inner},
		opts:        opts,
		digests:     make(map[string]uint32),
		strikes:     make(map[string]int),
		quarantined: make(map[string]bool),
	}
}

// Stats reports the wrapper's counters.
func (v *Verify) Stats() VerifyStats {
	return VerifyStats{
		Verified:    v.verified.Load(),
		Unverified:  v.unverified.Load(),
		Detected:    v.detected.Load(),
		Repaired:    v.repaired.Load(),
		Quarantined: v.quarantines.Load(),
	}
}

// SeedDigest registers the expected CRC32C digest for key, typically from a
// persisted manifest (per-tensor chunk checksums) when a dataset is opened.
func (v *Verify) SeedDigest(key string, crc uint32) {
	v.mu.Lock()
	v.digests[key] = crc
	v.mu.Unlock()
}

// Digest returns the recorded digest for key, if any.
func (v *Verify) Digest(key string) (uint32, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	crc, ok := v.digests[key]
	return crc, ok
}

// Quarantined reports whether key is currently quarantined.
func (v *Verify) Quarantined(key string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.quarantined[key]
}

// expect returns the recorded digest for key and whether the key is
// quarantined.
func (v *Verify) expect(key string) (crc uint32, known, quarantined bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	crc, known = v.digests[key]
	return crc, known, v.quarantined[key]
}

// record notes a Put (or repaired write) of data under key: the digest is
// replaced and any quarantine lifted — new bytes get a clean slate.
func (v *Verify) record(key string, crc uint32) {
	v.mu.Lock()
	v.digests[key] = crc
	delete(v.strikes, key)
	delete(v.quarantined, key)
	v.mu.Unlock()
}

// clearStrikes resets the failure streak for key after a verified read.
func (v *Verify) clearStrikes(key string) {
	v.mu.Lock()
	delete(v.strikes, key)
	v.mu.Unlock()
}

// strike records one operation that exhausted its heal attempts on key and
// reports whether the key just crossed into quarantine.
func (v *Verify) strike(key string) bool {
	if v.opts.QuarantineAfter < 0 {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.strikes[key]++
	if v.strikes[key] >= v.opts.QuarantineAfter && !v.quarantined[key] {
		v.quarantined[key] = true
		v.quarantines.Add(1)
		return true
	}
	return false
}

func (v *Verify) quarantineErr(key string) error {
	return fmt.Errorf("storage: %q is quarantined after repeated checksum mismatches (replace the object to clear): %w", key, ErrCorrupted)
}

// checkAndHeal verifies data for key against want, re-fetching from the
// inner chain until the bytes verify or the heal budget runs out. It is the
// single verification path for whole-object reads; the terminal error is
// Transient (an upper retry layer may legitimately try again — the origin
// copy could be rewritten meanwhile) and wraps ErrCorrupted.
func (v *Verify) checkAndHeal(ctx context.Context, key string, want uint32, data []byte) ([]byte, error) {
	if Checksum(data) == want {
		v.verified.Add(1)
		v.clearStrikes(key)
		return data, nil
	}
	mismatches := int64(1)
	v.detected.Add(1)
	for attempt := 0; attempt < v.opts.HealAttempts; attempt++ {
		fresh, err := v.inner.Get(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("storage: re-fetch of corrupted %q failed: %w", key, err)
		}
		if Checksum(fresh) == want {
			v.repaired.Add(mismatches)
			v.clearStrikes(key)
			return fresh, nil
		}
		mismatches++
		v.detected.Add(1)
	}
	v.strike(key)
	return nil, Transient(fmt.Errorf("storage: %q failed CRC32C verification after %d fetches: %w",
		key, v.opts.HealAttempts+1, ErrCorrupted))
}

// Get implements Provider: fetch, verify against the recorded digest, heal
// on mismatch.
func (v *Verify) Get(ctx context.Context, key string) ([]byte, error) {
	want, known, quarantined := v.expect(key)
	if quarantined {
		return nil, v.quarantineErr(key)
	}
	data, err := v.inner.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	if !known {
		v.unverified.Add(1)
		return data, nil
	}
	return v.checkAndHeal(ctx, key, want, data)
}

// GetRanges implements BatchProvider. Whole-object results are verified
// against recorded digests; a corrupted entry is healed individually with a
// re-fetch, so one flipped bit in a coalesced batch costs one extra request
// for that object, not a re-issue of the whole plan. Sub-object ranges
// cannot be checked against a whole-object digest and pass through (the
// chunk-level footer above catches what slips past).
func (v *Verify) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	for _, r := range reqs {
		if v.Quarantined(r.Key) {
			return make([][]byte, len(reqs)), v.quarantineErr(r.Key)
		}
	}
	out, err := GetRanges(ctx, v.inner, reqs)
	if err != nil {
		return out, err
	}
	for i, r := range reqs {
		if !r.whole() || out[i] == nil {
			continue
		}
		want, known, _ := v.expect(r.Key)
		if !known {
			v.unverified.Add(1)
			continue
		}
		healed, herr := v.checkAndHeal(ctx, r.Key, want, out[i])
		if herr != nil {
			return out, herr
		}
		out[i] = healed
	}
	return out, nil
}

// GetRange implements Provider. Sub-object ranges cannot be verified against
// a whole-object digest, but quarantined keys still fail fast.
func (v *Verify) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if v.Quarantined(key) {
		return nil, v.quarantineErr(key)
	}
	return v.inner.GetRange(ctx, key, offset, length)
}

// Put implements Provider: the stored bytes' digest is recorded and any
// quarantine on the key lifted.
func (v *Verify) Put(ctx context.Context, key string, data []byte) error {
	crc := Checksum(data)
	if err := v.inner.Put(ctx, key, data); err != nil {
		return err
	}
	v.record(key, crc)
	return nil
}

// Delete implements Provider and forgets the key's digest.
func (v *Verify) Delete(ctx context.Context, key string) error {
	if err := v.inner.Delete(ctx, key); err != nil {
		return err
	}
	v.mu.Lock()
	delete(v.digests, key)
	delete(v.strikes, key)
	delete(v.quarantined, key)
	v.mu.Unlock()
	return nil
}

// SeedDigests walks the provider chain from p and registers the given
// digests with every layer that accepts them — one with a
// SeedDigest(key, crc) method: Verify and Disk — returning how many were
// seeded (zero when the chain has no such layer — integrity verification is
// optional). Disk tiers need the digests too: their warm-start population
// was written by a previous process, so reads from it are verified against
// the dataset's checksum manifests, not against anything recorded in this
// process's lifetime. The walk stops at a Prefix wrapper, whose key
// rewriting would invalidate the digest keys.
func SeedDigests(p Provider, digests map[string]uint32) int {
	seeded := 0
	walkChain(p, func(p Provider) bool {
		if s, ok := p.(interface{ SeedDigest(key string, crc uint32) }); ok {
			for key, crc := range digests {
				s.SeedDigest(key, crc)
			}
			seeded = len(digests)
		}
		_, isPrefix := p.(*Prefix)
		return !isPrefix
	})
	return seeded
}

// Evict drops key from every cache layer in the provider chain rooted at p
// that can purge a single entry — one with an Evict(key) method: LRU.
// Readers that detect corruption above the cache (the chunk footer check)
// use it to purge the poisoned entry before re-fetching, so the heal does
// not simply re-read the bad cached bytes. Like SeedDigests, the walk stops
// at a Prefix wrapper.
func Evict(p Provider, key string) {
	walkChain(p, func(p Provider) bool {
		if e, ok := p.(interface{ Evict(key string) }); ok {
			e.Evict(key)
		}
		_, isPrefix := p.(*Prefix)
		return !isPrefix
	})
}
