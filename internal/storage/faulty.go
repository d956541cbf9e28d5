package storage

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
)

// Fault op classes: each class draws from its own deterministic schedule, so
// a run's fault pattern depends only on (Seed, per-class operation sequence),
// not on how goroutines interleave reads with writes or metadata calls.
const (
	faultClassGet = iota
	faultClassRange
	faultClassPut
	faultClassMeta  // Exists, Size, List, Delete
	faultClassBatch // GetRanges
	faultClasses
)

var faultClassName = [faultClasses]string{"get", "getrange", "put", "meta", "getranges"}

// FaultConfig describes a reproducible fault schedule for a Faulty provider.
// All rates are probabilities in [0, 1]; outcomes are decided by hashing
// (Seed, op class, per-class sequence number), so the same config over the
// same per-class operation sequence injects exactly the same faults —
// regardless of goroutine interleaving across classes.
type FaultConfig struct {
	// Seed drives the deterministic schedule.
	Seed int64
	// GetErrRate / RangeErrRate / PutErrRate / MetaErrRate are per-op-class
	// probabilities of failing with a transient error (IsRetryable = true)
	// before the inner provider is touched.
	GetErrRate, RangeErrRate, PutErrRate, MetaErrRate float64
	// StallRate is the probability (any class) that an operation
	// black-holes: it blocks until the operation's context is done and
	// returns the context error, the way a dead TCP peer looks to an SDK
	// with no socket timeout. Pair with Retry's OpTimeout.
	StallRate float64
	// PartialRate is the probability that a Get delivers only a prefix:
	// PartialBytes are actually read through the inner provider (charging
	// any simulated network underneath for the wasted transfer) and then
	// the call fails with a transient error.
	PartialRate float64
	// PartialBytes is the prefix length of a partial read. Zero means 1KB.
	PartialBytes int64
	// CorruptRate is the probability that a Get (or one range of a batched
	// GetRanges) *succeeds* with silently corrupted bytes: the object is
	// genuinely fetched through the inner provider, then one seeded byte is
	// flipped. Unlike the error-kind faults this failure is invisible to the
	// transport — only a digest check (Verify) or a chunk's block table
	// catches it.
	CorruptRate float64
	// TruncateRate is the probability that a Get (or one range of a batched
	// GetRanges) *succeeds* with the payload cut short at a seeded point —
	// the silent-truncation cousin of CorruptRate.
	TruncateRate float64
	// MaxFaults caps the total number of injected faults; once reached the
	// provider becomes transparent. Zero means unlimited. A cap of 1 with
	// GetErrRate 1 injects exactly one fault on the first Get — the
	// singleflight-retry litmus configuration.
	MaxFaults int64
}

// FaultStats is a point-in-time copy of a Faulty wrapper's counters.
type FaultStats struct {
	// Errors, Stalls and Partials count injected faults by kind.
	Errors, Stalls, Partials int64
	// Corruptions and Truncations count reads that succeeded with silently
	// damaged bytes (bit flip / short payload).
	Corruptions, Truncations int64
}

// Total is the number of faults injected so far.
func (s FaultStats) Total() int64 {
	return s.Errors + s.Stalls + s.Partials + s.Corruptions + s.Truncations
}

// Faulty wraps a provider with deterministic fault injection for chaos
// testing: per-op-class transient error rates, stalls that black-hole until
// the context deadline, fail-after-N-bytes partial reads, and silent
// bit-flip/truncation faults that succeed with damaged bytes (CorruptRate /
// TruncateRate — the faults only a Verify layer or a chunk's block table
// catches).
// Injected errors carry ErrTransient, so a Retry layer stacked above
// recovers them while tests without one observe the raw failure. Typically Faulty wraps a
// Sim provider, making the flaky endpoint also pay simulated network costs.
//
// The schedule is seeded and reproducible (see FaultConfig); SetArmed(false)
// makes the wrapper transparent without consuming schedule positions, so a
// test can open a dataset cleanly and arm faults only for the phase under
// study.
type Faulty struct {
	passthrough
	cfg FaultConfig

	armed       atomic.Bool
	seq         [faultClasses]atomic.Int64
	injected    atomic.Int64
	errors      atomic.Int64
	stalls      atomic.Int64
	partials    atomic.Int64
	corruptions atomic.Int64
	truncations atomic.Int64
}

// NewFaulty wraps inner with the given fault schedule, armed.
func NewFaulty(inner Provider, cfg FaultConfig) *Faulty {
	if cfg.PartialBytes <= 0 {
		cfg.PartialBytes = 1 << 10
	}
	f := &Faulty{passthrough: passthrough{inner}, cfg: cfg}
	f.armed.Store(true)
	return f
}

// SetArmed enables or disables fault injection. While disarmed, operations
// pass straight through and do not advance the fault schedule.
func (f *Faulty) SetArmed(on bool) { f.armed.Store(on) }

// Stats reports how many faults have been injected, by kind.
func (f *Faulty) Stats() FaultStats {
	return FaultStats{
		Errors:      f.errors.Load(),
		Stalls:      f.stalls.Load(),
		Partials:    f.partials.Load(),
		Corruptions: f.corruptions.Load(),
		Truncations: f.truncations.Load(),
	}
}

type faultKind int

const (
	faultNone faultKind = iota
	faultStall
	faultErr
	faultPartial
	faultCorrupt
	faultTruncate
)

// roll decides the outcome for the next operation of the given class.
func (f *Faulty) roll(class int, errRate float64) faultKind {
	kind, _ := f.rollSeq(class, errRate)
	return kind
}

// rollSeq is roll plus the operation's position in its class schedule, which
// seeds per-operation decisions beyond the fault kind (the batch cut point).
func (f *Faulty) rollSeq(class int, errRate float64) (faultKind, int64) {
	if !f.armed.Load() {
		return faultNone, 0
	}
	n := f.seq[class].Add(1)
	h := splitmix64(uint64(f.cfg.Seed)<<20 ^ uint64(class)<<56 ^ uint64(n))
	u := float64(h>>11) / (1 << 53)
	kind := faultNone
	// The corruption kinds extend the threshold ladder past the existing
	// kinds, so configs that predate them draw exactly the same schedule.
	partialClass := class == faultClassGet || class == faultClassBatch
	switch {
	case u < f.cfg.StallRate:
		kind = faultStall
	case u < f.cfg.StallRate+errRate:
		kind = faultErr
	case partialClass && u < f.cfg.StallRate+errRate+f.cfg.PartialRate:
		kind = faultPartial
	case partialClass && u < f.cfg.StallRate+errRate+f.cfg.PartialRate+f.cfg.CorruptRate:
		kind = faultCorrupt
	case partialClass && u < f.cfg.StallRate+errRate+f.cfg.PartialRate+f.cfg.CorruptRate+f.cfg.TruncateRate:
		kind = faultTruncate
	}
	if kind == faultNone {
		return faultNone, n
	}
	if f.cfg.MaxFaults > 0 && f.injected.Add(1) > f.cfg.MaxFaults {
		return faultNone, n
	} else if f.cfg.MaxFaults <= 0 {
		f.injected.Add(1)
	}
	switch kind {
	case faultStall:
		f.stalls.Add(1)
	case faultErr:
		f.errors.Add(1)
	case faultPartial:
		f.partials.Add(1)
	case faultCorrupt:
		f.corruptions.Add(1)
	case faultTruncate:
		f.truncations.Add(1)
	}
	return kind, n
}

// damage applies the seeded silent fault to data fetched successfully from
// the inner provider: faultCorrupt XORs one byte at a seeded position,
// faultTruncate cuts the payload at a seeded point. Empty payloads are
// returned unchanged (there is nothing to damage). The flip lands in a copy:
// the inner provider's bytes are read-only (see Provider).
func (f *Faulty) damage(kind faultKind, seq int64, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	h := splitmix64(uint64(f.cfg.Seed)<<28 ^ uint64(seq))
	switch kind {
	case faultCorrupt:
		data = slices.Clone(data)
		data[h%uint64(len(data))] ^= 0xA5
	case faultTruncate:
		data = data[:h%uint64(len(data))] // cut in [0, len)
	}
	return data
}

// stall blocks until ctx is done and returns its error: the black-hole
// failure mode. A context with no deadline or cancellation hangs forever,
// exactly like an SDK with no socket timeout — stack Retry with OpTimeout
// (or give the caller a deadline) when stalls are enabled.
func (f *Faulty) stall(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

func (f *Faulty) injectedErr(class int, key string) error {
	return fmt.Errorf("storage: injected %s fault on %q: %w", faultClassName[class], key, ErrTransient)
}

// Get implements Provider.
func (f *Faulty) Get(ctx context.Context, key string) ([]byte, error) {
	kind, seq := f.rollSeq(faultClassGet, f.cfg.GetErrRate)
	switch kind {
	case faultStall:
		return nil, f.stall(ctx)
	case faultErr:
		return nil, f.injectedErr(faultClassGet, key)
	case faultPartial:
		// The prefix really transfers (and really costs simulated network
		// time below), then the connection "drops".
		_, _ = f.inner.GetRange(ctx, key, 0, f.cfg.PartialBytes)
		return nil, fmt.Errorf("storage: injected partial read of %q after %d bytes: %w",
			key, f.cfg.PartialBytes, ErrTransient)
	case faultCorrupt, faultTruncate:
		// A silent fault: the full object genuinely transfers (charging any
		// simulated network below), then the bytes are damaged on the way up
		// and the call *succeeds* — only an integrity check can tell.
		data, err := f.inner.Get(ctx, key)
		if err != nil {
			return data, err
		}
		return f.damage(kind, seq, data), nil
	}
	return f.inner.Get(ctx, key)
}

// GetRanges implements BatchProvider. Batched gets draw from their own
// fault-class schedule (seeded, per-class sequence — reproducible for a
// fixed config regardless of interleaving) using the Get rates: GetErrRate
// for connection drops, StallRate for black holes, PartialRate for
// mid-transfer cuts. A fault lands mid-batch at a deterministic cut point:
// ranges before the cut are genuinely served through the inner provider
// (siblings already received are never poisoned — the partial-results
// contract holds through the fault), the cut range and everything after are
// lost, and the call fails transiently so a Retry layer re-issues only the
// missing tail.
func (f *Faulty) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	kind, seq := f.rollSeq(faultClassBatch, f.cfg.GetErrRate)
	switch kind {
	case faultStall:
		return make([][]byte, len(reqs)), f.stall(ctx)
	case faultCorrupt, faultTruncate:
		// The whole batch genuinely serves, then one seeded victim range is
		// silently damaged; the call succeeds, its siblings are untouched.
		out, err := GetRanges(ctx, f.inner, reqs)
		if err != nil {
			return out, err
		}
		victim := int(splitmix64(uint64(f.cfg.Seed)<<24^uint64(seq)) % uint64(len(reqs)))
		out[victim] = f.damage(kind, seq, out[victim])
		return out, nil
	case faultErr, faultPartial:
		// Deterministic cut: depends only on (Seed, class sequence), so the
		// same config over the same batch sequence cuts at the same points.
		cut := int(splitmix64(uint64(f.cfg.Seed)<<24^uint64(seq)) % uint64(len(reqs)))
		out := make([][]byte, len(reqs))
		if cut > 0 {
			served, err := GetRanges(ctx, f.inner, reqs[:cut])
			copy(out, served)
			if err != nil {
				return out, err
			}
		}
		if kind == faultPartial {
			// The victim range's prefix really transfers (charging any
			// simulated network below for the wasted bytes) before the drop.
			victim := reqs[cut]
			_, _ = f.inner.GetRange(ctx, victim.Key, victim.Offset, f.cfg.PartialBytes)
			return out, fmt.Errorf("storage: injected partial batch read of %q after %d/%d ranges: %w",
				victim.Key, cut, len(reqs), ErrTransient)
		}
		return out, fmt.Errorf("storage: injected %s fault after %d/%d ranges: %w",
			faultClassName[faultClassBatch], cut, len(reqs), ErrTransient)
	}
	return GetRanges(ctx, f.inner, reqs)
}

// GetRange implements Provider.
func (f *Faulty) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	switch f.roll(faultClassRange, f.cfg.RangeErrRate) {
	case faultStall:
		return nil, f.stall(ctx)
	case faultErr:
		return nil, f.injectedErr(faultClassRange, key)
	}
	return f.inner.GetRange(ctx, key, offset, length)
}

// Put implements Provider.
func (f *Faulty) Put(ctx context.Context, key string, data []byte) error {
	switch f.roll(faultClassPut, f.cfg.PutErrRate) {
	case faultStall:
		return f.stall(ctx)
	case faultErr:
		return f.injectedErr(faultClassPut, key)
	}
	return f.inner.Put(ctx, key, data)
}

// Delete implements Provider.
func (f *Faulty) Delete(ctx context.Context, key string) error {
	switch f.roll(faultClassMeta, f.cfg.MetaErrRate) {
	case faultStall:
		return f.stall(ctx)
	case faultErr:
		return f.injectedErr(faultClassMeta, key)
	}
	return f.inner.Delete(ctx, key)
}

// Exists implements Provider.
func (f *Faulty) Exists(ctx context.Context, key string) (bool, error) {
	switch f.roll(faultClassMeta, f.cfg.MetaErrRate) {
	case faultStall:
		return false, f.stall(ctx)
	case faultErr:
		return false, f.injectedErr(faultClassMeta, key)
	}
	return f.inner.Exists(ctx, key)
}

// List implements Provider.
func (f *Faulty) List(ctx context.Context, prefix string) ([]string, error) {
	switch f.roll(faultClassMeta, f.cfg.MetaErrRate) {
	case faultStall:
		return nil, f.stall(ctx)
	case faultErr:
		return nil, f.injectedErr(faultClassMeta, prefix)
	}
	return f.inner.List(ctx, prefix)
}

// Size implements Provider.
func (f *Faulty) Size(ctx context.Context, key string) (int64, error) {
	switch f.roll(faultClassMeta, f.cfg.MetaErrRate) {
	case faultStall:
		return 0, f.stall(ctx)
	case faultErr:
		return 0, f.injectedErr(faultClassMeta, key)
	}
	return f.inner.Size(ctx, key)
}
