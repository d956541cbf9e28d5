package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// RangeReq names one byte range of one object. Offset 0 with a negative
// Length requests the whole object.
type RangeReq struct {
	// Key is the object key.
	Key string
	// Offset is the first byte wanted.
	Offset int64
	// Length is the byte count; negative means "to the end of the object",
	// mirroring GetRange semantics.
	Length int64
}

// whole reports whether the request covers the full object.
func (r RangeReq) whole() bool { return r.Offset == 0 && r.Length < 0 }

// BatchProvider is the multi-get extension of Provider: one round trip
// serving many ranges. Origins that price by request (S3 and the Sim model)
// implement it so a batch of N ranges costs one request's latency instead of
// N.
//
// Contract: the result slice is parallel to reqs. Requests are served in
// order; on error, every request served before the failure has a non-nil
// entry, the failed request and everything after it are nil, and the error
// is returned alongside the partial results. A fault mid-batch therefore
// never poisons sibling ranges already received. An empty reqs slice returns
// (nil, nil).
type BatchProvider interface {
	GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error)
}

// GetRanges serves a batch of ranges through p: in one call when p
// implements BatchProvider, otherwise by sequential Get/GetRange calls with
// the same partial-results-on-error contract.
func GetRanges(ctx context.Context, p Provider, reqs []RangeReq) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if bp, ok := p.(BatchProvider); ok {
		return bp.GetRanges(ctx, reqs)
	}
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		var (
			data []byte
			err  error
		)
		if r.whole() {
			data, err = p.Get(ctx, r.Key)
		} else {
			data, err = p.GetRange(ctx, r.Key, r.Offset, r.Length)
		}
		if err != nil {
			return out, err
		}
		out[i] = data
	}
	return out, nil
}

// PlanOptions shape how Coalesce turns individual range requests into few
// large origin requests.
type PlanOptions struct {
	// GapTolerance is the largest same-key byte gap bridged by one ranged
	// request: two ranges of the same object whose gap is at most this many
	// bytes merge into one request that over-reads the gap. Zero merges only
	// touching/overlapping ranges; negative disables same-key merging
	// entirely.
	GapTolerance int64
	// MaxRequestBytes caps the estimated payload of one coalesced origin
	// request; a batch closes when adding the next range would exceed it.
	// Zero means DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// SizeHint estimates the payload of a whole-object request (Length < 0)
	// for packing purposes — callers that know their chunk target pass it.
	// Zero means DefaultSizeHint.
	SizeHint int64
}

const (
	// DefaultMaxRequestBytes is the per-request payload cap: 32MB, two of
	// the paper's 16MB ceiling chunks.
	DefaultMaxRequestBytes = 32 << 20
	// DefaultSizeHint is the packing estimate for whole-object requests,
	// the paper's 8MB chunk target.
	DefaultSizeHint = 8 << 20
)

func (o PlanOptions) withDefaults() PlanOptions {
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if o.SizeHint <= 0 {
		o.SizeHint = DefaultSizeHint
	}
	return o
}

// PlanPart maps one original request onto a slice of one wire payload.
type PlanPart struct {
	// Index is the position of the original request in the Coalesce input.
	Index int
	// Offset is where the original range starts inside the wire payload.
	Offset int64
	// Length is the original range's byte count; negative means "to the end
	// of the wire payload".
	Length int64
}

// Plan is one origin round trip: the coalesced wire requests issued
// together through GetRanges, and, per wire request, the parts of the
// original input it satisfies.
type Plan struct {
	// Wire is the ranged requests sent in this round trip.
	Wire []RangeReq
	// Parts is parallel to Wire: Parts[i] lists the original requests
	// served by Wire[i]'s payload.
	Parts [][]PlanPart
}

// Requests counts the wire requests across a set of plans.
func Requests(plans []Plan) int {
	n := 0
	for _, p := range plans {
		n += len(p.Wire)
	}
	return n
}

// Coalesce turns a list of range requests into few large origin round
// trips: same-key ranges within GapTolerance merge into one over-reading
// request, then merged requests pack greedily, in order, into batches whose
// estimated payload stays under MaxRequestBytes. Each returned Plan is one
// GetRanges call — one request's latency for all its wire ranges.
func Coalesce(reqs []RangeReq, opts PlanOptions) []Plan {
	opts = opts.withDefaults()
	if len(reqs) == 0 {
		return nil
	}

	// Phase 1: same-key merging. Requests are grouped by key (keys keep
	// first-appearance order so the visit order the caller planned is
	// preserved), sorted by offset within the key, and merged while the gap
	// fits the tolerance and the merged payload fits one request. A
	// whole-object request subsumes every range of its key.
	type wireReq struct {
		req   RangeReq
		parts []PlanPart
	}
	var merged []wireReq
	if opts.GapTolerance < 0 {
		merged = make([]wireReq, len(reqs))
		for i, r := range reqs {
			merged[i] = wireReq{req: r, parts: []PlanPart{{Index: i, Offset: 0, Length: r.Length}}}
		}
	} else {
		keyOrder := make([]string, 0, len(reqs))
		byKey := make(map[string][]int, len(reqs))
		for i, r := range reqs {
			if _, seen := byKey[r.Key]; !seen {
				keyOrder = append(keyOrder, r.Key)
			}
			byKey[r.Key] = append(byKey[r.Key], i)
		}
		for _, key := range keyOrder {
			idxs := byKey[key]
			sort.SliceStable(idxs, func(a, b int) bool {
				ra, rb := reqs[idxs[a]], reqs[idxs[b]]
				if ra.whole() != rb.whole() {
					return ra.whole() // whole-object first: it subsumes
				}
				return ra.Offset < rb.Offset
			})
			for _, i := range idxs {
				r := reqs[i]
				if n := len(merged); n > 0 && merged[n-1].req.Key == key {
					cur := &merged[n-1]
					if covers, off := mergeInto(&cur.req, r, opts); covers {
						cur.parts = append(cur.parts, PlanPart{Index: i, Offset: off, Length: r.Length})
						continue
					}
				}
				merged = append(merged, wireReq{
					req:   r,
					parts: []PlanPart{{Index: i, Offset: 0, Length: r.Length}},
				})
			}
		}
	}

	// Phase 2: greedy in-order packing into round trips.
	estimate := func(r RangeReq) int64 {
		if r.Length < 0 {
			return opts.SizeHint
		}
		return r.Length
	}
	var plans []Plan
	var cur Plan
	var curBytes int64
	flush := func() {
		if len(cur.Wire) > 0 {
			plans = append(plans, cur)
			cur, curBytes = Plan{}, 0
		}
	}
	for _, w := range merged {
		sz := estimate(w.req)
		if len(cur.Wire) > 0 && curBytes+sz > opts.MaxRequestBytes {
			flush()
		}
		cur.Wire = append(cur.Wire, w.req)
		cur.Parts = append(cur.Parts, w.parts)
		curBytes += sz
	}
	flush()
	return plans
}

// mergeInto extends cur to also cover next when the two ranges of the same
// key touch within the gap tolerance and the merged payload stays under the
// request cap. On success it reports the offset of next's range inside
// cur's merged payload.
func mergeInto(cur *RangeReq, next RangeReq, opts PlanOptions) (bool, int64) {
	if cur.whole() {
		// Whole object covers everything.
		return true, next.Offset
	}
	if next.whole() {
		return false, 0
	}
	if cur.Length < 0 {
		// cur reads to the end: next is covered iff it starts at or after
		// cur's offset (ranges are offset-sorted, so it does).
		if next.Offset >= cur.Offset {
			return true, next.Offset - cur.Offset
		}
		return false, 0
	}
	curEnd := cur.Offset + cur.Length
	if next.Offset > curEnd+opts.GapTolerance {
		return false, 0
	}
	end := curEnd
	if next.Length < 0 {
		cur.Length = -1
		return true, next.Offset - cur.Offset
	}
	if e := next.Offset + next.Length; e > end {
		end = e
	}
	if end-cur.Offset > opts.MaxRequestBytes {
		return false, 0
	}
	cur.Length = end - cur.Offset
	return true, next.Offset - cur.Offset
}

// ExecutePlans runs each plan as one GetRanges round trip against p and
// scatters the wire payloads back into a result slice parallel to the
// original Coalesce input (nReqs entries). The round trips run concurrently
// — Coalesce already sized each one at the payload cap, so sibling plans
// only exist because one request couldn't carry them, and serializing them
// would stack their latencies for nothing. Plans keep executing past a
// failed round trip — a fault in one batch never blocks sibling batches —
// and the first error (in plan order) is returned once all plans ran.
// Entries the failed round trips could not serve stay nil.
func ExecutePlans(ctx context.Context, p Provider, nReqs int, plans []Plan) ([][]byte, error) {
	out := make([][]byte, nReqs)
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for pi, plan := range plans {
		wg.Add(1)
		go func(pi int, plan Plan) {
			defer wg.Done()
			payloads, err := GetRanges(ctx, p, plan.Wire)
			errs[pi] = err
			// Scatter is race-free: each original request index belongs to
			// exactly one plan's parts.
			for wi, parts := range plan.Parts {
				if wi >= len(payloads) || payloads[wi] == nil {
					continue
				}
				payload := payloads[wi]
				for _, pt := range parts {
					if pt.Index < 0 || pt.Index >= nReqs {
						continue
					}
					lo, hi, ok := clampRange(int64(len(payload)), pt.Offset, pt.Length)
					if !ok {
						continue
					}
					out[pt.Index] = payload[lo:hi]
				}
			}
		}(pi, plan)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	return out, firstErr
}

// Prefetcher is the cache-side face of the fetch-plan layer: providers that
// can warm themselves with coalesced batched origin reads implement it. The
// storage LRU does. Prefetch blocks until the bytes land; fetched reports
// how many objects actually came over the wire (cached and already-in-flight
// keys are skipped). PrefetchAsync claims the same keys synchronously — so a
// reader arriving next instant coalesces onto the in-flight batch instead of
// issuing its own round trip — but runs the origin round trips in the
// background, returning how many objects it is fetching. Pipelines that
// overlap fetch with setup use the async form; tests and cache-warming tools
// that need completion use the blocking form.
type Prefetcher interface {
	Prefetch(ctx context.Context, keys []string, opts PlanOptions) (fetched int, err error)
	PrefetchAsync(ctx context.Context, keys []string, opts PlanOptions) (claimed int)
}

// errPrefetchShed marks a key a coalesced prefetch could not serve (its
// round trip failed before reaching it). Readers coalesced onto the
// prefetch flight recover by issuing their own fetch instead of inheriting
// the batch's failure.
var errPrefetchShed = errors.New("storage: prefetch batch did not reach this key")

// Prefetch warms the cache for the given keys using coalesced batched
// origin requests: cached keys are skipped, keys already being fetched by
// another caller are skipped (their flight serves any waiter), and the rest
// are planned with Coalesce and fetched via GetRanges — N cold chunks cost
// ≪N origin round trips on a batch-aware origin. Fetched objects are
// admitted per-key, so cache granularity stays per-chunk, and any reader
// that coalesced onto an in-flight prefetch key shares the batch's result.
//
// A failed round trip sheds its unserved keys back to on-demand fetching
// (readers waiting on them retry their own Get); sibling batches still
// execute. fetched counts objects actually transferred and admitted.
func (l *LRU) Prefetch(ctx context.Context, keys []string, opts PlanOptions) (int, error) {
	reqs, finishes := l.prefetchClaim(keys)
	if len(reqs) == 0 {
		return 0, nil
	}
	return l.prefetchExec(ctx, reqs, finishes, opts)
}

// PrefetchAsync implements Prefetcher: leadership over every eligible key is
// taken before it returns — a reader arriving next instant coalesces onto
// the in-flight batch through the singleflight layer — while the coalesced
// origin round trips run in the background. Returns how many objects are
// being fetched.
func (l *LRU) PrefetchAsync(ctx context.Context, keys []string, opts PlanOptions) int {
	reqs, finishes := l.prefetchClaim(keys)
	if len(reqs) == 0 {
		return 0
	}
	go func() { _, _ = l.prefetchExec(ctx, reqs, finishes, opts) }()
	return len(reqs)
}

// prefetchClaim takes fetch leadership for every key that is neither cached
// nor already in flight, returning the whole-object requests to issue and,
// parallel to them, the flight-completion callbacks.
func (l *LRU) prefetchClaim(keys []string) ([]RangeReq, []func([]byte, error)) {
	reqs := make([]RangeReq, 0, len(keys))
	finishes := make([]func([]byte, error), 0, len(keys))
	for _, key := range keys {
		finish, ok := l.table.Lead(key)
		if !ok {
			continue // cached (no wire traffic) or already being fetched
		}
		reqs = append(reqs, RangeReq{Key: key, Offset: 0, Length: -1})
		finishes = append(finishes, finish)
	}
	return reqs, finishes
}

// prefetchExec runs the claimed requests as coalesced plans and admits what
// lands, completing every claimed flight (with data, or with errPrefetchShed
// so waiting readers fall back to their own fetch).
func (l *LRU) prefetchExec(ctx context.Context, reqs []RangeReq, finishes []func([]byte, error), opts PlanOptions) (int, error) {
	plans := Coalesce(reqs, opts)
	results, err := ExecutePlans(ctx, l.inner, len(reqs), plans)
	fetched := 0
	for i, data := range results {
		if data != nil {
			// Admit a private copy: ExecutePlans payload slices may alias a
			// larger wire buffer shared with sibling parts.
			cp := make([]byte, len(data))
			copy(cp, data)
			l.admit(reqs[i].Key, cp)
			finishes[i](cp, nil)
			fetched++
			continue
		}
		cause := err
		if cause == nil {
			cause = ErrNotFound
		}
		l.shed.Add(1)
		finishes[i](nil, fmt.Errorf("%w (key %q): %w", errPrefetchShed, reqs[i].Key, cause))
	}
	l.prefetched.Add(int64(fetched))
	return fetched, err
}
