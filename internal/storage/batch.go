package storage

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Check, when set on a sub-object range, checks the range's bytes the
	// way its reader's format says, since a whole-object digest cannot:
	// an error marks them corrupt, and checked false with no error means
	// the check depends on a range before it in the same batch that this
	// batch did not carry. Verify runs the checks of one batch in request
	// order and heals a failed range; Coalesce never merges a checked
	// range with its neighbours. The storage layers only run it.
	Check func(data []byte) (checked bool, err error)
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
	// It is also what a prefetch claim owes the LRU's Headroom until its
	// bytes land. Zero means DefaultSizeHint.
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
// GetRanges call — one request's latency for all its wire ranges. A checked
// range (RangeReq.Check) is a wire request of its own, after its key's other
// requests and in input order, and is never cut from its key's request
// before it into another batch, so a batch carries what its checks need.
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
			var checked []int
			idxs = slices.DeleteFunc(idxs, func(i int) bool {
				if reqs[i].Check != nil {
					checked = append(checked, i)
					return true
				}
				return false
			})
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
			for _, i := range checked {
				merged = append(merged, wireReq{req: reqs[i], parts: []PlanPart{{Index: i, Offset: 0, Length: reqs[i].Length}}})
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
		n := len(cur.Wire)
		if n > 0 && curBytes+sz > opts.MaxRequestBytes && (w.req.Check == nil || cur.Wire[n-1].Key != w.req.Key) {
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
					out[pt.Index] = payload[lo:hi:hi]
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
	opts = opts.withDefaults()
	reqs, finishes := l.prefetchClaim(wholeObjects(keys), opts)
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
	return l.prefetchAsync(ctx, wholeObjects(keys), opts)
}

// PrefetchRanges is PrefetchAsync for requests that may be sub-object
// ranges. Each range is claimed, lands unread and is disowned as an entry of
// its own, owing Headroom its exact length; one whose object is resident
// whole is served by that object, which the claim re-arms as unread
// instead. Returns how many requests it claimed.
func (l *LRU) PrefetchRanges(ctx context.Context, reqs []RangeReq, opts PlanOptions) int {
	return l.prefetchAsync(ctx, reqs, opts)
}

// PrefetchRanges hands reqs to the first layer of p's chain that can
// prefetch ranges (LRU.PrefetchRanges), found by following Unwrap like
// Headroom, so a wrapper above the cache that forwards only Unwrap and the
// key-based Prefetcher keeps it reachable. Returns how many requests were
// claimed; a chain without such a layer claims none.
func PrefetchRanges(ctx context.Context, p Provider, reqs []RangeReq, opts PlanOptions) int {
	claimed := 0
	walkChain(p, func(p Provider) bool {
		rp, ok := p.(interface {
			PrefetchRanges(context.Context, []RangeReq, PlanOptions) int
		})
		if ok {
			claimed = rp.PrefetchRanges(ctx, reqs, opts)
		}
		return !ok
	})
	return claimed
}

func wholeObjects(keys []string) []RangeReq {
	reqs := make([]RangeReq, len(keys))
	for i, k := range keys {
		reqs[i] = RangeReq{Key: k, Offset: 0, Length: -1}
	}
	return reqs
}

func (l *LRU) prefetchAsync(ctx context.Context, reqs []RangeReq, opts PlanOptions) int {
	opts = opts.withDefaults()
	reqs, finishes := l.prefetchClaim(reqs, opts)
	if len(reqs) == 0 {
		return 0
	}
	go func() { _, _ = l.prefetchExec(ctx, reqs, finishes, opts) }()
	return len(reqs)
}

// owed is what a claimed request owes Headroom until it lands: a whole
// object its SizeHint, a range its length.
func owed(r RangeReq, opts PlanOptions) int64 {
	if r.whole() {
		return opts.SizeHint
	}
	return r.Length
}

// prefetchClaim takes fetch leadership for every request whose entry is
// neither cached nor already in flight, returning the requests to issue
// and, parallel to them, the flight-completion callbacks. A range whose
// object is resident whole is not claimed: the object serves it, re-armed
// as unread.
func (l *LRU) prefetchClaim(reqs []RangeReq, opts PlanOptions) ([]RangeReq, []func([]byte, error)) {
	claimed := make([]RangeReq, 0, len(reqs))
	finishes := make([]func([]byte, error), 0, len(reqs))
	var debt int64
	for _, r := range reqs {
		if !r.whole() {
			if _, ok := l.table.owe(r.Key, true); ok {
				continue
			}
		}
		finish, ok := l.table.Lead(entryKey(r))
		if !ok {
			continue // cached (re-armed, no wire traffic) or already being fetched
		}
		claimed = append(claimed, r)
		finishes = append(finishes, finish)
		debt += owed(r, opts)
	}
	l.inflight.Add(debt)
	return claimed, finishes
}

// prefetchExec runs the claimed requests as coalesced plans and admits what
// lands, unread, completing every claimed flight (with data, or with
// errPrefetchShed so waiting readers fall back to their own fetch).
func (l *LRU) prefetchExec(ctx context.Context, reqs []RangeReq, finishes []func([]byte, error), opts PlanOptions) (int, error) {
	// No merging: every wire request is one claimed entry, so each lands as
	// that entry's whole payload and the cache keeps alive no byte it does
	// not charge.
	opts.GapTolerance = -1
	plans := Coalesce(reqs, opts)
	results, err := ExecutePlans(ctx, l.inner, len(reqs), plans)
	fetched := 0
	for i, data := range results {
		l.inflight.Add(-owed(reqs[i], opts))
		key := entryKey(reqs[i])
		if data != nil {
			l.admit(key, data, true)
			// Checked after the admit, so this or the walk's Disown clears it.
			if ctx.Err() != nil {
				l.table.owe(key, false)
			}
			finishes[i](data, nil)
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

// Headroom reports how many more bytes of read-ahead the byte cache in p's
// chain can take: the LRU's capacity minus the bytes it owes to prefetch,
// that is claimed objects still on the wire (at their PlanOptions.SizeHint),
// claimed ranges still on the wire (at their length) and unread entries,
// which it never evicts. Everything reading through one LRU shares its
// headroom. The walk follows Unwrap, like SeedDigests and Evict, so wrappers
// above the cache keep it visible; a chain without an LRU has no headroom
// (0).
func Headroom(p Provider) int64 {
	var room int64
	walkChain(p, func(p Provider) bool {
		l, ok := p.(*LRU)
		if ok {
			room = l.Capacity() - l.inflight.Load() - l.table.Unread()
		}
		return !ok
	})
	return room
}

// Disown hands a walk's prefetch claims back to the byte cache in p's chain,
// to age from then on like anything read: the entries of reqs, and for a
// range also its object, which a claim re-arms when it is resident whole.
// Call it once every context the walk claimed under is done, so claims still
// on the wire land disowned too.
func Disown(p Provider, reqs []RangeReq) {
	walkChain(p, func(p Provider) bool {
		l, ok := p.(*LRU)
		if ok {
			for _, r := range reqs {
				l.table.owe(entryKey(r), false)
				if !r.whole() {
					l.table.owe(r.Key, false)
				}
			}
		}
		return !ok
	})
}
