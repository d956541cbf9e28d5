package chunk

import "sync"

// arenaSlabBytes is the slab granularity: large enough that a slab amortizes
// hundreds of typical decoded samples, small enough that a pooled slab is
// cheap to keep around per worker.
const arenaSlabBytes = 256 << 10

// arenaSlabs recycles slabs across arenas (and across Reset calls), so a
// steady-state scan loop stops asking the heap for sample buffers entirely.
var arenaSlabs = sync.Pool{
	New: func() any {
		b := make([]byte, arenaSlabBytes)
		return &b
	},
}

// Arena is a bump allocator over pooled slabs for decode-path sample
// buffers. Instead of one heap allocation per decoded sample, samples are
// carved out of shared slabs: a scan touching thousands of samples costs a
// handful of slab requests.
//
// Arenas are NOT goroutine-safe — use one per worker. What happens to the
// buffers an arena has handed out is the owner's choice between two calls:
//
//   - Reset recycles them. It is for owners that can prove nothing they
//     handed out is still in use: the TQL scan resets its worker's arena
//     before every row, because a row's arrays never outlive its
//     evaluation (and Releases it when the worker exits).
//   - Forget lets them go. It is for owners whose buffers escape to a
//     consumer (the dataloader's batches): the slabs are neither reused nor
//     pooled, and the garbage collector frees each one once the consumer
//     has dropped every buffer carved from it. An owner that did neither
//     would pin every slab it ever filled for as long as the arena lives.
type Arena struct {
	cur  *[]byte
	off  int
	full []*[]byte
}

// NewArena returns an empty arena; slabs are acquired lazily.
func NewArena() *Arena { return &Arena{} }

// Alloc returns an n-byte buffer carved from the arena. Oversize requests
// (beyond the slab granularity) get a dedicated heap allocation the arena
// never recycles. The returned slice has full capacity n and does not alias
// any other live allocation from this arena.
func (a *Arena) Alloc(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > arenaSlabBytes {
		return make([]byte, n)
	}
	if a.cur == nil || a.off+n > arenaSlabBytes {
		if a.cur != nil {
			a.full = append(a.full, a.cur)
		}
		a.cur = arenaSlabs.Get().(*[]byte)
		a.off = 0
	}
	buf := (*a.cur)[a.off : a.off+n : a.off+n]
	a.off += n
	return buf
}

// Copy allocates from the arena and copies src into it.
func (a *Arena) Copy(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	dst := a.Alloc(len(src))
	copy(dst, src)
	return dst
}

// Reset recycles the arena's slabs for reuse. Every buffer Alloc/Copy has
// handed out becomes invalid — see the type comment for when this is safe.
func (a *Arena) Reset() {
	for _, s := range a.full {
		arenaSlabs.Put(s)
	}
	a.Forget()
	a.off = 0
}

// Release is Reset for an owner that is done with the arena: the current
// slab goes back to the pool too, so the next arena (the next query's scan
// worker) starts on a recycled slab instead of allocating and zeroing one.
func (a *Arena) Release() {
	a.Reset()
	if a.cur != nil {
		arenaSlabs.Put(a.cur)
		a.cur = nil
	}
}

// Forget drops the arena's references to the slabs it has filled without
// recycling them: every buffer handed out stays valid, and a slab becomes
// garbage when the last of its buffers does. The partly filled current slab
// stays, and later allocations continue in it.
func (a *Arena) Forget() {
	clear(a.full)
	a.full = a.full[:0]
}
