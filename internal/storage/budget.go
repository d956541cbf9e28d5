package storage

// NodeBudget is the one knob a training node gets for its cache hierarchy.
// PR 7/PR 9 left the three tiers — the raw-chunk RAM LRU, the dataloader's
// decoded-chunk NodeCache, and the local-disk tier — sizing themselves
// independently, so the same machine could be budgeted three times over.
// NodeBudget splits a single declared capacity instead:
//
//   - MemoryBytes is divided between the two RAM consumers: 3/8 to the
//     raw-chunk LRU (LRUBytes) and 5/8 to the decoded-chunk cache
//     (DecodedBytes). Decoded chunks get the larger share because media
//     decode inflates payloads (a JPEG chunk decodes to several times its
//     stored size) and re-decoding is the more expensive miss: a raw-chunk
//     miss costs one coalesced origin round trip, a decoded-chunk miss
//     costs fetch plus decode for every rank on the node.
//   - DiskBytes caps the local-disk tier, with DiskOptions semantics:
//     zero means DefaultDiskCapacity, negative means unbounded.
//
// The two RAM shares may charge the same bytes. An uncompressed chunk's
// decoded samples alias the raw object the LRU hands out, so while both
// caches hold that chunk, each charges it in full. The RAM the two hold is
// therefore at most the sum of their charges, and less when they overlap.
// Their high-water marks are LRU.Stats().PeakBytes and the dataloader's
// NodeCacheStats.PeakBytes.
//
// A third RAM consumer sits outside the split: every core.Dataset handle
// lineage (an opened handle and its ReadAtVersion twins) keeps one
// decoded-chunk cache of the NodeCache's type (core.ChunkCache) for its
// reads, sized by DecodedBytesOver from the handle's chain. Only loaders
// pin, and an unpinned chunk larger than a shard is not admitted, so each
// lineage's cache holds at most that many charged bytes
// (core.ChunkCacheStats' PeakBytes), and a process holds at most that per
// lineage; twins add none. Like the
// NodeCache's, its uncompressed entries alias the raw objects the LRU handed
// out, and keep those bytes alive after the LRU evicts them.
//
// Zero or negative MemoryBytes means DefaultNodeMemoryBytes. The split is
// a default derivation, not a cage — callers needing asymmetric tiers keep
// sizing them directly.
type NodeBudget struct {
	// MemoryBytes is the RAM the node grants to caching, shared by the
	// raw-chunk LRU and the decoded-chunk NodeCache.
	MemoryBytes int64
	// DiskBytes is the local-disk tier's capacity (DiskOptions.Capacity
	// semantics: zero = DefaultDiskCapacity, negative = unbounded).
	DiskBytes int64
}

// DefaultNodeMemoryBytes is the memory budget assumed when NodeBudget leaves
// MemoryBytes unset: 1GB, enough for ~64 paper-target 8MB raw chunks in the
// LRU share plus their decoded forms in the NodeCache share.
const DefaultNodeMemoryBytes = 1 << 30

func (b NodeBudget) memory() int64 {
	if b.MemoryBytes > 0 {
		return b.MemoryBytes
	}
	return DefaultNodeMemoryBytes
}

// LRUBytes is the raw-chunk RAM cache's share of the memory budget: 3/8.
func (b NodeBudget) LRUBytes() int64 { return b.memory() * 3 / 8 }

// DecodedBytes is the decoded-chunk cache's share of the memory budget: the
// remaining 5/8 (exactly MemoryBytes - LRUBytes, so the shares always sum
// to the budget).
func (b NodeBudget) DecodedBytes() int64 { return b.memory() - b.LRUBytes() }

// DecodedBytesOver sizes the decoded-chunk cache of a dataset handle over
// chain p, with no option of its own: the decoded share of the NodeBudget
// whose LRU share is the capacity C of p's byte LRU (found as Headroom finds
// it), which is C × 5/3. A chain without a bounded LRU gets the default
// budget's decoded share, NodeBudget{}.DecodedBytes().
func DecodedBytesOver(p Provider) int64 {
	var lru int64
	walkChain(p, func(p Provider) bool {
		l, ok := p.(*LRU)
		if ok {
			lru = l.Capacity()
		}
		return !ok
	})
	if lru <= 0 {
		return NodeBudget{}.DecodedBytes()
	}
	return NodeBudget{MemoryBytes: lru * 8 / 3}.DecodedBytes()
}

// DiskCapacity is the value to hand DiskOptions.Capacity: DiskBytes as
// given, since DiskOptions already maps zero to DefaultDiskCapacity and
// negative to unbounded.
func (b NodeBudget) DiskCapacity() int64 { return b.DiskBytes }
