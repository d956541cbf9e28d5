package storage

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultDiskCapacity bounds a disk tier whose options left Capacity zero:
// large enough to hold a real training job's working set, small enough not
// to silently fill a workstation disk.
const DefaultDiskCapacity = 4 << 30

// DiskOptions tunes a Disk tier.
type DiskOptions struct {
	// Capacity is the byte budget of the on-disk cache; least recently
	// used objects are deleted once it is exceeded. Zero means
	// DefaultDiskCapacity; negative means unbounded.
	Capacity int64
}

// DiskStats is a point-in-time copy of a Disk tier's counters.
type DiskStats struct {
	// Hits counts Gets served from the local disk instead of the origin.
	Hits int64
	// WarmHits counts the subset of Hits served from files that were
	// already on disk when the tier was opened — the warm-start payoff: a
	// restarted training job re-reading chunks its previous incarnation
	// fetched.
	WarmHits int64
	// Misses counts Gets that fell through to the origin.
	Misses int64
	// Evictions counts objects deleted to stay under Capacity.
	Evictions int64
	// Bypassed counts objects larger than Capacity that could not be
	// cached at all.
	Bypassed int64
	// CorruptionsDetected counts disk reads whose bytes failed CRC32C
	// verification against a seeded digest; the poisoned file is deleted
	// and the read falls through to the origin.
	CorruptionsDetected int64
	// UsedBytes and Entries describe the resident on-disk population.
	UsedBytes int64
	Entries   int64
}

// Disk is the local-disk tier of the §3.6 provider chain: a byte cache of
// origin objects persisted under a local directory, sitting between the
// in-memory LRU and the (remote) origin — RAM over disk over origin. Unlike
// the RAM cache it survives the process: a restarted training job reopens
// the same directory and starts warm, re-reading the chunks its previous
// incarnation already paid origin round trips for (the warm population is
// discovered by scanning the directory at construction and its hits are
// ledgered separately as WarmHits).
//
// Bytes read back from disk are verified: the tier keeps a CRC32C digest
// registry — recorded on every admit and seeded from the dataset's
// per-tensor checksum manifests at Open (storage.SeedDigests walks the
// chain) — so a file corrupted or half-written while the process was down
// is detected, deleted, and transparently re-fetched from the origin
// instead of poisoning the epoch. Files that predate checksums (no seeded
// digest) are served unverified, exactly like Verify's legacy behavior; the
// chunk-level footer above the storage chain backstops them.
//
// Writes are write-through (origin first, then disk), and the on-disk files
// are published atomically (temp file + fsync + rename, the FS provider's
// protocol), so a crash mid-admit leaves no torn cache entries — at worst a
// .tmp-* orphan that the next scan ignores.
//
// The index of what is on disk is the shared Cache core with one shard
// (exact LRU order over files) and os.Remove as its evict hook; cold Gets go
// through its coalesced-miss protocol, so a herd missing on one object
// reaches the origin once. The tier's own code is the file IO, the CRC
// check, the warm scan and the oversize bypass. List is not intercepted:
// the tier holds a subset of the origin and cannot answer authoritatively.
type Disk struct {
	passthrough // inner is the origin
	files       *FS
	table       *Cache[string, diskObject]

	mu      sync.Mutex // guards digests
	digests map[string]uint32

	hits        atomic.Int64
	warmHits    atomic.Int64
	misses      atomic.Int64
	bypassed    atomic.Int64
	corruptions atomic.Int64
}

// diskObject is the index's record of one cached file; the bytes stay on
// disk.
type diskObject struct {
	size int64
	// warm marks an entry discovered on disk at construction time — the
	// previous process's population — rather than admitted by this one.
	warm bool
}

// NewDisk opens (creating if needed) a disk tier rooted at dir in front of
// origin. Objects already present under dir are indexed as the warm-start
// population, ordered least-recently-modified first so eviction under a
// shrunken capacity drops the stalest files.
func NewDisk(origin Provider, dir string, opts DiskOptions) (*Disk, error) {
	files, err := NewFS(dir)
	if err != nil {
		return nil, err
	}
	capacity := opts.Capacity
	if capacity == 0 {
		capacity = DefaultDiskCapacity
	}
	d := &Disk{passthrough: passthrough{origin}, files: files, digests: make(map[string]uint32)}
	d.table = NewCache(capacity, 1, CacheFuncs[string, diskObject]{
		Hash:      func(string) uint64 { return 0 },
		Size:      func(o diskObject) int64 { return o.size },
		FlightKey: func(key string) string { return key },
		OnEvict:   func(key string, _ diskObject) { os.Remove(files.path(key)) },
	})
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

// Capacity is the tier's effective byte bound after defaulting: negative
// means unbounded.
func (d *Disk) Capacity() int64 { return d.table.Capacity() }

// scan indexes the directory's existing files as warm entries, oldest
// first, so that the stalest are what eviction drops when the tier was
// reopened smaller than it was written.
func (d *Disk) scan() error {
	type found struct {
		key  string
		size int64
		mod  int64
	}
	var warm []found
	root := d.files.Root()
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() || strings.HasPrefix(de.Name(), ".tmp-") {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		warm = append(warm, found{key: filepath.ToSlash(rel), size: info.Size(), mod: info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(warm, func(i, j int) bool { return warm[i].mod < warm[j].mod })
	for _, f := range warm {
		d.table.Add(f.key, diskObject{size: f.size, warm: true})
	}
	return nil
}

// Origin returns the wrapped provider.
func (d *Disk) Origin() Provider { return d.inner }

// Root returns the directory backing the tier.
func (d *Disk) Root() string { return d.files.Root() }

// Stats reports the tier's counters.
func (d *Disk) Stats() DiskStats {
	cs := d.table.Stats()
	return DiskStats{
		Hits:                d.hits.Load(),
		WarmHits:            d.warmHits.Load(),
		Misses:              d.misses.Load(),
		Evictions:           cs.Evictions,
		Bypassed:            d.bypassed.Load(),
		CorruptionsDetected: d.corruptions.Load(),
		UsedBytes:           cs.UsedBytes,
		Entries:             int64(cs.Entries),
	}
}

// SeedDigest registers the expected CRC32C for key, typically from a
// dataset's chunk checksum manifests at Open; disk reads of the key are
// verified against it from then on.
func (d *Disk) SeedDigest(key string, crc uint32) {
	d.mu.Lock()
	d.digests[key] = crc
	d.mu.Unlock()
}

// forget drops key's index entry and file (used when the file is missing or
// fails verification).
func (d *Disk) forget(key string) {
	d.table.Remove(key)
	os.Remove(d.files.path(key))
}

// digest returns the seeded/recorded digest for key, if any.
func (d *Disk) digest(key string) (uint32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	crc, ok := d.digests[key]
	return crc, ok
}

// readCached serves key from disk if indexed and intact.
func (d *Disk) readCached(ctx context.Context, key string) ([]byte, bool) {
	obj, ok := d.table.Peek(key)
	if !ok {
		return nil, false
	}
	return d.readFile(ctx, key, obj)
}

// readFile reads the file behind index entry obj, verifies it, and counts
// the hit. A missing, unreadable, or corrupt file is forgotten (and deleted)
// so the caller falls through to the origin.
func (d *Disk) readFile(ctx context.Context, key string, obj diskObject) ([]byte, bool) {
	data, err := d.files.Get(ctx, key)
	if err != nil {
		d.forget(key)
		return nil, false
	}
	if want, known := d.digest(key); known && Checksum(data) != want {
		d.corruptions.Add(1)
		d.forget(key)
		return nil, false
	}
	d.hits.Add(1)
	if obj.warm {
		d.warmHits.Add(1)
	}
	return data, true
}

// admit writes data under key (atomically) and indexes it, evicting LRU
// entries over capacity. The stored digest is recorded so later disk reads
// verify. Objects larger than the whole capacity are bypassed.
func (d *Disk) admit(ctx context.Context, key string, data []byte) {
	if c := d.table.Capacity(); c >= 0 && int64(len(data)) > c {
		d.bypassed.Add(1)
		return
	}
	if err := d.files.Put(ctx, key, data); err != nil {
		return // cache population is best-effort; the caller has the bytes
	}
	d.SeedDigest(key, Checksum(data))
	d.table.Add(key, diskObject{size: int64(len(data))})
}

// fetch is the miss path: the origin's bytes, admitted for the next reader
// and the next process.
func (d *Disk) fetch(ctx context.Context, key string) ([]byte, error) {
	d.misses.Add(1)
	data, err := d.inner.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	d.admit(ctx, key, data)
	return data, nil
}

// Get implements Provider: disk first (verified), origin on miss — one
// origin Get however many readers miss on the key at once. Only the index
// entry travels through the flight, never the bytes: the reader whose fetch
// ran keeps the origin's slice to itself, and every reader coalesced onto it
// reads the file that fetch just published, so no two callers are ever
// handed the same backing array. (When the fetch could not cache the object
// — oversize, or a failed local write — its followers find no file and fetch
// for themselves.)
func (d *Disk) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var fetched []byte
	led := false
	obj, _, _, err := d.table.GetOrLoad(ctx, key, func() (diskObject, error) {
		data, err := d.fetch(ctx, key)
		fetched, led = data, err == nil
		return diskObject{size: int64(len(data))}, err
	})
	if err != nil {
		return nil, err
	}
	if led {
		return fetched, nil
	}
	if data, ok := d.readFile(ctx, key, obj); ok {
		return data, nil
	}
	return d.fetch(ctx, key)
}

// GetRange implements Provider. Cached objects serve the range from the
// local file; misses go to the origin without promoting the object (range
// reads are the streaming sub-chunk path — caching whole objects for them
// would inflate the tier exactly like the RAM cache refuses to).
func (d *Disk) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if _, ok := d.table.Peek(key); ok {
		if data, err := d.files.GetRange(ctx, key, offset, length); err == nil {
			d.hits.Add(1)
			return data, nil
		}
		// Clamp errors must not be masked by an origin retry with the same
		// bounds; treat only missing/unreadable files as a cache miss.
		if _, statErr := os.Stat(d.files.path(key)); statErr == nil {
			return d.files.GetRange(ctx, key, offset, length)
		}
		d.forget(key)
	}
	d.misses.Add(1)
	return d.inner.GetRange(ctx, key, offset, length)
}

// GetRanges implements BatchProvider: whole-object requests present on disk
// are served locally (verified), and only the remainder travels to the
// origin — as one batch, so coalesced fetch plans stay coalesced. Forwarded
// whole objects are admitted on the way back. Unlike a pure origin
// BatchProvider, entries after a mid-batch failure may still be non-nil
// when they were served from disk.
func (d *Disk) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([][]byte, len(reqs))
	var fwd []RangeReq
	var fwdIdx []int
	for i, r := range reqs {
		if r.whole() {
			if data, ok := d.readCached(ctx, r.Key); ok {
				out[i] = data
				continue
			}
			d.misses.Add(1)
		}
		fwd = append(fwd, r)
		fwdIdx = append(fwdIdx, i)
	}
	if len(fwd) == 0 {
		return out, nil
	}
	got, err := GetRanges(ctx, d.inner, fwd)
	for j, data := range got {
		if data == nil {
			continue
		}
		out[fwdIdx[j]] = data
		if fwd[j].whole() {
			d.admit(ctx, fwd[j].Key, data)
		}
	}
	return out, err
}

// Put implements Provider: write-through, origin first.
func (d *Disk) Put(ctx context.Context, key string, data []byte) error {
	if err := d.inner.Put(ctx, key, data); err != nil {
		return err
	}
	d.admit(ctx, key, data)
	return nil
}

// Delete implements Provider and drops the local copy and digest.
func (d *Disk) Delete(ctx context.Context, key string) error {
	d.forget(key)
	d.mu.Lock()
	delete(d.digests, key)
	d.mu.Unlock()
	return d.inner.Delete(ctx, key)
}

// Exists implements Provider.
func (d *Disk) Exists(ctx context.Context, key string) (bool, error) {
	if _, ok := d.table.Peek(key); ok {
		return true, nil
	}
	return d.inner.Exists(ctx, key)
}

// Size implements Provider.
func (d *Disk) Size(ctx context.Context, key string) (int64, error) {
	if obj, ok := d.table.Peek(key); ok {
		return obj.size, nil
	}
	return d.inner.Size(ctx, key)
}
