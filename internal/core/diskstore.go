package core

import (
	"fmt"
	"os"
	"sync"

	"exactppr/internal/hierarchy"
	"exactppr/internal/mmapfile"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// DiskStore answers exact PPV queries straight from a store file written
// by Save/SaveFile, reading vectors on demand instead of materializing
// them in memory. The paper points out that pre-computed vectors "could
// likely be larger than available main memory" and suggests a disk-based
// implementation (§5.2); this is that implementation, built around three
// compounding serving optimisations:
//
//   - Zero-copy mmap. The store file is memory-mapped by default and
//     payloads are served as sparse.PackedView slices aliasing
//     the mapping — no read buffer, no decode copy; the OS page cache is
//     the real vector cache. A -mmap=off knob (DiskOptions.DisableMmap),
//     unsupported platforms, and map failures all fall back to the
//     portable ReadAt+decode path.
//   - Transposed skeleton index. A query folds exactly one hub-plan row
//     (leaf + Σ (h, S_u(h))·partial) instead of fetching every path
//     hub's entire skeleton vector to read a single scalar. Store files
//     carry the skeletons only in this form, as their plan section (see
//     plan.go); every row is checked against the file's tree at open.
//   - Sharded coalescing cache. Decoded vectors (views, in mmap mode)
//     live in an N-way sharded CLOCK cache with per-key singleflight, so
//     a miss storm on a hot hub issues ONE read however many queries are
//     in flight. See diskcache.go.
//
// Only the graph, the hierarchy (rebuilt from the file's tree section,
// never re-partitioned), an offset index and the per-hub skeleton entry
// counts are always resident; vector payloads stay on disk (or in the
// page cache).
//
// Queries run the same fold as the in-memory Store (fold.go), with the
// plan row as the hub-weight source, so disk and memory answers are
// bit-identical; SplitDisk shards it exactly as Split shards a Store.
//
// DiskStore is safe for concurrent queries and is read-only: it does not
// support ApplyUpdates. To pick up new graph state, apply the updates to
// a loaded Store, Save it (the file carries the updated tree), and
// reopen.
type DiskStore struct {
	H      *hierarchy.Hierarchy
	Params ppr.Params

	f    *os.File
	data []byte // mmap of the whole file; nil on the fallback path

	// vec[v] locates node v's vector payload: its partial when v is a
	// hub, its leaf PPV otherwise. plan[v] locates v's plan row; a node
	// with no row has a zero span. skelLen[h] counts hub h's stored
	// skeleton entries, taken from the plan rows at open.
	vec, plan []span
	skelLen   []int32

	// fmu guards the file AND mapping lifecycle. Queries hold it shared
	// for their entire duration — not just across the read — because in
	// mmap mode the vectors being folded are views over the mapping;
	// Close takes it exclusively, so it cannot unmap bytes an in-flight
	// fold is reading. Drained results never alias the mapping (the
	// accumulator copies on drain), so nothing escapes the lock.
	fmu    sync.RWMutex
	closed bool

	cache *vecCache
	stats diskCounters
}

// ErrStoreClosed reports a query against a DiskStore after Close.
var ErrStoreClosed = fmt.Errorf("core: disk store is closed")

type span struct {
	off int64
	len int32
}

type cacheKey struct {
	section int8
	key     int32
}

// Section ids, in file order; they also tell cache keys apart.
const (
	secHubPartial = 0
	secLeafPPV    = 1
	secHubPlan    = 2
)

// defaultCacheCap bounds the vector cache when DiskOptions.CacheCap is
// zero. In mmap mode the cache holds slice headers, not payloads, so
// this is a count of cheap entries; in fallback mode it bounds real heap
// copies.
const defaultCacheCap = 1024

// DiskOptions tunes OpenDiskStoreWith.
type DiskOptions struct {
	// DisableMmap forces the portable ReadAt+decode path even where
	// mapping would work — the -mmap=off serving knob.
	DisableMmap bool
	// CacheCap bounds the number of cached vectors (0 = default 1024;
	// minimum 1 per cache shard).
	CacheCap int
}

// DiskStats is a snapshot of the serving counters, exposed through the
// gateway's /stats so cache and mmap regressions are observable in
// production, not just in benchmarks.
type DiskStats struct {
	// CacheHits/CacheMisses count cache probes.
	CacheHits, CacheMisses int64
	// CoalescedReads counts misses that waited on another query's
	// in-flight read instead of issuing their own (the miss-storm fix:
	// under a hot-key storm this approaches CacheMisses while Reads
	// stays near the distinct-vector count).
	CoalescedReads int64
	// Reads counts actual payload loads (ReadAt+decode, or view
	// construction in mmap mode).
	Reads int64
	// Evictions counts CLOCK evictions.
	Evictions int64
	// Cached is the current number of cached vectors.
	Cached int
	// Mmap reports whether the store is serving zero-copy from a
	// memory-mapped file (false: the ReadAt fallback).
	Mmap bool
}

// ParseDiskOptions builds DiskOptions from the serving commands' shared
// -mmap ("on"/"off") and -cachecap flag values.
func ParseDiskOptions(mmapMode string, cacheCap int) (DiskOptions, error) {
	opts := DiskOptions{CacheCap: cacheCap}
	switch mmapMode {
	case "on":
	case "off":
		opts.DisableMmap = true
	default:
		return opts, fmt.Errorf("core: bad mmap mode %q (want on or off)", mmapMode)
	}
	return opts, nil
}

// OpenDiskStore opens a store file for on-demand querying with default
// options (mmap on, 1024-vector cache).
func OpenDiskStore(path string) (*DiskStore, error) {
	return OpenDiskStoreWith(path, DiskOptions{})
}

// OpenDiskStoreWith opens a store file for on-demand querying. The
// header, graph, and tree are loaded and the plan rows checked; vector
// payloads are indexed by offset and (unless mapping is disabled or
// unavailable) served zero-copy from a read-only memory map.
func OpenDiskStoreWith(path string, opts DiskOptions) (*DiskStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ds, err := indexStoreFile(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cap := opts.CacheCap
	if cap <= 0 {
		cap = defaultCacheCap
	}
	ds.cache = newVecCache(0, cap)
	if !opts.DisableMmap {
		// Mapping failures (platform without mmap, exotic filesystems)
		// degrade to the ReadAt path silently: same answers, fewer tricks.
		if data, err := mmapfile.Map(f); err == nil {
			ds.data = data
		}
	}
	return ds, nil
}

// Close releases the mapping and the underlying file. It blocks until
// in-flight queries drain — cached vector views alias the mapping, so
// unmapping mid-fold would be a fault, not just a race; queries issued
// afterwards fail with ErrStoreClosed. Close is idempotent.
func (d *DiskStore) Close() error {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.cache.purge() // cached views must not survive the mapping
	var err error
	if d.data != nil {
		err = mmapfile.Unmap(d.data)
		d.data = nil
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SetCacheCap rebounds the in-memory vector cache (minimum 1 per cache
// shard). Shrinking evicts through the same CLOCK policy as inserts.
func (d *DiskStore) SetCacheCap(n int) {
	d.cache.setCap(n, &d.stats)
}

// Stats snapshots the serving counters. Safe concurrently with queries
// and Close (the mapping state is read under the lifecycle lock).
func (d *DiskStore) Stats() DiskStats {
	d.fmu.RLock()
	mmap := d.data != nil
	d.fmu.RUnlock()
	return DiskStats{
		CacheHits:      d.stats.hits.Load(),
		CacheMisses:    d.stats.misses.Load(),
		CoalescedReads: d.stats.coalesced.Load(),
		Reads:          d.stats.reads.Load(),
		Evictions:      d.stats.evictions.Load(),
		Cached:         d.cache.len(),
		Mmap:           mmap,
	}
}

// acquire takes the shared lifecycle lock for one query; the caller must
// release() when its fold (including the drain) is done.
func (d *DiskStore) acquire() error {
	d.fmu.RLock()
	if d.closed {
		d.fmu.RUnlock()
		return ErrStoreClosed
	}
	return nil
}

func (d *DiskStore) release() { d.fmu.RUnlock() }

// indexStoreFile reads the header and tree exactly as Load does and
// indexes the three vector sections by offset. The vector payloads are
// skipped (only their framing is checked: a payload's length must be a
// columnar length); the plan rows are read once, in one sequential
// pass, and checked against the tree as Load checks them, so a fetch
// trusts them.
func indexStoreFile(f *os.File) (*DiskStore, error) {
	cr := newCountingReader(f)
	params, h, err := readStoreHeader(cr)
	if err != nil {
		return nil, err
	}
	n := h.G.NumNodes()
	ds := &DiskStore{H: h, Params: params, f: f, vec: make([]span, n), plan: make([]span, n)}
	err = vectorSections(cr, h, func(_ int8, key, vlen int32) error {
		if _, ok := columnarLen(vlen); !ok {
			return fmt.Errorf("payload length %d is not a columnar length (corrupt store?)", vlen)
		}
		ds.vec[key] = span{off: cr.n, len: vlen}
		return cr.skip(int64(vlen))
	})
	if err != nil {
		return nil, err
	}
	rc, err := planSection(cr, h, func(u int32, off int64, vlen int32, _ []int32, _ []float64) {
		ds.plan[u] = span{off: off, len: vlen}
	})
	if err != nil {
		return nil, err
	}
	ds.skelLen = rc.skelLen
	return ds, nil
}

// columnarLen returns the entry count of a columnar payload of size
// bytes, and whether size is a columnar length at all.
func columnarLen(size int32) (int, bool) {
	n := (int(size) - 8) / 12
	return n, size >= 8 && sparse.EncodedSizeColumnar(n) == int(size)
}

// fetchBufPool recycles the ReadAt buffers of the non-mmap path: a cache
// miss used to allocate a fresh payload-sized slice, which at
// disk-resident cache rates made the read buffer the top allocation of
// the query path. Both decoders copy out of the buffer, so returning it
// to the pool before the decoded vector escapes is safe.
var fetchBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readPayload returns the raw bytes of one record: a slice of the
// mapping (alias — do not retain past the lifecycle lock without going
// through the cache) or a pooled buffer with done() returning it.
func (d *DiskStore) readPayload(sp span) (buf []byte, done func(), err error) {
	if d.data != nil {
		end := sp.off + int64(sp.len)
		if sp.off < 0 || end > int64(len(d.data)) {
			return nil, nil, fmt.Errorf("core: record at %d+%d outside mapped file (%d bytes)", sp.off, sp.len, len(d.data))
		}
		return d.data[sp.off:end:end], func() {}, nil
	}
	bp := fetchBufPool.Get().(*[]byte)
	if cap(*bp) < int(sp.len) {
		*bp = make([]byte, sp.len)
	}
	buf = (*bp)[:sp.len]
	if _, err := d.f.ReadAt(buf, sp.off); err != nil {
		fetchBufPool.Put(bp)
		return nil, nil, err
	}
	return buf, func() { fetchBufPool.Put(bp) }, nil
}

// loadVector decodes one vector record. In mmap mode this is zero-copy:
// the returned Packed is a view over the mapping.
func (d *DiskStore) loadVector(section int8, key int32) (cval, error) {
	buf, done, err := d.readPayload(d.vec[key])
	if err != nil {
		return cval{}, err
	}
	defer done()
	ids, scores, err := d.columns(buf)
	var v sparse.Packed
	if err == nil {
		v, err = sparse.PackedView(ids, scores)
	}
	if err != nil {
		return cval{}, fmt.Errorf("core: vector for section %d key %d: %w", section, key, err)
	}
	if !v.InRange(d.H.G.NumNodes()) {
		return cval{}, fmt.Errorf("core: vector for section %d key %d has out-of-range node ids (corrupt store?)", section, key)
	}
	return cval{vec: v}, nil
}

// fetch reads (and caches) one vector through the coalescing cache.
func (d *DiskStore) fetch(section int8, key int32) (sparse.Packed, error) {
	v, err := d.cache.getOrLoad(cacheKey{section, key}, &d.stats, func() (cval, error) {
		return d.loadVector(section, key)
	})
	return v.vec, err
}

// columns splits one columnar payload: views aliasing the mapping in
// mmap mode, copies out of the pooled read buffer otherwise.
func (d *DiskStore) columns(buf []byte) ([]int32, []float64, error) {
	if d.data != nil {
		return sparse.ViewColumnar(buf)
	}
	return sparse.DecodeColumnar(buf)
}

// row returns query node u's hub-weight row, fetched and cached like
// any other vector (a node with no path hubs simply has no row). The
// rows were checked against the tree at open, so a fetch only splits
// the columns.
func (d *DiskStore) row(u int32) (planRow, error) {
	sp := d.plan[u]
	if sp.len == 0 {
		return planRow{}, nil
	}
	v, err := d.cache.getOrLoad(cacheKey{secHubPlan, u}, &d.stats, func() (cval, error) {
		buf, done, err := d.readPayload(sp)
		if err != nil {
			return cval{}, err
		}
		defer done()
		hubs, s, err := d.columns(buf)
		if err != nil {
			return cval{}, fmt.Errorf("core: hub plan for %d: %w", u, err)
		}
		return cval{plan: planRow{hubs: hubs, s: s}}, nil
	})
	return v.plan, err
}

// Query constructs the exact PPV of u reading vectors from disk — the
// same fold as Store.Query, bit-for-bit.
func (d *DiskStore) Query(u int32) (sparse.Vector, error) {
	return drain(d, nil, u, nil, nil, toVector)
}

// QueryPacked is Query draining into the columnar representation the
// serving layer encodes straight onto the wire.
func (d *DiskStore) QueryPacked(u int32) (sparse.Packed, error) {
	return drain(d, nil, u, nil, nil, toPacked)
}

// QuerySet constructs the exact PPV of a weighted preference set by
// linearity — the disk-resident analogue of Store.QuerySet.
func (d *DiskStore) QuerySet(p Preference) (sparse.Vector, error) {
	return drainSet(d, nil, p, toVector)
}

// The fold source over the store file (see fold.go). The caller holds
// the lifecycle lock (acquire) across the fold and its drain.

func (d *DiskStore) tree() *hierarchy.Hierarchy { return d.H }
func (d *DiskStore) alpha() float64             { return d.Params.Alpha }

// hubWeights returns u's stored plan row — only its non-zero path hubs,
// already in fold order — for every shard alike.
func (d *DiskStore) hubWeights(u int32) (planRow, error) {
	return d.row(u)
}

func (d *DiskStore) partial(h int32) (sparse.Packed, error) { return d.fetch(secHubPartial, h) }
func (d *DiskStore) leaf(u int32) (sparse.Packed, error)    { return d.fetch(secLeafPPV, u) }

// vectorBytes counts as Store.vectorBytes does — encoded sizes, the
// skeleton at its stored entry count — so a store's space figures are
// the same on disk and in memory.
func (d *DiskStore) vectorBytes(v int32) int64 {
	entries, _ := columnarLen(d.vec[v].len)
	size := int64(sparse.EncodedSizeLen(entries))
	if d.H.IsHub(v) {
		size += int64(sparse.EncodedSizeLen(int(d.skelLen[v])))
	}
	return size
}
