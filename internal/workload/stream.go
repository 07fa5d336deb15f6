package workload

import (
	"sync"

	"agilepaging/internal/pagetable"
)

// Stream is one generated workload op stream, stored packed (see
// packed.go) and shared freely across concurrent runs. Every technique of
// a Compare or Figure 5 sweep replays the same (profile, page size,
// accesses, seed) stream, so generating it once removes the per-run RNG
// and FIFO cost that used to be paid N×M times (N techniques × M sweep
// cells).
//
// Generation is pipelined: SharedStream returns immediately and the
// stream's chunks are published as they are encoded, so a Reader can start
// replaying the head of the stream while the tail is still generating.
// Late arrivals attach to the already-published chunks. Methods that need
// stream totals (Len, Accesses, Ops) block until generation completes.
//
// Concurrency contract: all methods are safe for concurrent use, but each
// consumer must take its own Reader.
type Stream struct {
	name string
	ps   *packedStream
}

// Name identifies the workload the stream was generated from.
func (s *Stream) Name() string { return s.name }

// Reader returns a fresh chunk cursor over the stream. The caller should
// Close it when done to recycle its decode buffer.
func (s *Stream) Reader() *StreamReader { return &StreamReader{ps: s.ps} }

// Len reports the total op count, blocking until generation completes.
func (s *Stream) Len() int {
	s.ps.waitDone()
	return s.ps.numOps
}

// Accesses reports the number of OpAccess ops in the stream (steady-phase
// plus burst accesses — the count run drivers split warmup windows on),
// blocking until generation completes.
func (s *Stream) Accesses() int {
	s.ps.waitDone()
	return s.ps.accesses
}

// PackedBytes reports the encoded in-memory footprint of the stream's
// chunks (the quantity the cache budget is charged with), blocking until
// generation completes.
func (s *Stream) PackedBytes() int64 {
	s.ps.waitDone()
	return s.ps.bytes
}

// Ops decodes the full op list into a fresh slice. It exists for tests and
// offline tooling: replay paths should consume chunks through Reader,
// which never materializes the 64-byte-per-op form.
func (s *Stream) Ops() []Op {
	s.ps.waitDone()
	out := make([]Op, 0, s.ps.numOps)
	r := s.Reader()
	defer r.Close()
	for {
		ops, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, ops...)
	}
}

// streamKey identifies one generated stream. Profile contains only value
// fields, so the struct is comparable and two keys are equal exactly when
// New would produce identical streams.
type streamKey struct {
	prof     Profile
	pageSize pagetable.Size
	accesses int
	seed     int64
}

// streamEntry is one cache slot. bytes stays 0 until generation completes
// and the entry is charged against the budget; eviction skips uncharged
// entries (their size is unknown and a waiter holds a reference anyway).
type streamEntry struct {
	s       *Stream
	bytes   int64
	lastUse uint64
}

// streamEntryOverhead approximates the fixed per-entry cost (Stream,
// packedStream, chunk headers) added to the encoded bytes when charging
// the budget.
const streamEntryOverhead = 512

// DefaultStreamCacheBytes bounds the shared stream cache. Packed encoding
// stores a stream in a few bytes per op instead of 64, so this budget now
// retains on the order of ten full Figure 5 sweeps at the benchmark scale;
// larger sweeps evict least-recently-used streams and regenerate on
// demand.
const DefaultStreamCacheBytes = 256 << 20

// streamCache is the process-wide shared stream cache.
var streamCache = struct {
	mu         sync.Mutex
	entries    map[streamKey]*streamEntry
	clock      uint64
	bytes      int64
	budget     int64
	dir        string // disk-cache directory ("" = disabled)
	hits       uint64
	misses     uint64
	diskHits   uint64
	diskMisses uint64
	diskErrs   uint64
}{
	entries: make(map[streamKey]*streamEntry),
	budget:  DefaultStreamCacheBytes,
}

// StreamCacheSnapshot is a point-in-time copy of the stream cache's
// counters. Hits/Misses count in-memory lookups (a hit means the stream
// was already generated, or generating, when asked for). DiskHits counts
// misses satisfied by a valid -stream-cache-dir file instead of
// generation; DiskMisses counts misses that generated (no usable file);
// DiskErrors counts failed cache-file writes. Bytes/Streams describe the
// current packed in-memory footprint.
type StreamCacheSnapshot struct {
	Hits, Misses                     uint64
	DiskHits, DiskMisses, DiskErrors uint64
	Bytes                            int64
	Streams                          int
}

// StreamCacheInfo reports cache effectiveness and current footprint.
func StreamCacheInfo() StreamCacheSnapshot {
	c := &streamCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return StreamCacheSnapshot{
		Hits: c.hits, Misses: c.misses,
		DiskHits: c.diskHits, DiskMisses: c.diskMisses, DiskErrors: c.diskErrs,
		Bytes: c.bytes, Streams: len(c.entries),
	}
}

// StreamCacheStats reports the in-memory counters (see StreamCacheInfo for
// the full snapshot including the disk cache).
func StreamCacheStats() (hits, misses uint64, bytes int64) {
	info := StreamCacheInfo()
	return info.Hits, info.Misses, info.Bytes
}

// SetStreamCacheBudget sets the cache's byte budget. budget == 0 disables
// caching entirely (every SharedStream call generates a private stream);
// budget < 0 removes the bound. Shrinking evicts immediately.
func SetStreamCacheBudget(budget int64) {
	streamCache.mu.Lock()
	streamCache.budget = budget
	evictLocked(nil)
	streamCache.mu.Unlock()
}

// SetStreamCacheDir sets the persistent stream-cache directory. When
// non-empty, generated streams are written there and later SharedStream
// misses are satisfied from valid files instead of regenerating. "" (the
// default) disables persistence.
func SetStreamCacheDir(dir string) {
	streamCache.mu.Lock()
	streamCache.dir = dir
	streamCache.mu.Unlock()
}

// ResetStreamCache drops every cached stream and rewinds all cache state —
// statistics and the LRU clock included — so cache behaviour after a reset
// is exactly that of a fresh process (tests and memory-sensitive callers).
func ResetStreamCache() {
	c := &streamCache
	c.mu.Lock()
	c.entries = make(map[streamKey]*streamEntry)
	c.clock = 0
	c.bytes = 0
	c.hits, c.misses = 0, 0
	c.diskHits, c.diskMisses, c.diskErrs = 0, 0, 0
	c.mu.Unlock()
}

// evictLocked drops generated streams, least recently used first, until
// the cache fits its budget. keep, if non-nil, is never evicted (the entry
// the caller is about to return). Uncharged entries (bytes == 0, still
// generating) are skipped.
func evictLocked(keep *streamEntry) {
	c := &streamCache
	if c.budget < 0 {
		return
	}
	for c.bytes > c.budget {
		var victimKey streamKey
		var victim *streamEntry
		for k, e := range c.entries {
			if e == keep || e.bytes == 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victimKey)
		c.bytes -= victim.bytes
	}
}

// SharedStream returns the cached op stream for (prof, pageSize, accesses,
// seed), starting pipelined generation on first use. Identical parameters
// always return the same *Stream until it is evicted, so N techniques × M
// sweep cells replaying the same workload share one generation and one
// packed backing store. The returned stream may still be generating:
// Reader consumers replay published chunks immediately and block only on
// the unpublished tail. Safe for concurrent use.
func SharedStream(prof Profile, pageSize pagetable.Size, accesses int, seed int64) *Stream {
	// Normalize like New does so trivially-different Profiles (Processes 0
	// versus 1) share an entry.
	if prof.Processes < 1 {
		prof.Processes = 1
	}
	if prof.Threads < 1 {
		prof.Threads = 1
	}
	key := streamKey{prof: prof, pageSize: pageSize, accesses: accesses, seed: seed}

	c := &streamCache
	c.mu.Lock()
	if c.budget == 0 {
		c.misses++
		c.mu.Unlock()
		// Sharing disabled: generate a private stream synchronously (this
		// is a debugging mode; pipelining matters only for shared use).
		s := &Stream{name: prof.Name, ps: newPackedStream()}
		s.ps.encodeAll(New(prof, pageSize, accesses, seed))
		return s
	}
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &streamEntry{s: &Stream{name: prof.Name, ps: newPackedStream()}}
		c.entries[key] = e
		dir := c.dir
		go generateEntry(e, key, dir)
	}
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()
	return e.s
}

// generateEntry fills e's stream — from the disk cache when possible,
// otherwise by running the generator with chunks published as encoded —
// charges the completed size against the in-memory budget, and only then
// marks the stream done. Anyone who has observed the stream complete
// (Len, Ops, a Reader reaching EOF) therefore also observes consistent
// cache statistics and an on-disk cache file, with no window in between.
func generateEntry(e *streamEntry, key streamKey, dir string) {
	c := &streamCache
	ps := e.s.ps
	fromDisk := false
	diskKey := ""
	if dir != "" {
		diskKey = streamCacheKey(key.prof, key.pageSize, key.accesses, key.seed)
		fromDisk = loadStreamFromDisk(dir, diskKey, ps)
	}
	diskErr := false
	if !fromDisk {
		ps.encodeChunks(New(key.prof, key.pageSize, key.accesses, key.seed))
		if dir != "" {
			// Persist before finish: readers are still draining the
			// published chunks, so the write overlaps the first replay
			// rather than delaying it.
			diskErr = writeStreamToDisk(dir, diskKey, ps) != nil
		}
	}

	size := ps.bytes + int64(len(ps.chunks))*32 + streamEntryOverhead
	c.mu.Lock()
	if dir != "" {
		if fromDisk {
			c.diskHits++
		} else {
			c.diskMisses++
		}
		if diskErr {
			c.diskErrs++
		}
	}
	// The entry may have been evicted (or the cache reset) while we
	// generated; only charge entries still in the map.
	if c.entries[key] == e {
		e.bytes = size
		c.bytes += size
		evictLocked(e)
	}
	c.mu.Unlock()
	ps.finish()
}
