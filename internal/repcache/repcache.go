// Package repcache memoizes whole simulation cells: it maps the canonical
// content key of one run — (machine configuration, workload, run length,
// warmup split, seed) — to the cpu.Report that run produces.
//
// The paper's evaluation is a grid of such cells, and the drivers revisit
// the same cells constantly: every Figure 5 agile/4K cell reappears as the
// baseline of the ablations, the sensitivity sweep, the SHSP comparison and
// the model validation, and RunAll over a config list repeats cells
// verbatim. Below the cell boundary that redundancy is already gone
// (workload.SharedStream shares op streams, cpu.AcquireMachine reuses
// machines); this package removes it above: a cell simulates once per
// process — or, with the disk tier, once per build of the binary — and
// every later ask returns the stored report.
//
// Correctness rests on the simulator being a pure function of the key
// (pinned by the experiments golden test and the serial/parallel
// equivalence suite): cpu.Report is a plain value struct — counters, fixed
// arrays and one string, no pointers — so a stored report handed to a
// second caller is bit-identical to re-simulating. The key covers every
// input that can alter the report; anything it cannot see (an attached
// miss log, a telemetry recorder) must bypass the cache entirely —
// the experiments layer enforces that by construction, and instrumented
// runs never reach Do.
//
// Three layers:
//
//   - an in-memory LRU (byte budget, default DefaultBudgetBytes) with
//     per-key sync.Once singleflight, so concurrent sweeps asking for the
//     same cell run one simulation and share the result;
//   - an opt-in disk tier (SetDir / paperbench's -report-cache-dir flag):
//     content-addressed files with defensive validation, stamped with the
//     sha256 of the executable that wrote them, so repeated runs of one
//     binary skip simulation entirely and no other build is ever served
//     them;
//   - statistics (Info) paperbench prints under -progress.
//
// Concurrency contract: all exported functions are safe for concurrent
// use. Do never calls compute twice for one key unless the first compute
// failed or the entry was evicted or Reset in between.
package repcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"

	"agilepaging/internal/cpu"
	"agilepaging/internal/workload"
)

// KeyFor derives the canonical content key of one simulation cell. The key
// covers, via a sha256 over a canonical rendering:
//
//   - the normalized machine configuration (technique, page size, every
//     geometry and cost-model knob — cpu.Config is a pure value struct, so
//     the %#v rendering is canonical and automatically tracks new fields);
//   - the normalized workload profile and the generated-stream parameters
//     (accesses incl. warmup, seed);
//   - the warmup split (measurement starts after `warmup` accesses).
//
// Two cells with equal keys produce bit-identical reports from one build;
// two cells that could differ in any counter hash differently. The
// simulator's code is not in the key: the disk tier checks it through the
// build identity in each file's header. Callers must pass the
// configuration actually handed to the machine (after any driver
// adjustments such as the one-core-per-thread bump).
func KeyFor(cfg cpu.Config, prof workload.Profile, accesses, warmup int, seed int64) string {
	cfg = cfg.Normalized()
	// Normalize the profile the way workload.SharedStream does, so
	// trivially-different profiles (Processes 0 versus 1) share a cell.
	if prof.Processes < 1 {
		prof.Processes = 1
	}
	if prof.Threads < 1 {
		prof.Threads = 1
	}
	h := sha256.New()
	fmt.Fprintf(h, "repcache|%#v|%#v|n%d|w%d|s%d", cfg, prof, accesses, warmup, seed)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// opKeyBytes is the fixed width KeyForOps encodes one op in: seven 8-byte
// integer fields and two bool bytes.
const opKeyBytes = 7*8 + 2

// KeyForOps derives the content key of a fixed-op-stream cell — a scenario
// replay or an experiments microbenchmark, where the caller supplies the
// exact op list rather than a generated profile. The key covers the
// normalized machine configuration, the cell name and every field of every
// op, so two cells are cache-equal exactly when they replay the same ops on
// the same machine. Ops are hashed in a fixed-width little-endian encoding:
// a list of tens of thousands of ops keys in a small fraction of the time
// simulating it takes.
func KeyForOps(cfg cpu.Config, name string, ops []workload.Op) string {
	cfg = cfg.Normalized()
	h := sha256.New()
	fmt.Fprintf(h, "repcache/ops|%#v|%q|n%d", cfg, name, len(ops))
	le := binary.LittleEndian
	buf := make([]byte, 0, 256*opKeyBytes)
	for i := range ops {
		op := &ops[i]
		buf = le.AppendUint64(buf, uint64(op.Kind))
		buf = le.AppendUint64(buf, uint64(op.PID))
		buf = le.AppendUint64(buf, uint64(op.Core))
		buf = le.AppendUint64(buf, op.VA)
		buf = le.AppendUint64(buf, op.Len)
		buf = le.AppendUint64(buf, uint64(op.Size))
		buf = append(buf, boolByte(op.Write), boolByte(op.Fetch))
		buf = le.AppendUint64(buf, uint64(op.N))
		if len(buf)+opKeyBytes > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DoOps returns the report of the fixed-op-stream cell (cfg, name, ops):
// memoized under KeyForOps, and on a miss simulated by replaying ops on a
// pristine machine from the machine pool and reporting under name.
func DoOps(cfg cpu.Config, name string, ops []workload.Op) (cpu.Report, error) {
	return Do(KeyForOps(cfg, name, ops), func() (cpu.Report, error) {
		m, err := cpu.AcquireMachine(cfg)
		if err != nil {
			return cpu.Report{}, err
		}
		if err := m.RunOps(ops, 0); err != nil {
			// A failed replay leaves the machine mid-run; let the GC have
			// it rather than pool suspect state.
			return cpu.Report{}, err
		}
		rep := m.Report(name)
		cpu.ReleaseMachine(m)
		return rep, nil
	})
}

// entry is one cache slot. once gates the single computation; bytes stays 0
// until the report is stored and charged against the budget (eviction skips
// uncharged entries — a waiter holds a reference anyway).
type entry struct {
	once    sync.Once
	rep     cpu.Report
	err     error
	bytes   int64
	lastUse uint64
}

// entryOverhead approximates the fixed per-entry cost (map slot, entry
// struct, key string) charged on top of the report's own size.
const entryOverhead = 256

// reportBaseBytes is the in-memory size of one cpu.Report value; the
// workload-name string's bytes are charged separately per entry.
var reportBaseBytes = int64(reflect.TypeOf(cpu.Report{}).Size())

// DefaultBudgetBytes bounds the in-memory report cache. Reports are a few
// hundred bytes each, so the default retains on the order of ten thousand
// full Figure 5 sweeps; it exists to bound pathological key churn, not to
// be reached in normal use.
const DefaultBudgetBytes = 16 << 20

// cache is the process-wide report cache.
var cache = struct {
	mu         sync.Mutex
	entries    map[string]*entry
	clock      uint64
	bytes      int64
	budget     int64
	dir        string   // disk tier directory ("" = disabled)
	build      [32]byte // identity stamped on disk files (set with dir)
	hits       uint64
	misses     uint64
	deduped    uint64
	diskHits   uint64
	diskMisses uint64
	diskErrs   uint64
}{
	entries: make(map[string]*entry),
	budget:  DefaultBudgetBytes,
}

// Snapshot is a point-in-time copy of the cache's counters. Hits counts
// asks answered by a stored report; Misses counts asks that computed (or
// loaded from disk); Deduped counts asks that attached to a computation
// already in flight — the singleflight savings a concurrent sweep sees.
// DiskHits counts misses satisfied by a valid -report-cache-dir file
// instead of simulation, DiskMisses misses that simulated, DiskErrors
// failed cache-file writes. Bytes/Reports describe the current in-memory
// footprint.
type Snapshot struct {
	Hits, Misses, Deduped            uint64
	DiskHits, DiskMisses, DiskErrors uint64
	Bytes                            int64
	Reports                          int
}

// Info reports cache effectiveness and current footprint.
func Info() Snapshot {
	c := &cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Hits: c.hits, Misses: c.misses, Deduped: c.deduped,
		DiskHits: c.diskHits, DiskMisses: c.diskMisses, DiskErrors: c.diskErrs,
		Bytes: c.bytes, Reports: len(c.entries),
	}
}

// Stats reports the in-memory counters (see Info for the full snapshot
// including the disk tier).
func Stats() (hits, misses, deduped uint64) {
	info := Info()
	return info.Hits, info.Misses, info.Deduped
}

// SetBudget sets the in-memory byte budget. budget == 0 disables
// memoization entirely (every Do computes); budget < 0 removes the bound.
// Shrinking evicts immediately.
func SetBudget(budget int64) {
	cache.mu.Lock()
	cache.budget = budget
	evictLocked(nil)
	cache.mu.Unlock()
}

// SetDir sets the persistent report-cache directory. When non-empty,
// computed reports are written there and later misses are satisfied from
// valid files instead of simulating. Each file carries the build identity,
// the sha256 of the running executable, and is served only to the build
// that wrote it. The executable is hashed on the first SetDir with a
// directory; if it cannot be read, SetDir returns the error and leaves the
// setting unchanged. "" (the default) disables the disk tier.
func SetDir(dir string) error {
	var build [32]byte
	if dir != "" {
		var err error
		if build, err = buildIdentity(); err != nil {
			return fmt.Errorf("repcache: build identity: %w", err)
		}
	}
	cache.mu.Lock()
	cache.dir, cache.build = dir, build
	cache.mu.Unlock()
	return nil
}

// Reset drops every stored report and rewinds all cache state — statistics
// and the LRU clock included — so behaviour after a reset is exactly that
// of a fresh process. The disk directory setting and budget survive; disk
// files are never removed (they are the point of the disk tier).
func Reset() {
	c := &cache
	c.mu.Lock()
	c.entries = make(map[string]*entry)
	c.clock = 0
	c.bytes = 0
	c.hits, c.misses, c.deduped = 0, 0, 0
	c.diskHits, c.diskMisses, c.diskErrs = 0, 0, 0
	c.mu.Unlock()
}

// evictLocked drops stored reports, least recently used first, until the
// cache fits its budget. keep, if non-nil, is never evicted. Uncharged
// entries (still computing) are skipped.
func evictLocked(keep *entry) {
	c := &cache
	if c.budget < 0 {
		return
	}
	for c.bytes > c.budget {
		var victimKey string
		var victim *entry
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

// Do returns the memoized report for key, calling compute at most once per
// key across all concurrent callers (later callers block on the first's
// sync.Once and share its result). A failed compute is never cached: the
// entry is removed, every waiter attached to that flight receives the
// error, and the next Do retries. With the cache disabled (budget 0) Do
// degenerates to calling compute.
func Do(key string, compute func() (cpu.Report, error)) (cpu.Report, error) {
	c := &cache
	c.mu.Lock()
	if c.budget == 0 {
		c.misses++
		c.mu.Unlock()
		return compute()
	}
	e, ok := c.entries[key]
	if ok {
		if e.bytes != 0 {
			c.hits++
		} else {
			// The first asker is still simulating; we will share its run.
			c.deduped++
		}
	} else {
		c.misses++
		e = &entry{}
		c.entries[key] = e
	}
	c.clock++
	e.lastUse = c.clock
	dir, build := c.dir, c.build
	c.mu.Unlock()

	e.once.Do(func() {
		var (
			rep               cpu.Report
			err               error
			fromDisk, diskErr bool
		)
		if dir != "" {
			rep, fromDisk = loadReportFromDisk(dir, key, build)
		}
		if !fromDisk {
			rep, err = compute()
			if err == nil && dir != "" {
				diskErr = writeReportToDisk(dir, key, build, rep) != nil
			}
		}
		e.finishWithDiskErr(key, rep, err, fromDisk, dir != "", diskErr)
	})
	return e.rep, e.err
}

// finishWithDiskErr records the report (or error) on the entry, updates the
// disk-tier counters, and either charges the completed entry against the
// budget or — on error — removes it so the key can be retried.
func (e *entry) finishWithDiskErr(key string, rep cpu.Report, err error, fromDisk, diskEnabled, diskErr bool) {
	e.rep, e.err = rep, err
	size := reportBaseBytes + int64(len(rep.Workload)) + int64(len(key)) + entryOverhead

	c := &cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if diskEnabled {
		if err == nil {
			if fromDisk {
				c.diskHits++
			} else {
				c.diskMisses++
			}
		}
		if diskErr {
			c.diskErrs++
		}
	}
	// The entry may have been evicted or the cache Reset while we computed;
	// only charge (or remove) entries still in the map.
	if c.entries[key] != e {
		return
	}
	if err != nil {
		delete(c.entries, key)
		return
	}
	e.bytes = size
	c.bytes += size
	evictLocked(e)
}
