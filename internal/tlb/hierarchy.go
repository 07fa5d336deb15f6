package tlb

import (
	"fmt"

	"agilepaging/internal/pagetable"
)

// ArrayConfig sizes one TLB array. Entries <= 0 means the array is absent
// from the hierarchy (it is never probed and never hits); an absent array is
// normalized to the zero ArrayConfig, Ways included.
type ArrayConfig struct {
	Entries int
	Ways    int // Ways >= Entries means fully associative
}

// Config describes the whole per-core hierarchy. The zero value is not
// useful; start from SandyBridgeConfig.
type Config struct {
	L1D4K ArrayConfig
	L1D2M ArrayConfig
	L1D1G ArrayConfig
	L1I4K ArrayConfig
	L1I2M ArrayConfig
	L24K  ArrayConfig // unified second level, 4K pages
	L22M  ArrayConfig // unified second level, 2M pages (0 = absent, as on Sandy Bridge)
}

// SandyBridgeConfig reproduces the per-core TLB geometry of the paper's
// evaluation machine (Table III, dual-socket Xeon E5-2430).
func SandyBridgeConfig() Config {
	return Config{
		L1D4K: ArrayConfig{Entries: 64, Ways: 4},
		L1D2M: ArrayConfig{Entries: 32, Ways: 4},
		L1D1G: ArrayConfig{Entries: 4, Ways: 4}, // fully associative
		L1I4K: ArrayConfig{Entries: 128, Ways: 4},
		L1I2M: ArrayConfig{Entries: 8, Ways: 8}, // fully associative
		L24K:  ArrayConfig{Entries: 512, Ways: 4},
		L22M:  ArrayConfig{}, // Sandy Bridge's L2 TLB holds 4K entries only
	}
}

// Scaled returns the configuration shrunk for scaled-down footprints,
// keeping associativity. Workload footprints in this reproduction are
// scaled down from the paper's multi-GB originals; shrinking the 4K TLB
// arrays by the same factor preserves the 4K miss ratios that drive the
// results (substitution #2 in DESIGN.md). Large-page arrays are already
// tiny (4-32 entries), so they shrink by factor/4 to keep the relation
// between 2M TLB reach and footprint in the published regime.
func (c Config) Scaled(factor int) Config {
	if factor <= 1 {
		return c
	}
	s := func(a ArrayConfig, f int) ArrayConfig {
		a.Entries /= f
		if a.Entries <= 0 {
			// Scaled out of existence: normalize to the canonical
			// "array absent" form rather than keeping a stale Ways.
			return ArrayConfig{}
		}
		if a.Entries < a.Ways {
			a.Ways = a.Entries
		}
		if a.Ways < 1 {
			a.Ways = 1
		}
		return a
	}
	large := factor / 4
	if large < 1 {
		large = 1
	}
	return Config{
		L1D4K: s(c.L1D4K, factor), L1D2M: s(c.L1D2M, large), L1D1G: s(c.L1D1G, large),
		L1I4K: s(c.L1I4K, factor), L1I2M: s(c.L1I2M, large),
		L24K: s(c.L24K, factor), L22M: s(c.L22M, large),
	}
}

// Stats counts hierarchy events.
type Stats struct {
	Lookups  uint64
	L1Hits   uint64
	L2Hits   uint64
	Misses   uint64
	Flushes  uint64
	Invalids uint64
}

// MissRatio returns Misses/Lookups.
func (s Stats) MissRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// Result is a successful TLB translation.
type Result struct {
	PA    uint64 // full translated physical address
	Size  pagetable.Size
	Flags pagetable.Entry
	Level int // 1 = L1 hit, 2 = L2 hit
}

// probe pairs an array with its page size, so Lookup walks a precomputed
// dense list of present arrays instead of re-testing nil slots per access.
type probe struct {
	c    *setAssoc
	size pagetable.Size
}

// Hierarchy is a per-core two-level TLB.
type Hierarchy struct {
	cfg   Config
	d1    [3]*setAssoc // indexed by pagetable.Size
	i1    [3]*setAssoc
	l2    [3]*setAssoc
	stats Stats

	// Precomputed hot-path views (built once in NewHierarchy): per-side
	// probe order and the flat list of every present array for the
	// invalidate/flush broadcasts. These remove the per-call slice-literal
	// allocations and nil re-checks from the access path.
	d1probe []probe
	i1probe []probe
	l2probe []probe
	all     []*setAssoc

	// gen is the invalidation generation: it advances on every
	// InvalidatePage/FlushASID/FlushAll, never on lookups or inserts. A
	// caller-held memo of a positive lookup tagged with the generation it
	// was made at is therefore still resident (and unchanged) as long as
	// the generation matches and the caller made no intervening lookups —
	// the contract behind the per-core L0 translation memo (see
	// DESIGN.md "Performance engineering").
	gen uint64
}

// NewHierarchy builds the hierarchy from cfg. Arrays with zero entries are
// absent and never hit.
func NewHierarchy(cfg Config) *Hierarchy {
	mk := func(size pagetable.Size, a ArrayConfig) *setAssoc {
		if a.Entries <= 0 {
			return nil
		}
		return newSetAssoc(size, a.Entries, a.Ways)
	}
	h := &Hierarchy{
		cfg: cfg,
		d1: [3]*setAssoc{
			pagetable.Size4K: mk(pagetable.Size4K, cfg.L1D4K),
			pagetable.Size2M: mk(pagetable.Size2M, cfg.L1D2M),
			pagetable.Size1G: mk(pagetable.Size1G, cfg.L1D1G),
		},
		i1: [3]*setAssoc{
			pagetable.Size4K: mk(pagetable.Size4K, cfg.L1I4K),
			pagetable.Size2M: mk(pagetable.Size2M, cfg.L1I2M),
		},
		l2: [3]*setAssoc{
			pagetable.Size4K: mk(pagetable.Size4K, cfg.L24K),
			pagetable.Size2M: mk(pagetable.Size2M, cfg.L22M),
		},
	}
	probes := func(group *[3]*setAssoc) []probe {
		var ps []probe
		for sz, c := range group {
			if c != nil {
				ps = append(ps, probe{c: c, size: pagetable.Size(sz)})
				h.all = append(h.all, c)
			}
		}
		return ps
	}
	h.d1probe = probes(&h.d1)
	h.i1probe = probes(&h.i1)
	h.l2probe = probes(&h.l2)
	return h
}

// Stats returns a copy of the accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Gen returns the invalidation generation. It advances on every
// InvalidatePage, FlushASID, and FlushAll — any operation that can remove
// or narrow a cached translation — and never on lookups or inserts.
func (h *Hierarchy) Gen() uint64 { return h.gen }

// NoteRepeatL1Hit accounts an L1 hit on the line of the hierarchy's most
// recent lookup hit or insert, without probing: a caller-held memo of the
// preceding successful lookup (the L0 memo), or the Result of an Insert
// that reported an L1 fill (a walk's fill is its hit). It performs exactly
// the statistics updates a Lookup L1 hit would. The LRU touch and the clock
// ticks of the probe are deliberately skipped: the line is already
// most-recent in its set, and per-array clocks only order entries relative
// to one another — skipping uniform clock advances cannot change any future
// victim choice.
func (h *Hierarchy) NoteRepeatL1Hit() {
	h.stats.Lookups++
	h.stats.L1Hits++
}

// ResetStats zeroes the counters without touching cache contents.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Reset restores the hierarchy to its post-construction state: every array
// emptied with its LRU clock rewound, statistics zeroed. The invalidation
// generation advances (it is monotonic for the hierarchy's lifetime), so
// any caller-held memo tagged with an older generation is invalid by
// construction — exactly as after a FlushAll.
func (h *Hierarchy) Reset() {
	for _, c := range h.all {
		c.reset()
	}
	h.stats = Stats{}
	h.gen++
}

// Lookup probes the hierarchy for va in address space asid. fetch selects
// the instruction side. An L2 hit refills the appropriate L1 array.
func (h *Hierarchy) Lookup(asid uint16, va uint64, fetch bool) (Result, bool) {
	h.stats.Lookups++
	l1, l1probe := &h.d1, h.d1probe
	if fetch {
		l1, l1probe = &h.i1, h.i1probe
	}
	for _, p := range l1probe {
		if pa, flags, ok := p.c.lookup(asid, va); ok {
			h.stats.L1Hits++
			return Result{PA: pa | va&p.size.Mask(), Size: p.size, Flags: flags, Level: 1}, true
		}
	}
	for _, p := range h.l2probe {
		if pa, flags, ok := p.c.lookup(asid, va); ok {
			h.stats.L2Hits++
			if refill := l1[p.size]; refill != nil {
				refill.insert(asid, pagetable.PageBase(va, p.size), pa, flags)
			}
			return Result{PA: pa | va&p.size.Mask(), Size: p.size, Flags: flags, Level: 2}, true
		}
	}
	h.stats.Misses++
	return Result{}, false
}

// Insert fills the translation for va, as a hardware walker does after a
// walk: into the L1 array of the access's side and the L2 array for the
// page size, when present. paBase is the physical base of the size-sized
// mapping. fetch only chooses the side. A mapping whose size has no L1
// array on that side splinters into the largest smaller array the side
// has, as the real ITLB does with a 1G page (Sandy Bridge has no 1G ITLB
// array); the L2 line then has that size too.
//
// When an L1 array took the line, Insert returns true and the Result a
// Lookup of va would now return: an L1 hit on that line. That is exact
// when the caller's last Lookup of va on this side missed, as the walk it
// triggered touches no TLB array: every array probed before the filled one
// still misses, and the new line is the only match in its array.
// NoteRepeatL1Hit then accounts the hit without the probe.
func (h *Hierarchy) Insert(asid uint16, va uint64, size pagetable.Size, paBase uint64, flags pagetable.Entry, fetch bool) (Result, bool) {
	l1 := &h.d1
	if fetch {
		l1 = &h.i1
	}
	fill := size
	for fill > pagetable.Size4K && l1[fill] == nil {
		fill--
	}
	if l1[fill] == nil {
		fill = size // no array small enough: L2 only, at the mapping's size
	}
	paBase |= va & size.Mask() &^ fill.Mask()
	base := pagetable.PageBase(va, fill)
	c := l1[fill]
	if c != nil {
		c.insert(asid, base, paBase, flags)
	}
	if l2 := h.l2[fill]; l2 != nil {
		l2.insert(asid, base, paBase, flags)
	}
	if c == nil {
		return Result{}, false
	}
	return Result{PA: paBase | va&fill.Mask(), Size: fill, Flags: flags, Level: 1}, true
}

// InvalidatePage drops translations covering va for asid in every array
// (all page sizes, both L1 sides and L2), modeling INVLPG.
func (h *Hierarchy) InvalidatePage(asid uint16, va uint64) {
	h.stats.Invalids++
	h.gen++
	for _, c := range h.all {
		c.invalidate(asid, va)
	}
}

// FlushASID drops all non-global translations belonging to asid, modeling a
// CR3 write with PGE enabled.
func (h *Hierarchy) FlushASID(asid uint16) {
	h.stats.Flushes++
	h.gen++
	for _, c := range h.all {
		c.flush(asid, false, true)
	}
}

// FlushAll drops every translation including globals.
func (h *Hierarchy) FlushAll() {
	h.stats.Flushes++
	h.gen++
	for _, c := range h.all {
		c.flush(0, true, false)
	}
}

// Occupancy reports valid entries per level for debugging.
func (h *Hierarchy) Occupancy() (l1, l2 int) {
	for _, c := range h.d1 {
		if c != nil {
			l1 += c.occupancy()
		}
	}
	for _, c := range h.i1 {
		if c != nil {
			l1 += c.occupancy()
		}
	}
	for _, c := range h.l2 {
		if c != nil {
			l2 += c.occupancy()
		}
	}
	return l1, l2
}

// String summarizes the configuration.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("TLB{L1D 4K:%d 2M:%d 1G:%d, L1I 4K:%d 2M:%d, L2 4K:%d 2M:%d}",
		h.cfg.L1D4K.Entries, h.cfg.L1D2M.Entries, h.cfg.L1D1G.Entries,
		h.cfg.L1I4K.Entries, h.cfg.L1I2M.Entries, h.cfg.L24K.Entries, h.cfg.L22M.Entries)
}
