// Package tlb models the per-core TLB hierarchy of the evaluation machine
// (paper Table III: Intel Sandy Bridge): split L1 instruction/data TLBs with
// separate arrays per page size, backed by a unified L2 TLB. Entries map a
// virtual page directly to a host-physical page — under virtualization the
// cached translation is gVA⇒hPA regardless of technique (paper Table I).
package tlb

import (
	"math/bits"

	"agilepaging/internal/pagetable"
)

// line is one TLB entry.
type line struct {
	valid   bool
	asid    uint16
	global  bool
	vpn     uint64
	paBase  uint64
	flags   pagetable.Entry
	lastUse uint64
}

// setAssoc is a set-associative translation cache with LRU replacement for
// a single page size.
type setAssoc struct {
	size  pagetable.Size
	sets  int
	ways  int
	lines []line // sets*ways, row-major by set
	clock uint64
	// nvalid counts the valid lines. A lookup on an array with none
	// returns a miss without ticking the clock (see lookup).
	nvalid int

	// Hot-path indexing state, precomputed at construction: page sizes are
	// powers of two, so the VPN is a shift; set counts usually are too, so
	// the set index is usually a mask (with a modulo fallback otherwise).
	pageShift uint   // log2(size.Bytes())
	setMask   uint64 // sets-1 when sets is a power of two
	setsPow2  bool
}

// newSetAssoc builds a cache with the given total entries and associativity.
// entries is rounded up so that sets = entries/ways >= 1; ways > entries
// degenerates into a fully-associative cache.
func newSetAssoc(size pagetable.Size, entries, ways int) *setAssoc {
	if entries < 1 {
		entries = 1
	}
	if ways < 1 {
		ways = 1
	}
	if ways > entries {
		ways = entries
	}
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	c := &setAssoc{
		size:  size,
		sets:  sets,
		ways:  ways,
		lines: make([]line, sets*ways),
	}
	c.pageShift = uint(bits.TrailingZeros64(size.Bytes()))
	if sets&(sets-1) == 0 {
		c.setsPow2 = true
		c.setMask = uint64(sets - 1)
	}
	return c
}

func (c *setAssoc) vpn(va uint64) uint64 {
	return va >> c.pageShift
}

func (c *setAssoc) set(vpn uint64) []line {
	var s int
	if c.setsPow2 {
		s = int(vpn & c.setMask)
	} else {
		s = int(vpn % uint64(c.sets))
	}
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// lookup probes the cache. On hit it refreshes LRU state and returns the
// cached entry. An empty array is not probed and its clock does not tick.
// That is exact: the clock only orders lines that are valid at the same
// time, and every touch of a line (insert or hit) still ticks it.
func (c *setAssoc) lookup(asid uint16, va uint64) (paBase uint64, flags pagetable.Entry, ok bool) {
	if c.nvalid == 0 {
		return 0, 0, false
	}
	c.clock++
	vpn := c.vpn(va)
	set := c.set(vpn)
	for i := range set {
		l := &set[i]
		if l.valid && l.vpn == vpn && (l.global || l.asid == asid) {
			l.lastUse = c.clock
			return l.paBase, l.flags, true
		}
	}
	return 0, 0, false
}

// insert fills the cache, evicting the LRU way of the set if needed.
func (c *setAssoc) insert(asid uint16, va, paBase uint64, flags pagetable.Entry) {
	c.clock++
	vpn := c.vpn(va)
	set := c.set(vpn)
	victim := 0
	for i := range set {
		l := &set[i]
		if l.valid && l.vpn == vpn && (l.global || l.asid == asid) {
			victim = i // refresh existing entry in place
			break
		}
		if !l.valid {
			victim = i
			break
		}
		if l.lastUse < set[victim].lastUse {
			victim = i
		}
	}
	l := &set[victim]
	if !l.valid {
		c.nvalid++
	}
	l.valid = true
	l.asid = asid
	l.global = flags&pagetable.FlagGlobal != 0
	l.vpn = vpn
	l.paBase = paBase
	l.flags = flags
	l.lastUse = c.clock
}

// invalidate drops any entry covering va in the given address space.
func (c *setAssoc) invalidate(asid uint16, va uint64) {
	if c.nvalid == 0 {
		return
	}
	vpn := c.vpn(va)
	set := c.set(vpn)
	for i := range set {
		l := &set[i]
		if l.valid && l.vpn == vpn && (l.global || l.asid == asid) {
			l.valid = false
			c.nvalid--
		}
	}
}

// flush drops entries. If keepGlobal, global entries survive (a CR3 write
// without PGE flush); if asid != flushAllASIDs only that space is dropped.
func (c *setAssoc) flush(asid uint16, all bool, keepGlobal bool) {
	if c.nvalid == 0 {
		return
	}
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if !all && l.asid != asid {
			continue
		}
		if keepGlobal && l.global {
			continue
		}
		l.valid = false
		c.nvalid--
	}
}

// reset restores the cache to its post-construction state: every line
// invalid and zeroed, the LRU clock at zero. Restoring the clock (not just
// validity) makes replacement decisions after a reset replay exactly as on
// a fresh cache.
func (c *setAssoc) reset() {
	clear(c.lines)
	c.clock = 0
	c.nvalid = 0
}

// occupancy reports the number of valid lines.
func (c *setAssoc) occupancy() int { return c.nvalid }
