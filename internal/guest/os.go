// Package guest implements the guest operating system of the simulation:
// processes with region-based address spaces, demand paging, copy-on-write,
// munmap/remap churn, a clock-style page reclaimer and context switches —
// the sources of the page-table updates whose cost the paper's techniques
// trade off.
//
// The same OS runs both natively and inside a VM: the Platform interface
// abstracts where backing pages come from and how TLB invalidations reach
// the hardware (directly when native, possibly via VM exits when shadowed).
package guest

import (
	"errors"
	"fmt"
	"sort"

	"agilepaging/internal/pagetable"
)

// Platform abstracts the layer below the OS.
type Platform interface {
	// NewProcessTable creates the page table for a new process in the
	// appropriate address space (host space natively, guest-physical space
	// in a VM, with VMM write interception installed).
	NewProcessTable(asid uint16) (*pagetable.Table, error)
	// AllocPage allocates a naturally-aligned backing page.
	AllocPage(size pagetable.Size) (uint64, error)
	// FreePage returns a backing page.
	FreePage(pa uint64, size pagetable.Size)
	// TLBInvalidate is the OS's INVLPG for one page of asid.
	TLBInvalidate(asid uint16, va uint64)
	// TLBInvalidateSpan invalidates every cached translation for the single
	// page mapping [va, va+size). Natively one TLB entry covers the whole
	// page, so this is a plain INVLPG; a hypervisor platform must also cover
	// splintered entries when the host backs the page at a smaller size
	// (a collapsed 2M guest page over 4K host pages caches up to 512
	// distinct hardware translations).
	TLBInvalidateSpan(asid uint16, va uint64, size pagetable.Size)
	// TLBFlush is the OS's full TLB flush for asid.
	TLBFlush(asid uint16)
	// StructuralEdit is the OS's advance notice that [va, va+size) is about
	// to be rebuilt at a different page-table level (THP collapse). Natively
	// it is a range invalidation; under a VMM it additionally drops the
	// covering shadow subtree before the guest tables change underneath it.
	StructuralEdit(asid uint16, va uint64, size pagetable.Size)
}

// Stats counts guest OS activity.
type Stats struct {
	PageFaults     uint64 // demand-paging faults served
	COWBreaks      uint64 // copy-on-write resolutions
	MapsInstalled  uint64 // leaf mappings created
	Unmapped       uint64 // leaf mappings removed
	ReclaimScanned uint64 // pages visited by the clock hand
	ReclaimEvicted uint64
	CtxSwitches    uint64
	Collapses      uint64 // THP promotions (4K x512 -> 2M)
}

// Errors.
//
// Concurrency contract: these are the package's only package-level
// variables; they are assigned once at init and never written again, so
// concurrent simulations (one OS per cpu.Machine, driven in parallel by
// internal/sweep) may compare against them freely.
var (
	ErrNoProcess = errors.New("guest: no such process")
	ErrNoRegion  = errors.New("guest: address outside any region")
	ErrOverlap   = errors.New("guest: region overlaps existing mapping")
	// ErrCollapseUnsuitable reports a THP collapse refused before any state
	// changed: the range is not fully 4K-mapped, crosses a region boundary,
	// or has no region at all. khugepaged simply skips such ranges.
	ErrCollapseUnsuitable = errors.New("guest: range unsuitable for collapse")
)

// Region is a VMA: a contiguous range of the process address space with a
// page-size policy.
type Region struct {
	Base     uint64
	Length   uint64
	PageSize pagetable.Size
	Writable bool
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Length }

// Process is one guest process.
type Process struct {
	PID  int
	ASID uint16
	PT   *pagetable.Table

	regions map[uint64]*Region // by base
	sorted  []uint64           // sorted bases, rebuilt on change

	// cow marks page bases currently shared copy-on-write.
	cow map[uint64]bool

	// clockHand remembers the reclaim scan position.
	clockHand int

	// nextBase is a simple bump allocator for AllocRegion.
	nextBase uint64
}

// OS is the guest operating system.
type OS struct {
	plat    Platform
	procs   map[int]*Process
	current *Process
	stats   Stats

	// leaves is ReclaimScan's snapshot of the scanned process's leaves,
	// kept across scans and across Reset.
	leaves []pagetable.Leaf
}

// New creates an OS on the given platform.
func New(plat Platform) *OS {
	return &OS{plat: plat, procs: make(map[int]*Process)}
}

// Stats returns accumulated counters.
func (o *OS) Stats() Stats { return o.stats }

// ResetStats zeroes the counters.
func (o *OS) ResetStats() { o.stats = Stats{} }

// Reset tears down every process and restores the OS to its post-New
// state. It does not free the processes' pages or page tables individually:
// Reset is part of whole-machine recycling, where the backing Memory is
// reset wholesale and per-page frees would be wasted work on frames already
// reclaimed.
func (o *OS) Reset() {
	clear(o.procs)
	o.current = nil
	o.stats = Stats{}
}

// CreateProcess registers a new process. The first process created becomes
// current.
func (o *OS) CreateProcess(pid int, asid uint16) (*Process, error) {
	if _, dup := o.procs[pid]; dup {
		return nil, fmt.Errorf("guest: duplicate pid %d", pid)
	}
	pt, err := o.plat.NewProcessTable(asid)
	if err != nil {
		return nil, err
	}
	p := &Process{
		PID:      pid,
		ASID:     asid,
		PT:       pt,
		regions:  make(map[uint64]*Region),
		cow:      make(map[uint64]bool),
		nextBase: 0x0000_1000_0000,
	}
	o.procs[pid] = p
	if o.current == nil {
		o.current = p
	}
	return p, nil
}

// Process returns the process with the given pid.
func (o *OS) Process(pid int) (*Process, error) {
	p, ok := o.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, pid)
	}
	return p, nil
}

// Current returns the running process.
func (o *OS) Current() *Process { return o.current }

// ContextSwitch makes pid current and returns the process. The machine
// layer performs the platform-specific CR3 handling.
func (o *OS) ContextSwitch(pid int) (*Process, error) {
	p, err := o.Process(pid)
	if err != nil {
		return nil, err
	}
	if p != o.current {
		o.stats.CtxSwitches++
		o.current = p
	}
	return p, nil
}

// Mmap registers a region [addr, addr+length) with the given page-size
// policy. Pages are demand-faulted; use Populate for eager mapping.
func (o *OS) Mmap(pid int, addr, length uint64, size pagetable.Size, writable bool) (*Region, error) {
	p, err := o.Process(pid)
	if err != nil {
		return nil, err
	}
	addr = pagetable.PageBase(addr, size)
	length = (length + size.Mask()) &^ size.Mask()
	if length == 0 {
		return nil, errors.New("guest: zero-length mmap")
	}
	for _, r := range p.regions {
		if addr < r.End() && addr+length > r.Base {
			return nil, fmt.Errorf("%w: [%#x,%#x)", ErrOverlap, addr, addr+length)
		}
	}
	r := &Region{Base: addr, Length: length, PageSize: size, Writable: writable}
	p.regions[addr] = r
	p.rebuildIndex()
	return r, nil
}

// AllocRegion places a region of the given length at an OS-chosen address.
func (o *OS) AllocRegion(pid int, length uint64, size pagetable.Size, writable bool) (*Region, error) {
	p, err := o.Process(pid)
	if err != nil {
		return nil, err
	}
	base := (p.nextBase + size.Mask()) &^ size.Mask()
	length = (length + size.Mask()) &^ size.Mask()
	p.nextBase = base + length + size.Bytes() // guard gap
	return o.Mmap(pid, base, length, size, writable)
}

// Munmap removes the region containing addr, unmapping every populated page
// (each unmap is a guest page-table write) and invalidating the TLB.
func (o *OS) Munmap(pid int, addr uint64) error {
	p, err := o.Process(pid)
	if err != nil {
		return err
	}
	r := p.regionAt(addr)
	if r == nil {
		return fmt.Errorf("%w: %#x", ErrNoRegion, addr)
	}
	for va := r.Base; va < r.End(); va += r.PageSize.Bytes() {
		res, ok := p.PT.TryLookup(va)
		if !ok {
			continue
		}
		// The mapping may be larger than the region's page-size policy if
		// pages were collapsed (THP); unmap at the mapped granularity.
		base := pagetable.PageBase(va, res.Size)
		if err := p.PT.Unmap(base, res.Size); err != nil {
			return err
		}
		o.plat.FreePage(res.Entry.Addr(), res.Size)
		o.plat.TLBInvalidateSpan(p.ASID, base, res.Size)
		o.stats.Unmapped++
		delete(p.cow, base)
	}
	delete(p.regions, r.Base)
	p.rebuildIndex()
	return nil
}

// Collapse promotes the 512 4K mappings covering the 2M-aligned address
// va into a single 2M mapping, as transparent-huge-page support does
// (paper §V "Large Page Support", §VI's THP setting). Every page of the
// range must currently be mapped at 4K. The promotion rewrites the page
// table — 512 unmaps, a table prune, and a 2M install — which is exactly
// the kind of burst that is cheap under nested paging and expensive under
// shadow paging.
func (o *OS) Collapse(pid int, va uint64) error {
	p, err := o.Process(pid)
	if err != nil {
		return err
	}
	base := pagetable.PageBase(va, pagetable.Size2M)
	r := p.regionAt(base)
	if r == nil {
		return fmt.Errorf("%w: %w: %#x", ErrCollapseUnsuitable, ErrNoRegion, base)
	}
	if base < r.Base || base+pagetable.Size2M.Bytes() > r.End() {
		return fmt.Errorf("%w: %#x crosses the boundary of region [%#x,%#x)",
			ErrCollapseUnsuitable, base, r.Base, r.End())
	}
	// Verify the whole range is 4K-mapped, and record the old entries so a
	// mid-rewrite failure can restore them. COW-shared pages are resolved by
	// the copy the collapse itself performs (khugepaged collapses such
	// ranges by copying into the new huge page): the old shared frames stay
	// alive for their other referents and the 2M page comes up private.
	var old [512]pagetable.Entry
	for i := range old {
		off := uint64(i) * pagetable.Size4K.Bytes()
		res, ok := p.PT.TryLookup(base + off)
		if !ok {
			return fmt.Errorf("%w: %#x is not mapped", ErrCollapseUnsuitable, base+off)
		}
		if res.Size != pagetable.Size4K {
			return fmt.Errorf("%w: %#x already mapped at %s", ErrCollapseUnsuitable, base+off, res.Size)
		}
		old[i] = res.Entry
	}
	pa, err := o.plat.AllocPage(pagetable.Size2M)
	if err != nil {
		return err
	}
	// Notify the platform before the first table edit: under shadow or
	// agile paging the VMM must drop the shadow subtree covering the range
	// (and natively the whole range's TLB entries go) before the guest
	// table is rebuilt underneath it.
	o.plat.StructuralEdit(p.ASID, base, pagetable.Size2M)
	restore := func(n int) {
		for i := 0; i < n; i++ {
			off := uint64(i) * pagetable.Size4K.Bytes()
			_ = p.PT.Map(base+off, old[i].Addr(), pagetable.Size4K, old[i].Flags())
		}
		o.plat.FreePage(pa, pagetable.Size2M)
		o.plat.TLBFlush(p.ASID)
	}
	for i := range old {
		if err := p.PT.Unmap(base+uint64(i)*pagetable.Size4K.Bytes(), pagetable.Size4K); err != nil {
			restore(i)
			return err
		}
	}
	p.PT.FreeEmpty() // release the now-empty leaf table so the slot can hold a 2M entry
	flags := pagetable.FlagUser | pagetable.FlagAccessed
	if r.Writable {
		// The copy into the new huge page dirties it; a read-only region's
		// collapse stays read-only (and the next write faults as usual).
		flags |= pagetable.FlagWrite | pagetable.FlagDirty
	}
	if err := p.PT.Map(base, pa, pagetable.Size2M, flags); err != nil {
		restore(len(old))
		return err
	}
	for i, e := range old {
		off := uint64(i) * pagetable.Size4K.Bytes()
		if p.cow[base+off] {
			// Still shared with another snapshot; not ours to free.
			delete(p.cow, base+off)
			continue
		}
		o.plat.FreePage(e.Addr(), pagetable.Size4K)
	}
	o.stats.Collapses++
	return nil
}

// Populate eagerly maps every page of the region containing addr.
func (o *OS) Populate(pid int, addr uint64) error {
	p, err := o.Process(pid)
	if err != nil {
		return err
	}
	r := p.regionAt(addr)
	if r == nil {
		return fmt.Errorf("%w: %#x", ErrNoRegion, addr)
	}
	for va := r.Base; va < r.End(); va += r.PageSize.Bytes() {
		if _, ok := p.PT.TryLookup(va); ok {
			continue
		}
		// Populated pages model initialized data: the program wrote them
		// while building its working set, so they are accessed and dirty.
		if err := o.mapOne(p, r, va, true); err != nil {
			return err
		}
	}
	return nil
}

// HandlePageFault services a page fault at va: demand allocation for
// unmapped pages inside a region, copy-on-write resolution for writes to
// COW pages. It returns ErrNoRegion for a true segmentation fault.
func (o *OS) HandlePageFault(pid int, va uint64, write bool) error {
	p, err := o.Process(pid)
	if err != nil {
		return err
	}
	r := p.regionAt(va)
	if r == nil {
		return fmt.Errorf("%w: %#x", ErrNoRegion, va)
	}
	o.stats.PageFaults++
	base := pagetable.PageBase(va, r.PageSize)
	if res, ok := p.PT.TryLookup(base); ok {
		if write && p.cow[base] {
			return o.breakCOW(p, r, base, res)
		}
		// Mapped and not COW: spurious fault (stale TLB state); nothing to do.
		return nil
	}
	return o.mapOne(p, r, base, write)
}

// mapOne demand-allocates one page of region r at va.
func (o *OS) mapOne(p *Process, r *Region, va uint64, write bool) error {
	pa, err := o.plat.AllocPage(r.PageSize)
	if err != nil {
		return err
	}
	flags := pagetable.FlagUser
	if r.Writable {
		flags |= pagetable.FlagWrite
	}
	if write {
		flags |= pagetable.FlagDirty | pagetable.FlagAccessed
	}
	if err := p.PT.Map(va, pa, r.PageSize, flags); err != nil {
		return err
	}
	o.stats.MapsInstalled++
	return nil
}

// MarkCOW write-protects every populated page of the region containing
// addr, as fork or a snapshot does. Each page costs a guest page-table
// write plus a TLB invalidation — the exact sequence the paper cites as
// requiring two VMtraps per page under shadow paging (§II-B).
func (o *OS) MarkCOW(pid int, addr uint64) error {
	p, err := o.Process(pid)
	if err != nil {
		return err
	}
	r := p.regionAt(addr)
	if r == nil {
		return fmt.Errorf("%w: %#x", ErrNoRegion, addr)
	}
	for va := r.Base; va < r.End(); va += r.PageSize.Bytes() {
		if _, ok := p.PT.TryLookup(va); !ok {
			continue
		}
		if err := p.PT.ClearFlags(va, pagetable.FlagWrite); err != nil {
			return err
		}
		p.cow[va] = true
		o.plat.TLBInvalidate(p.ASID, va)
	}
	return nil
}

// breakCOW gives va a private writable copy.
func (o *OS) breakCOW(p *Process, r *Region, va uint64, res pagetable.WalkResult) error {
	pa, err := o.plat.AllocPage(r.PageSize)
	if err != nil {
		return err
	}
	flags := pagetable.FlagUser | pagetable.FlagWrite | pagetable.FlagDirty | pagetable.FlagAccessed
	if err := p.PT.Remap(va, pa, res.Size, flags); err != nil {
		return err
	}
	delete(p.cow, va)
	o.plat.TLBInvalidateSpan(p.ASID, pagetable.PageBase(va, res.Size), res.Size)
	o.stats.COWBreaks++
	return nil
}

// ReclaimScan runs the clock algorithm over up to n populated pages of the
// current process: referenced pages get their accessed bit cleared (a
// page-table write plus invalidation); unreferenced pages are evicted.
// This is the paper's memory-pressure scenario (§V).
func (o *OS) ReclaimScan(pid int, n int) (evicted int, err error) {
	p, perr := o.Process(pid)
	if perr != nil {
		return 0, perr
	}
	o.leaves = o.leaves[:0]
	p.PT.VisitLeaves(func(l pagetable.Leaf) bool {
		o.leaves = append(o.leaves, l)
		return true
	})
	leaves := o.leaves
	if len(leaves) == 0 {
		return 0, nil
	}
	if n > len(leaves) {
		// Never revisit a leaf within one scan: a page evicted earlier in
		// the pass must not be touched again through the stale snapshot.
		n = len(leaves)
	}
	for i := 0; i < n; i++ {
		l := leaves[(p.clockHand+i)%len(leaves)]
		o.stats.ReclaimScanned++
		if l.Entry.Accessed() {
			if err := p.PT.ClearFlags(l.VA, pagetable.FlagAccessed); err != nil {
				return evicted, err
			}
			o.plat.TLBInvalidateSpan(p.ASID, l.VA, l.Size)
			continue
		}
		if err := p.PT.Unmap(l.VA, l.Size); err != nil {
			return evicted, err
		}
		o.plat.FreePage(l.Entry.Addr(), l.Size)
		o.plat.TLBInvalidateSpan(p.ASID, l.VA, l.Size)
		o.stats.Unmapped++
		o.stats.ReclaimEvicted++
		evicted++
	}
	p.clockHand = (p.clockHand + n) % len(leaves)
	return evicted, nil
}

// Region lookup helpers.

func (p *Process) regionAt(va uint64) *Region {
	i := sort.Search(len(p.sorted), func(i int) bool { return p.sorted[i] > va })
	if i == 0 {
		return nil
	}
	r := p.regions[p.sorted[i-1]]
	if va >= r.Base && va < r.End() {
		return r
	}
	return nil
}

func (p *Process) rebuildIndex() {
	p.sorted = p.sorted[:0]
	for b := range p.regions {
		p.sorted = append(p.sorted, b)
	}
	sort.Slice(p.sorted, func(i, j int) bool { return p.sorted[i] < p.sorted[j] })
}

// Regions returns the process's regions in address order.
func (p *Process) Regions() []Region {
	out := make([]Region, 0, len(p.sorted))
	for _, b := range p.sorted {
		out = append(out, *p.regions[b])
	}
	return out
}

// RegionContaining returns the region covering va.
func (p *Process) RegionContaining(va uint64) (Region, bool) {
	r := p.regionAt(va)
	if r == nil {
		return Region{}, false
	}
	return *r, true
}

// IsCOW reports whether the page at va is currently marked copy-on-write.
func (p *Process) IsCOW(va uint64) bool { return p.cow[va] }
