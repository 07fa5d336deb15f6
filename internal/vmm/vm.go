package vmm

import (
	"errors"
	"fmt"
	"math"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
)

// MMU is the hardware-translation coherence interface the VMM drives: when
// page tables change, stale entries must leave the TLBs, page walk caches
// and nested TLB. Package cpu implements it over the real structures.
type MMU interface {
	// InvalidatePage drops TLB entries covering gva in address space asid.
	InvalidatePage(asid uint16, gva uint64)
	// FlushASID drops all non-global TLB entries of asid.
	FlushASID(asid uint16)
	// PWCInvalidateVA drops partial walk translations covering gva.
	PWCInvalidateVA(asid uint16, gva uint64)
	// PWCFlushASID drops all partial walk translations of asid.
	PWCFlushASID(asid uint16)
	// NTLBInvalidateGPA drops the nested-TLB entry of a guest-physical page.
	NTLBInvalidateGPA(vmid uint16, gpa uint64)
}

// NopMMU discards all invalidations; useful for unit tests and trace
// analysis where no hardware structures exist.
type NopMMU struct{}

// InvalidatePage implements MMU.
func (NopMMU) InvalidatePage(uint16, uint64) {}

// FlushASID implements MMU.
func (NopMMU) FlushASID(uint16) {}

// PWCInvalidateVA implements MMU.
func (NopMMU) PWCInvalidateVA(uint16, uint64) {}

// PWCFlushASID implements MMU.
func (NopMMU) PWCFlushASID(uint16) {}

// NTLBInvalidateGPA implements MMU.
func (NopMMU) NTLBInvalidateGPA(uint16, uint64) {}

// Config describes one virtual machine.
type Config struct {
	// Technique is the memory-virtualization technique the VM runs under:
	// walker.ModeNested, ModeShadow, or ModeAgile.
	Technique walker.Mode
	// RAMBytes is the guest-physical memory size.
	RAMBytes uint64
	// HostPageSize is the page size the VMM uses in the host page table.
	HostPageSize pagetable.Size
	// HardwareAD enables the paper's §IV optimization: the MMU propagates
	// accessed/dirty bits to all three tables with an extra nested walk
	// instead of a VM exit.
	HardwareAD bool
	// CtxSwitchCacheEntries sizes the paper's §IV gptr⇒sptr hardware
	// cache (4-8 entries suggested); 0 disables it.
	CtxSwitchCacheEntries int
	// Costs is the VMtrap cost model.
	Costs CostModel
}

// DefaultConfig returns a VM configuration matching the paper's baseline
// hardware: 4K host pages, no optional optimizations.
func DefaultConfig(technique walker.Mode) Config {
	return Config{
		Technique:    technique,
		RAMBytes:     1 << 30,
		HostPageSize: pagetable.Size4K,
		Costs:        DefaultCostModel(),
	}
}

// VM is one virtual machine: a guest-physical address space, its host page
// table, and the shadow contexts of its guest processes.
type VM struct {
	mem *memsim.Memory
	mmu MMU
	id  uint16
	cfg Config

	hpt      *pagetable.Table
	gpaNext  uint64
	gpaLimit uint64
	gpaFree  []uint64

	// frames maps a guest frame number to the host frame backing it, the
	// role KVM's memslots play, so the software reads of guest page tables
	// (guestPhysSpace.FrameFor) do not re-walk the host table. 0 means not
	// recorded: host frame 0 is the nil frame. Every host-leaf change
	// updates it (back, DedupPages, DedupAcrossVMs, resolveHostCOW), and
	// it covers guest frames below gpaLimit only, growing by doubling: 4
	// bytes per guest page up to the highest backed one.
	frames []uint32

	// rmapHeads and rmapNodes are the reverse map from a guest page to the
	// shadow leaves filled through it, which hostPageChanged zaps when the
	// VMM changes the page's host mapping. rmapHeads is indexed by guest
	// frame number and, like frames, covers guest RAM only (the guest OS
	// maps no page outside it), growing by doubling: 4 bytes per guest
	// page up to the highest one filled through. An entry is one plus the
	// index of the page's most recent node in rmapNodes, 0 for none.
	// fillShadowLeaf adds a node per fill: a refill of one gVA adds a
	// duplicate, and a leaf zapped and refilled through another page
	// leaves its node behind. Reset empties both and keeps their capacity.
	rmapHeads []uint32
	rmapNodes []rmapNode

	// subtree is PlantSwitch's scratch list of guest table pages.
	subtree []uint64

	ctxs    map[uint16]*Context // by ASID
	current *Context

	// ctxCache models the §IV context-switch hardware cache: recently used
	// guest root gPAs whose shadow context can be installed without a trap.
	ctxCache []uint64

	observer func(TrapKind)

	stats Stats
}

// rmapNode records one shadow leaf fill: the gVA in address space asid,
// and next, the rmapHeads encoding of the previous node of the same guest
// page.
type rmapNode struct {
	gva  uint64
	next uint32
	asid uint16
}

// ErrGuestOOM is returned when the guest-physical address space is full.
var ErrGuestOOM = errors.New("vmm: guest physical memory exhausted")

// gpaBase is the first usable guest-physical address: guest page 0 stays
// unmapped so a zero gPA can mean "no page".
const gpaBase = 0x1000

// New creates a VM backed by mem, with its guest-physical space starting at
// a fixed base. The MMU hooks may be NopMMU for table-only tests.
func New(mem *memsim.Memory, mmu MMU, id uint16, cfg Config) (*VM, error) {
	if cfg.Technique != walker.ModeNested && cfg.Technique != walker.ModeShadow && cfg.Technique != walker.ModeAgile {
		return nil, fmt.Errorf("vmm: invalid technique %v", cfg.Technique)
	}
	hpt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		return nil, err
	}
	return &VM{
		mem:      mem,
		mmu:      mmu,
		id:       id,
		cfg:      cfg,
		hpt:      hpt,
		gpaNext:  gpaBase,
		gpaLimit: gpaBase + cfg.RAMBytes,
		ctxs:     make(map[uint16]*Context),
	}, nil
}

// Reset restores the VM to its post-New state under cfg, which may differ
// from the construction config only in non-structural fields (cost model,
// hardware A/D, context-switch cache size): all guest contexts and shadow
// tables are dropped and the guest-physical allocator rewinds to its base.
// The caller must have reset the backing Memory first — Reset does not free
// the old host page table's frames individually, it re-roots a fresh one —
// so the frame-allocation sequence after Reset replays exactly as after New.
func (vm *VM) Reset(cfg Config) error {
	if cfg.Technique != walker.ModeNested && cfg.Technique != walker.ModeShadow && cfg.Technique != walker.ModeAgile {
		return fmt.Errorf("vmm: invalid technique %v", cfg.Technique)
	}
	vm.cfg = cfg
	if err := vm.hpt.Reset(); err != nil {
		return err
	}
	vm.gpaNext = gpaBase
	vm.gpaLimit = gpaBase + cfg.RAMBytes
	vm.gpaFree = vm.gpaFree[:0]
	clear(vm.frames)
	vm.frames = vm.frames[:0]
	clear(vm.rmapHeads)
	vm.rmapHeads = vm.rmapHeads[:0]
	vm.rmapNodes = vm.rmapNodes[:0]
	clear(vm.ctxs)
	vm.current = nil
	vm.ctxCache = vm.ctxCache[:0]
	vm.observer = nil
	vm.stats = Stats{}
	return nil
}

// ID returns the VM identifier (nested-TLB tag).
func (vm *VM) ID() uint16 { return vm.id }

// Config returns the VM configuration.
func (vm *VM) Config() Config { return vm.cfg }

// HPT exposes the host page table (read-mostly; tests and the dirty-bit
// policy inspect it).
func (vm *VM) HPT() *pagetable.Table { return vm.hpt }

// Stats returns a copy of the accumulated VMM counters.
func (vm *VM) Stats() Stats { return vm.stats }

// ResetStats zeroes the VMM counters.
func (vm *VM) ResetStats() { vm.stats = Stats{} }

// SetTrapObserver installs a callback invoked on every VM exit — the
// analog of the paper's instrumented trace-cmd/KVM tracing (§VI step 1).
func (vm *VM) SetTrapObserver(fn func(TrapKind)) { vm.observer = fn }

// trap charges one VM exit of the given kind.
func (vm *VM) trap(kind TrapKind) {
	vm.stats.Traps[kind]++
	vm.stats.TrapCycles += vm.cfg.Costs.Cycles[kind]
	if vm.observer != nil {
		vm.observer(kind)
	}
}

// AllocGPA allocates one naturally-aligned guest-physical page of the given
// size and backs it with host memory. This models the guest OS's own frame
// allocator handing out guest RAM that the VMM backed at VM creation.
func (vm *VM) AllocGPA(size pagetable.Size) (uint64, error) {
	if size == pagetable.Size4K && len(vm.gpaFree) > 0 {
		gpa := vm.gpaFree[len(vm.gpaFree)-1]
		vm.gpaFree = vm.gpaFree[:len(vm.gpaFree)-1]
		return gpa, nil
	}
	gpa := (vm.gpaNext + size.Mask()) &^ size.Mask()
	if gpa+size.Bytes() > vm.gpaLimit {
		return 0, ErrGuestOOM
	}
	vm.gpaNext = gpa + size.Bytes()
	if err := vm.back(gpa, size); err != nil {
		return 0, err
	}
	return gpa, nil
}

// FreeGPA returns a 4K guest page to the guest allocator. Larger pages are
// not recycled (the workloads in this reproduction never need it).
func (vm *VM) FreeGPA(gpa uint64, size pagetable.Size) {
	if size == pagetable.Size4K {
		vm.gpaFree = append(vm.gpaFree, gpa)
	}
}

// back populates the host page table for [gpa, gpa+size) using the VM's
// host page size.
func (vm *VM) back(gpa uint64, size pagetable.Size) error {
	hps := vm.cfg.HostPageSize
	if hps.Bytes() > size.Bytes() {
		hps = size // never back a small guest page with a larger host page alone
	}
	for off := uint64(0); off < size.Bytes(); off += hps.Bytes() {
		g := gpa + off
		if _, ok := vm.hpt.TryLookup(g); ok {
			continue // already backed (e.g. inside an earlier 2M host page)
		}
		base := g &^ hps.Mask()
		if _, ok := vm.hpt.TryLookup(base); ok {
			continue
		}
		n := int(hps.Bytes() / memsim.FrameSize)
		f, err := vm.mem.AllocContiguousAligned(n, n)
		if err != nil {
			return err
		}
		if err := vm.hpt.Map(base, f.Addr(), hps, pagetable.FlagWrite); err != nil {
			return err
		}
		vm.setFrames(base, f, uint64(n))
	}
	return nil
}

// setFrames records in the frame table that the n guest pages from gpa
// are backed by the n host frames from f.
func (vm *VM) setFrames(gpa uint64, f memsim.Frame, n uint64) {
	g, limit := gpa>>memsim.FrameShift, vm.gpaLimit>>memsim.FrameShift
	end := min(g+n, limit)
	if end <= g {
		return
	}
	if last := uint64(f) + (end - g) - 1; last > math.MaxUint32 {
		panic(fmt.Sprintf("vmm: host frame %#x does not fit the frame table", last))
	}
	vm.frames = growGFNTable(vm.frames, end, limit)
	for i := g; i < end; i++ {
		vm.frames[i] = uint32(uint64(f) + (i - g))
	}
}

// growGFNTable extends a table indexed by guest frame number to at least n
// entries, doubling its capacity up to limit entries. The new entries are
// zero: Reset clears a table before truncating it.
func growGFNTable(t []uint32, n, limit uint64) []uint32 {
	if n <= uint64(len(t)) {
		return t
	}
	if n > uint64(cap(t)) {
		grown := make([]uint32, n, min(max(n, 2*uint64(cap(t))), limit))
		copy(grown, t)
		return grown
	}
	return t[:n]
}

// recordShadowLeaf adds to the reverse map that the shadow leaf for gva in
// address space asid was filled through the guest page at gpa.
func (vm *VM) recordShadowLeaf(gpa, gva uint64, asid uint16) {
	g, limit := gpa>>memsim.FrameShift, vm.gpaLimit>>memsim.FrameShift
	if g >= limit {
		return
	}
	vm.rmapHeads = growGFNTable(vm.rmapHeads, g+1, limit)
	vm.rmapNodes = append(vm.rmapNodes, rmapNode{gva: gva, next: vm.rmapHeads[g], asid: asid})
	vm.rmapHeads[g] = uint32(len(vm.rmapNodes))
}

// hostPageChanged zaps the shadow leaves the reverse map records for the
// guest page at gpa, in every context, after the VMM changed the page's
// host mapping, and empties the page's record. Each node clears at most
// one leaf and invalidates its gVA, so the order nodes are visited in
// changes no result.
func (vm *VM) hostPageChanged(gpa uint64) {
	g := gpa >> memsim.FrameShift
	if g >= uint64(len(vm.rmapHeads)) {
		return
	}
	for i := vm.rmapHeads[g]; i != 0; {
		n := vm.rmapNodes[i-1]
		i = n.next
		// Only a shadow fill records a node, and only Reset drops a
		// context, so the node's context exists and has a shadow table.
		ctx := vm.ctxs[n.asid]
		if r, ok := ctx.spt.TryLookup(n.gva); ok {
			_ = ctx.spt.SetEntryAt(n.gva, r.Level, 0)
			vm.stats.ShadowEntriesZapped++
		}
		ctx.invalidateGVA(n.gva)
	}
	vm.rmapHeads[g] = 0
}

// frameOf returns the host frame backing the guest page at gpa, or false
// if the frame table does not record the page.
func (vm *VM) frameOf(gpa uint64) (memsim.Frame, bool) {
	if g := gpa >> memsim.FrameShift; g < uint64(len(vm.frames)) {
		f := vm.frames[g]
		return memsim.Frame(f), f != 0
	}
	return 0, false
}

// TranslateGPA software-walks the host page table.
func (vm *VM) TranslateGPA(gpa uint64) (hpa uint64, writable bool, err error) {
	r, ok := vm.hpt.TryLookup(gpa)
	if !ok {
		_, err = vm.hpt.Lookup(gpa) // build the descriptive miss error
		return 0, false, err
	}
	return r.PA, r.Entry.Writable(), nil
}

// translateGPA is TranslateGPA for hot callers that treat a miss as a
// boolean condition; it never allocates.
func (vm *VM) translateGPA(gpa uint64) (hpa uint64, writable, ok bool) {
	r, ok := vm.hpt.TryLookup(gpa)
	if !ok {
		return 0, false, false
	}
	return r.PA, r.Entry.Writable(), true
}

// HandleHostFault services a host page table violation (VM exit). With the
// default eager backing this only fires for guest-physical holes, which are
// guest bugs; it is exercised by the host copy-on-write path.
func (vm *VM) HandleHostFault(gpa uint64, write bool) error {
	vm.trap(TrapHostFault)
	if _, ok := vm.hpt.TryLookup(gpa); !ok {
		return vm.back(gpa&^vm.cfg.HostPageSize.Mask(), vm.cfg.HostPageSize)
	}
	if write {
		return vm.resolveHostCOW(gpa)
	}
	return nil
}

// WriteProtectHostPage makes the host mapping of gpa read-only, as the
// VMM's content-based page sharing does (paper §V). Affected shadow entries
// and cached translations are invalidated.
func (vm *VM) WriteProtectHostPage(gpa uint64) error {
	if err := vm.hpt.ClearFlags(gpa, pagetable.FlagWrite); err != nil {
		return err
	}
	vm.mmu.NTLBInvalidateGPA(vm.id, gpa)
	vm.hostPageChanged(gpa)
	return nil
}

// DedupPages implements the VMM side of content-based page sharing (paper
// §V): after a scan finds gpaA and gpaB hold identical content, gpaB's host
// mapping is pointed at gpaA's frame, both become read-only, and gpaB's old
// frame is reclaimed. The first guest write to either page breaks the
// sharing through the host copy-on-write path (a VM exit).
func (vm *VM) DedupPages(gpaA, gpaB uint64) error {
	ra, err := vm.hpt.Lookup(gpaA)
	if err != nil {
		return err
	}
	rb, err := vm.hpt.Lookup(gpaB)
	if err != nil {
		return err
	}
	if ra.Size != pagetable.Size4K || rb.Size != pagetable.Size4K {
		return fmt.Errorf("vmm: dedup of %s/%s pages not supported", ra.Size, rb.Size)
	}
	baseA := gpaA &^ pagetable.Size4K.Mask()
	baseB := gpaB &^ pagetable.Size4K.Mask()
	if baseA == baseB {
		return fmt.Errorf("vmm: dedup of a page with itself (gpa %#x)", baseA)
	}
	oldFrame := memsim.FrameOf(rb.Entry.Addr())
	if vm.mem.IsTable(oldFrame) {
		// Never reclaim a frame that holds a live page-table page.
		return fmt.Errorf("vmm: refusing to dedup guest page-table page %#x", baseB)
	}
	if err := vm.hpt.Remap(baseB, ra.Entry.Addr(), pagetable.Size4K, 0); err != nil {
		return err
	}
	vm.setFrames(baseB, memsim.FrameOf(ra.Entry.Addr()), 1)
	if err := vm.hpt.ClearFlags(baseA, pagetable.FlagWrite); err != nil {
		return err
	}
	if err := vm.mem.FreeFrame(oldFrame); err != nil {
		return err
	}
	vm.stats.PagesDeduped++
	for _, gpa := range []uint64{baseA, baseB} {
		vm.mmu.NTLBInvalidateGPA(vm.id, gpa)
		vm.hostPageChanged(gpa)
	}
	return nil
}

// DedupAcrossVMs shares one host frame between gpaA in vmA and gpaB in vmB
// — inter-VM content-based sharing ("even between two virtual machines",
// paper §V). Both VMs must be built over the same host memory. Either
// guest's first write breaks the sharing through its own host COW exit.
func DedupAcrossVMs(vmA *VM, gpaA uint64, vmB *VM, gpaB uint64) error {
	if vmA.mem != vmB.mem {
		return errors.New("vmm: cross-VM dedup requires a shared host memory")
	}
	if vmA == vmB {
		return vmA.DedupPages(gpaA, gpaB)
	}
	ra, err := vmA.hpt.Lookup(gpaA)
	if err != nil {
		return err
	}
	rb, err := vmB.hpt.Lookup(gpaB)
	if err != nil {
		return err
	}
	if ra.Size != pagetable.Size4K || rb.Size != pagetable.Size4K {
		return fmt.Errorf("vmm: cross-VM dedup of %s/%s pages not supported", ra.Size, rb.Size)
	}
	baseA := gpaA &^ pagetable.Size4K.Mask()
	baseB := gpaB &^ pagetable.Size4K.Mask()
	oldFrame := memsim.FrameOf(rb.Entry.Addr())
	if vmB.mem.IsTable(oldFrame) {
		return fmt.Errorf("vmm: refusing to dedup guest page-table page %#x", baseB)
	}
	if err := vmB.hpt.Remap(baseB, ra.Entry.Addr(), pagetable.Size4K, 0); err != nil {
		return err
	}
	vmB.setFrames(baseB, memsim.FrameOf(ra.Entry.Addr()), 1)
	if err := vmA.hpt.ClearFlags(baseA, pagetable.FlagWrite); err != nil {
		return err
	}
	if err := vmB.mem.FreeFrame(oldFrame); err != nil {
		return err
	}
	vmA.stats.PagesDeduped++
	vmB.stats.PagesDeduped++
	vmA.mmu.NTLBInvalidateGPA(vmA.id, baseA)
	vmB.mmu.NTLBInvalidateGPA(vmB.id, baseB)
	vmA.hostPageChanged(baseA)
	vmB.hostPageChanged(baseB)
	return nil
}

// resolveHostCOW gives gpa a private writable host frame again.
func (vm *VM) resolveHostCOW(gpa uint64) error {
	f, err := vm.mem.AllocFrame()
	if err != nil {
		return err
	}
	base := gpa &^ pagetable.Size4K.Mask()
	r, err := vm.hpt.Lookup(base)
	if err != nil {
		return err
	}
	if r.Size != pagetable.Size4K {
		return fmt.Errorf("vmm: host COW on %s page not supported", r.Size)
	}
	if err := vm.hpt.Remap(base, f.Addr(), pagetable.Size4K, pagetable.FlagWrite); err != nil {
		return err
	}
	vm.setFrames(base, f, 1)
	vm.mmu.NTLBInvalidateGPA(vm.id, base)
	vm.hostPageChanged(base)
	return nil
}

// ContextSwitch installs the context of the process whose guest page table
// root is gptRoot. Under nested paging the guest's CR3 write is not
// intercepted. Under shadow and agile paging it traps so the VMM can find
// the matching shadow root — unless the §IV context-switch cache holds the
// pair (paper §IV "Context-Switches").
func (vm *VM) ContextSwitch(asid uint16) (walker.Regs, error) {
	ctx, ok := vm.ctxs[asid]
	if !ok {
		return walker.Regs{}, fmt.Errorf("vmm: unknown context asid=%d", asid)
	}
	if vm.cfg.Technique != walker.ModeNested && !ctx.fullNested {
		if vm.ctxCacheHit(ctx.gpt.Root()) {
			vm.stats.CtxCacheHits++
		} else {
			vm.trap(TrapContextSwitch)
			vm.ctxCacheInsert(ctx.gpt.Root())
		}
	}
	vm.current = ctx
	return ctx.Regs(), nil
}

// Current returns the currently installed context, or nil.
func (vm *VM) Current() *Context { return vm.current }

// Context returns the context registered for asid.
func (vm *VM) Context(asid uint16) (*Context, bool) {
	ctx, ok := vm.ctxs[asid]
	return ctx, ok
}

// EachContext calls fn for every registered guest-process context, in
// unspecified order. Telemetry uses it to aggregate per-context gauges
// (order-independent sums) without exposing the context map.
func (vm *VM) EachContext(fn func(*Context)) {
	for _, ctx := range vm.ctxs {
		fn(ctx)
	}
}

func (vm *VM) ctxCacheHit(gptRoot uint64) bool {
	for i, g := range vm.ctxCache {
		if g == gptRoot {
			// Move to MRU position.
			copy(vm.ctxCache[1:i+1], vm.ctxCache[:i])
			vm.ctxCache[0] = gptRoot
			return true
		}
	}
	return false
}

func (vm *VM) ctxCacheInsert(gptRoot uint64) {
	n := vm.cfg.CtxSwitchCacheEntries
	if n <= 0 {
		return
	}
	// Insert at the MRU position in place, dropping the LRU entry if full.
	if len(vm.ctxCache) < n {
		vm.ctxCache = append(vm.ctxCache, 0)
	}
	copy(vm.ctxCache[1:], vm.ctxCache)
	vm.ctxCache[0] = gptRoot
}

// guestPhysSpace adapts the VM's guest-physical memory to pagetable.Space
// so guest page tables can be built in guest RAM.
type guestPhysSpace struct{ vm *VM }

// FrameFor implements pagetable.Space. It reads the VM's frame table, so
// the guest OS's and the VMM's reads of guest page tables cost no host-table
// walk; the hardware walker still walks the host table and is charged for
// it. The table records every guest table page: those come only from
// AllocGPA, whose back records them, dedup refuses them, and host COW
// records its new frame.
func (g guestPhysSpace) FrameFor(pa uint64) (memsim.Frame, bool) {
	f, ok := g.vm.frameOf(pa)
	if !ok || !g.vm.mem.IsTable(f) {
		return 0, false
	}
	return f, true
}

// AllocTablePage implements pagetable.Space.
func (g guestPhysSpace) AllocTablePage() (uint64, error) {
	gpa, err := g.vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		return 0, err
	}
	hpa, _, err := g.vm.TranslateGPA(gpa)
	if err != nil {
		return 0, err
	}
	if err := g.vm.mem.MaterializeTable(memsim.FrameOf(hpa)); err != nil {
		return 0, err
	}
	// The guest OS zeroes a page before using it as a page table. Guest
	// table frames stay materialized across FreeTablePage (the host frame
	// is still guest RAM), so a recycled gPA could otherwise resurface with
	// the previous table's entries.
	g.vm.mem.ZeroTable(memsim.FrameOf(hpa))
	return gpa, nil
}

// FreeTablePage implements pagetable.Space.
func (g guestPhysSpace) FreeTablePage(pa uint64) error {
	g.vm.FreeGPA(pa, pagetable.Size4K)
	return nil
}
