package vmm

import (
	"errors"
	"fmt"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
)

// ModeOracle tells the VMM which guest page-table nodes are under nested
// mode. The agile paging manager (package core) implements it; a nil oracle
// means full shadow paging.
type ModeOracle interface {
	// NodeNested reports whether the guest table page at guest-physical
	// address gptPage is handled in nested mode.
	NodeNested(asid uint16, gptPage uint64) bool
}

// WriteListener observes VM exits caused by guest updates to shadow-covered
// page-table state — write-protection traps on guest PT pages and the
// VMM's own A/D propagation into guest PTEs. The agile policy uses these
// events to find the dynamic parts of the guest page table (paper §III-C,
// "Shadow⇒Nested mode"). old and new are the entry values (equal for A/D
// propagation events).
type WriteListener func(gptPage uint64, level, idx int, old, new pagetable.Entry)

// FreeListener observes the guest OS freeing a guest page-table page (a
// structural edit: table pruning after unmap or THP collapse). The agile
// policy must drop its per-page mode state so a recycled gPA starts clean.
type FreeListener func(gptPage uint64)

// FaultOutcome is the disposition of a shadow-fault VM exit.
type FaultOutcome int

// Fault outcomes.
const (
	// OutcomeRetry means the VMM repaired translation state; the access
	// should be retried.
	OutcomeRetry FaultOutcome = iota
	// OutcomeGuestFault means the fault must be delivered to the guest OS
	// (the guest page table has no mapping).
	OutcomeGuestFault
)

// Context is the VMM state for one guest process: its guest page table and,
// under shadow or agile paging, the shadow page table and write-protection
// bookkeeping.
type Context struct {
	vm   *VM
	asid uint16
	gpt  *pagetable.Table
	spt  *pagetable.Table // nil under pure nested paging

	oracle       ModeOracle
	listener     WriteListener
	freeListener FreeListener

	// protected holds guest-physical addresses of guest PT pages the VMM
	// intercepts writes to (the shadow-covered parts, paper §III-B).
	protected map[uint64]bool

	// suppress disables the write hook while the VMM itself updates the
	// guest table (A/D propagation).
	suppress bool

	fullNested bool
	rootSwitch bool
}

// NewProcess registers a guest process with the VMM: it builds the guest
// page table in guest RAM and, under shadow or agile paging, an empty
// shadow table with write interception on the guest table.
func (vm *VM) NewProcess(asid uint16) (*Context, error) {
	if _, dup := vm.ctxs[asid]; dup {
		return nil, fmt.Errorf("vmm: duplicate asid %d", asid)
	}
	gpt, err := pagetable.New(vm.mem, guestPhysSpace{vm})
	if err != nil {
		return nil, err
	}
	ctx := &Context{
		vm:        vm,
		asid:      asid,
		gpt:       gpt,
		protected: make(map[uint64]bool),
	}
	if vm.cfg.Technique != walker.ModeNested {
		spt, err := pagetable.New(vm.mem, pagetable.HostSpace{Mem: vm.mem})
		if err != nil {
			return nil, err
		}
		ctx.spt = spt
		gpt.SetWriteHook(ctx.onGuestPTWrite)
		gpt.SetFreeHook(ctx.onGuestTableFree)
	}
	vm.ctxs[asid] = ctx
	if vm.current == nil {
		vm.current = ctx
	}
	return ctx, nil
}

// GPT returns the process's guest page table.
func (ctx *Context) GPT() *pagetable.Table { return ctx.gpt }

// SPT returns the shadow page table (nil under nested paging).
func (ctx *Context) SPT() *pagetable.Table { return ctx.spt }

// ASID returns the process's address-space identifier.
func (ctx *Context) ASID() uint16 { return ctx.asid }

// VM returns the owning virtual machine.
func (ctx *Context) VM() *VM { return ctx.vm }

// SetOracle installs the mode oracle (the agile manager).
func (ctx *Context) SetOracle(o ModeOracle) { ctx.oracle = o }

// SetWriteListener installs the protected-write observer.
func (ctx *Context) SetWriteListener(l WriteListener) { ctx.listener = l }

// SetFreeListener installs the guest-table-free observer.
func (ctx *Context) SetFreeListener(l FreeListener) { ctx.freeListener = l }

// FullNested reports whether the context currently runs fully nested.
func (ctx *Context) FullNested() bool { return ctx.fullNested }

// RootSwitch reports whether the walk starts nested at the guest root.
func (ctx *Context) RootSwitch() bool { return ctx.rootSwitch }

// SetFullNested switches the whole context between full nested operation
// and (partial) shadow operation — the paper's short-lived-process policy
// start state (§III-C).
func (ctx *Context) SetFullNested(v bool) {
	if ctx.fullNested == v {
		return
	}
	ctx.fullNested = v
	ctx.FlushHW()
}

// IsProtected reports whether the guest table page at gptPage is
// write-protected.
func (ctx *Context) IsProtected(gptPage uint64) bool { return ctx.protected[gptPage] }

// Protect begins intercepting writes to the guest table page at gptPage.
func (ctx *Context) Protect(gptPage uint64) { ctx.protected[gptPage] = true }

// Unprotect stops intercepting writes to the guest table page at gptPage,
// allowing fast direct updates (nested-mode handling).
func (ctx *Context) Unprotect(gptPage uint64) { delete(ctx.protected, gptPage) }

// ProtectedPages returns the number of write-protected guest table pages.
func (ctx *Context) ProtectedPages() int { return len(ctx.protected) }

// ProtectedPagesByLevel splits the write-protected guest table pages by
// page-table level (0 = root) — the shadow-covered complement of the agile
// manager's nested coverage. Telemetry samples it at epoch boundaries.
func (ctx *Context) ProtectedPagesByLevel() [4]int {
	var out [4]int
	for page := range ctx.protected {
		if info, ok := ctx.gpt.Info(page); ok && info.Level >= 0 && info.Level < len(out) {
			out[info.Level]++
		}
	}
	return out
}

// Regs assembles the hardware register state for this context.
func (ctx *Context) Regs() walker.Regs {
	regs := walker.Regs{
		Mode:    ctx.vm.cfg.Technique,
		GPTRoot: ctx.gpt.Root(),
		HPTRoot: ctx.vm.hpt.Root(),
		ASID:    ctx.asid,
		VMID:    ctx.vm.id,
	}
	switch ctx.vm.cfg.Technique {
	case walker.ModeNested:
		// gptr/hptr only.
	case walker.ModeShadow:
		regs.Root = ctx.spt.Root()
	case walker.ModeAgile:
		regs.FullNested = ctx.fullNested
		regs.RootSwitch = ctx.rootSwitch
		regs.Root = ctx.spt.Root()
		if ctx.rootSwitch && !ctx.fullNested {
			if hpa, _, err := ctx.vm.TranslateGPA(ctx.gpt.Root()); err == nil {
				regs.Root = hpa
			}
		}
	}
	return regs
}

// FlushHW drops all cached translation state of this context.
func (ctx *Context) FlushHW() {
	ctx.vm.mmu.FlushASID(ctx.asid)
	ctx.vm.mmu.PWCFlushASID(ctx.asid)
}

// onGuestPTWrite is the write hook installed on the guest page table. It
// models both the hardware effect of the guest's store (A/D bits in the
// host table for the written page) and the write-protection VM exit with
// shadow resync when the page is shadow-covered.
func (ctx *Context) onGuestPTWrite(pageAddr uint64, level, idx int, old, new pagetable.Entry) {
	if ctx.suppress {
		return
	}
	// Hardware sets A/D in the host table for any guest store to its RAM.
	_ = ctx.vm.hpt.SetFlags(pageAddr, pagetable.FlagAccessed|pagetable.FlagDirty)
	if !ctx.protected[pageAddr] {
		return // direct update: nested-mode or not-yet-shadowed part
	}
	ctx.vm.trap(TrapPTWrite)
	info, ok := ctx.gpt.Info(pageAddr)
	if ok {
		gva := info.VABase | uint64(idx)*pagetable.SpanAtLevel(level)
		ctx.zapShadow(gva, level)
	}
	if ctx.listener != nil {
		ctx.listener(pageAddr, level, idx, old, new)
	}
}

// zapShadow invalidates the shadow state (and hardware caches) covering the
// given gVA at the given level. Because an interior guest entry summarizes a
// whole subtree, the invalidation is a subtree zap: the covering shadow
// entry is cleared and every shadow table page reachable only through it is
// freed, so no shadow state derived from the edited guest subtree survives.
func (ctx *Context) zapShadow(gva uint64, level int) {
	if ctx.spt == nil {
		return
	}
	if zapped, _ := ctx.spt.ZapSubtree(gva, level); zapped {
		ctx.vm.stats.ShadowEntriesZapped++
	}
	if level == pagetable.NumLevels-1 {
		ctx.vm.mmu.InvalidatePage(ctx.asid, gva)
		ctx.vm.mmu.PWCInvalidateVA(ctx.asid, gva)
	} else {
		// An interior change invalidates a whole range; flush the space.
		ctx.FlushHW()
	}
}

// onGuestTableFree is the free hook installed on the guest page table: the
// VMM's half of the shadow-invalidation contract for structural guest edits.
// When the guest OS prunes a table page, the VMM must (1) stop intercepting
// writes to the now-recyclable gPA, (2) drop the shadow subtree that was
// derived from it — including a switching entry pointing at it — and (3)
// tell the agile policy to forget the page's mode state. The hook runs
// before the gPA returns to the guest allocator, so nothing can recycle it
// while stale state remains.
func (ctx *Context) onGuestTableFree(pageAddr uint64, level int, vaBase uint64) {
	ctx.Unprotect(pageAddr)
	if ctx.spt != nil {
		if level == 0 {
			// The root itself is going away (process teardown); any
			// root-switch state dies with it.
			ctx.rootSwitch = false
			ctx.FlushHW()
		} else if zapped, _ := ctx.spt.ZapSubtree(vaBase, level-1); zapped {
			// The covering shadow entry sat in the parent slot pointing at
			// this guest page's span — clear it and everything below.
			ctx.vm.stats.ShadowEntriesZapped++
			if level-1 == pagetable.NumLevels-1 {
				ctx.vm.mmu.InvalidatePage(ctx.asid, vaBase)
				ctx.vm.mmu.PWCInvalidateVA(ctx.asid, vaBase)
			} else {
				ctx.FlushHW()
			}
		}
	}
	if ctx.freeListener != nil {
		ctx.freeListener(pageAddr)
	}
}

// StructuralEdit is the guest OS's advance notice of a structural page-table
// edit (THP collapse): the span [va, va+size) is about to be rebuilt at a
// different level. The VMM drops the covering shadow subtree and cached
// hardware translations for the span. Under shadow (and shadow-covered
// agile) operation the accompanying range invalidation is a VM exit, like
// the full-flush a real guest issues when a range invalidation exceeds the
// batching ceiling. The per-entry unmap writes still trap individually —
// that per-edit interception cost is exactly what the paper charges shadow
// paging for.
func (ctx *Context) StructuralEdit(va uint64, size pagetable.Size) {
	base := va &^ size.Mask()
	if ctx.spt != nil {
		if zapped, _ := ctx.spt.ZapSubtree(base, size.LeafLevel()); zapped {
			ctx.vm.stats.ShadowEntriesZapped++
		}
		if !ctx.fullNested && !ctx.rootSwitch {
			ctx.vm.trap(TrapTLBFlush)
		}
	}
	ctx.FlushHW()
}

// ErrNotShadowed reports a shadow operation on a context without a shadow
// table.
var ErrNotShadowed = errors.New("vmm: context has no shadow table")

// HandleShadowFault services a hardware not-present fault on the shadow (or
// agile) walk: the hidden VM exit in which the VMM extends the shadow table
// by merging the guest and host tables for gva (paper §III-B). It returns
// OutcomeGuestFault when the guest table itself has no mapping, in which
// case the fault is the guest OS's to handle.
func (ctx *Context) HandleShadowFault(gva uint64, write bool) (FaultOutcome, error) {
	if ctx.spt == nil {
		return 0, ErrNotShadowed
	}
	ctx.vm.trap(TrapShadowFill)
	node := ctx.gpt.Root() // guest-physical address of current guest table page
	for level := 0; level < pagetable.NumLevels; level++ {
		if ctx.oracle != nil && ctx.oracle.NodeNested(ctx.asid, node) {
			// This node runs nested: plant the switch and let the hardware
			// walk continue in nested mode.
			if err := ctx.PlantSwitch(node); err != nil {
				return 0, err
			}
			return OutcomeRetry, nil
		}
		ctx.Protect(node)
		e, err := ctx.gpt.EntryAt(gva, level)
		if err != nil {
			return OutcomeGuestFault, nil
		}
		if !e.Present() {
			return OutcomeGuestFault, nil
		}
		size, leafOK := pagetable.SizeAtLevel(level)
		if level == pagetable.NumLevels-1 || (e.Huge() && leafOK) {
			if err := ctx.fillShadowLeaf(gva, level, size, e, write); err != nil {
				return 0, err
			}
			ctx.prefetchFill(gva, level, size)
			return OutcomeRetry, nil
		}
		node = e.Addr()
	}
	panic("vmm: unreachable")
}

// prefetchNum is how many aligned sibling entries one shadow-fill VM exit
// populates alongside the faulting one, as KVM's shadow MMU pte prefetch
// does (PTE_PREFETCH_NUM = 8). Without it, every page of a large working
// set costs its own hidden fault.
const prefetchNum = 8

// prefetchFill speculatively fills, within the same VM exit, the empty
// shadow slots of gva's aligned prefetch block whose guest entries are
// already present.
func (ctx *Context) prefetchFill(gva uint64, level int, size pagetable.Size) {
	block := uint64(prefetchNum) * size.Bytes()
	base := gva &^ (block - 1)
	for va := base; va < base+block; va += size.Bytes() {
		if va == gva&^size.Mask() {
			continue
		}
		if se, err := ctx.spt.EntryAt(va, level); err == nil && se.Present() {
			continue
		}
		ge, err := ctx.gpt.EntryAt(va, level)
		if err != nil || !ge.Present() {
			continue
		}
		if _, leafOK := pagetable.SizeAtLevel(level); level != pagetable.NumLevels-1 && (!ge.Huge() || !leafOK) {
			continue
		}
		// Only prefetch entries the guest already marked accessed. The VMM
		// emulates guest A/D bits for shadow-covered leaves, and a
		// speculative fill must not fabricate an access the guest never
		// made: filling an A-clear entry would either set guest A for an
		// untouched page or create a mapping whose first real access the
		// VMM can no longer observe. Either way the guest's clock reclaim
		// sees different reference bits than it would natively. A-clear
		// entries take the ordinary shadow fault on first touch, which
		// sets guest A exactly when a native walk would.
		if !ge.Accessed() {
			continue
		}
		_ = ctx.fillShadowLeaf(va, level, size, ge, false)
	}
}

// fillShadowLeaf merges one guest leaf entry with the host table into the
// shadow table. Write permission is withheld until the first write so the
// VMM can maintain dirty bits (paper §III-B, "Accessed and Dirty Bits");
// a leaf whose guest dirty bit is already set skips that round trip.
func (ctx *Context) fillShadowLeaf(gva uint64, level int, guestSize pagetable.Size, ge pagetable.Entry, write bool) error {
	// If the host backs this guest page at a smaller size, shadow at the
	// smaller size (paper §V: mixed sizes splinter for the TLB).
	gpaPage := ge.Addr() | (gva & guestSize.Mask() &^ pagetable.Size4K.Mask())
	hr, ok := ctx.vm.hpt.TryLookup(gpaPage)
	if !ok {
		// Host hole: service it as a host fault, then retry the fill.
		if err := ctx.vm.HandleHostFault(gpaPage, write); err != nil {
			return err
		}
		if hr, ok = ctx.vm.hpt.TryLookup(gpaPage); !ok {
			_, err := ctx.vm.hpt.Lookup(gpaPage)
			return err
		}
	}
	effSize := guestSize
	effLevel := level
	if hr.Size.Bytes() < guestSize.Bytes() {
		effSize = hr.Size
		effLevel = effSize.LeafLevel()
	}
	effVA := gva &^ effSize.Mask()
	effGPA := ge.Addr() | (gva & guestSize.Mask() &^ effSize.Mask())
	hpa, hostW, ok := ctx.vm.translateGPA(effGPA)
	if !ok {
		_, _, err := ctx.vm.TranslateGPA(effGPA)
		return err
	}

	sflags := pagetable.FlagPresent | pagetable.FlagAccessed |
		ge.Flags()&(pagetable.FlagUser|pagetable.FlagGlobal|pagetable.FlagNX)
	if effSize != pagetable.Size4K {
		sflags |= pagetable.FlagHuge
	}
	guestFlags := pagetable.FlagAccessed
	if ge.Writable() && hostW && (ge.Dirty() || write) {
		sflags |= pagetable.FlagWrite | pagetable.FlagDirty
		if write {
			guestFlags |= pagetable.FlagDirty
		}
	}
	ctx.setGuestLeafFlags(gva, guestFlags)

	if _, err := ctx.spt.EnsurePath(effVA, effLevel); err != nil {
		return err
	}
	if err := ctx.spt.SetEntryAt(effVA, effLevel, pagetable.MakeEntry(hpa, sflags)); err != nil {
		return err
	}
	ctx.vm.stats.ShadowEntriesFilled++
	ctx.vm.recordShadowLeaf(effGPA, effVA, ctx.asid)
	return nil
}

// setGuestLeafFlags ORs flags into the guest leaf entry for gva without
// triggering the write-protection hook (the VMM writes the guest table
// directly from host context).
func (ctx *Context) setGuestLeafFlags(gva uint64, flags pagetable.Entry) {
	ctx.suppress = true
	defer func() { ctx.suppress = false }()
	_ = ctx.gpt.SetFlags(gva, flags)
}

// HandleWriteProtect services a write to a translation whose cached entry
// lacks write permission. It distinguishes the VMM's own dirty-bit tracking
// (resolved here, with either a VM exit or the §IV hardware A/D update)
// from a genuine guest-level protection fault such as copy-on-write
// (returned to the guest OS as resolved == false).
func (ctx *Context) HandleWriteProtect(gva uint64) (resolved bool, err error) {
	gr, ok := ctx.gpt.TryLookup(gva)
	if !ok {
		return false, nil // stale translation; guest fault path re-maps
	}
	if !gr.Entry.Writable() {
		return false, nil // guest-level protection fault (e.g. guest COW)
	}
	gpa := gr.PA
	_, hostW, tok := ctx.vm.translateGPA(gpa)
	if !tok || !hostW {
		// Host-level refusal: host COW resolution is a VM exit.
		if err := ctx.vm.HandleHostFault(gpa, true); err != nil {
			return false, err
		}
		ctx.invalidateGVA(gva)
		return true, nil
	}
	if ctx.spt != nil {
		if _, ok := ctx.spt.TryLookup(gva); ok {
			// Shadow-covered page: propagate A/D and grant write.
			if ctx.vm.cfg.HardwareAD {
				ctx.vm.stats.HWADUpdates++
				ctx.vm.stats.HWADRefs += ctx.vm.cfg.Costs.HWADWalkRefs
			} else {
				ctx.vm.trap(TrapADUpdate)
			}
			ctx.setGuestLeafFlags(gva, pagetable.FlagAccessed|pagetable.FlagDirty)
			_ = ctx.spt.SetFlags(gva, pagetable.FlagWrite|pagetable.FlagDirty)
			ctx.invalidateGVA(gva)
			// A/D propagation is a guest page-table update the VMM performed
			// on the guest's behalf; the agile policy counts it when looking
			// for dynamic parts (paper §III-C, §V "Memory pressure").
			if ctx.listener != nil {
				if page, level, idx, e, ok := ctx.leafSlot(gva); ok {
					ctx.listener(page, level, idx, e, e)
				}
			}
			return true, nil
		}
	}
	// Nested-covered translation with guest and host both writable: the
	// cached entry is stale.
	ctx.invalidateGVA(gva)
	return true, nil
}

func (ctx *Context) invalidateGVA(gva uint64) {
	ctx.vm.mmu.InvalidatePage(ctx.asid, gva)
	ctx.vm.mmu.PWCInvalidateVA(ctx.asid, gva)
}

// GuestTLBFlush models a guest INVLPG (single gva) or full flush
// (all == true). Under nested paging the instruction runs unintercepted;
// under shadow paging it is a VM exit so the VMM can resync the shadow
// table; under agile paging only flushes of *shadow-covered* addresses
// exit — addresses whose translation switches to nested mode have no
// shadow state to resync, so their updates and invalidations stay direct
// (paper §III: "reduces the costly VMM interventions by allowing fast
// direct updates").
func (ctx *Context) GuestTLBFlush(gva uint64, all bool) {
	trap := false
	switch ctx.vm.cfg.Technique {
	case walker.ModeShadow:
		trap = true
	case walker.ModeAgile:
		if all {
			trap = !ctx.fullNested && !ctx.rootSwitch
		} else {
			trap = ctx.shadowCovered(gva)
		}
	}
	if trap {
		ctx.vm.trap(TrapTLBFlush)
	}
	if all {
		ctx.FlushHW()
		return
	}
	ctx.invalidateGVA(gva)
}

// GuestTLBFlushSpan models a guest invalidation of one page whose mapping
// covers [gva, gva+size). When the host backs the guest page at its full
// size a single hardware entry caches the translation and this degenerates
// to GuestTLBFlush. When the host page size is smaller — a collapsed 2M
// guest page over 4K host pages — the hardware TLB holds up to 512
// *splintered* entries for the one guest mapping, and invalidating only the
// base VA would leave the rest serving stale (or freed) translations. The
// guest issues one logical invalidation, so the trap decision is made once
// for the whole span, then every splintered sub-VA is dropped.
func (ctx *Context) GuestTLBFlushSpan(gva uint64, size pagetable.Size) {
	base := pagetable.PageBase(gva, size)
	if size == pagetable.Size4K || ctx.vm.cfg.HostPageSize.Bytes() >= size.Bytes() {
		ctx.GuestTLBFlush(base, false)
		return
	}
	trap := false
	switch ctx.vm.cfg.Technique {
	case walker.ModeShadow:
		trap = true
	case walker.ModeAgile:
		trap = ctx.shadowCovered(base)
	}
	if trap {
		ctx.vm.trap(TrapTLBFlush)
	}
	step := pagetable.Size4K.Bytes()
	for off := uint64(0); off < size.Bytes(); off += step {
		ctx.invalidateGVA(base + off)
	}
}

// leafSlot locates the guest leaf entry mapping gva: the guest-physical
// address of the table page holding it, its level and index, and the entry.
func (ctx *Context) leafSlot(gva uint64) (page uint64, level, idx int, e pagetable.Entry, ok bool) {
	page = ctx.gpt.Root()
	for level = 0; level < pagetable.NumLevels; level++ {
		e, err := ctx.gpt.EntryAt(gva, level)
		if err != nil || !e.Present() {
			return 0, 0, 0, 0, false
		}
		size, leafOK := pagetable.SizeAtLevel(level)
		_ = size
		if level == pagetable.NumLevels-1 || (e.Huge() && leafOK) {
			return page, level, pagetable.IndexAt(gva, level), e, true
		}
		page = e.Addr()
	}
	return 0, 0, 0, 0, false
}

// shadowCovered reports whether gva's translation terminates in the shadow
// table (as opposed to switching to nested mode or being unbuilt).
func (ctx *Context) shadowCovered(gva uint64) bool {
	if ctx.spt == nil || ctx.fullNested || ctx.rootSwitch {
		return false
	}
	for level := 0; level < pagetable.NumLevels; level++ {
		e, err := ctx.spt.EntryAt(gva, level)
		if err != nil || !e.Present() {
			return false
		}
		if e.Switching() {
			return false
		}
		size, leafOK := pagetable.SizeAtLevel(level)
		_ = size
		if level == pagetable.NumLevels-1 || (e.Huge() && leafOK) {
			return true
		}
	}
	return false
}

// PlantSwitch moves the guest page-table node at gptPage (and implicitly
// its subtree) under nested mode: the parent shadow entry gets the
// switching bit and the host-physical address of the node (paper §III-A),
// and the node plus all descendants stop being write-protected.
func (ctx *Context) PlantSwitch(gptPage uint64) error {
	if ctx.spt == nil {
		return ErrNotShadowed
	}
	info, ok := ctx.gpt.Info(gptPage)
	if !ok {
		return fmt.Errorf("vmm: %#x is not a guest table page", gptPage)
	}
	ctx.vm.subtree = ctx.AppendSubtreePages(ctx.vm.subtree[:0], gptPage)
	for _, p := range ctx.vm.subtree {
		ctx.Unprotect(p)
	}
	if info.Level == 0 {
		ctx.rootSwitch = true
		ctx.FlushHW()
		return nil
	}
	hpa, _, err := ctx.vm.TranslateGPA(gptPage)
	if err != nil {
		return err
	}
	if _, err := ctx.spt.EnsurePath(info.VABase, info.Level-1); err != nil {
		return err
	}
	e := pagetable.MakeEntry(hpa, pagetable.FlagPresent|pagetable.FlagSwitch)
	if err := ctx.spt.SetEntryAt(info.VABase, info.Level-1, e); err != nil {
		return err
	}
	ctx.vm.stats.ShadowEntriesZapped++
	ctx.FlushHW()
	return nil
}

// ClearSwitch moves the node at gptPage back toward shadow mode: the
// switching entry is removed (the next walk refaults and the VMM refills in
// shadow mode per the oracle) and the node is re-protected. Descendants
// stay under whatever mode the oracle reports — the paper requires parents
// to convert before children (§III-C).
func (ctx *Context) ClearSwitch(gptPage uint64) error {
	if ctx.spt == nil {
		return ErrNotShadowed
	}
	info, ok := ctx.gpt.Info(gptPage)
	if !ok {
		return fmt.Errorf("vmm: %#x is not a guest table page", gptPage)
	}
	if info.Level == 0 {
		ctx.rootSwitch = false
	} else if e, err := ctx.spt.EntryAt(info.VABase, info.Level-1); err == nil && e.Switching() {
		if err := ctx.spt.SetEntryAt(info.VABase, info.Level-1, 0); err != nil {
			return err
		}
	}
	ctx.Protect(gptPage)
	ctx.FlushHW()
	return nil
}

// AppendSubtreePages appends the guest-physical addresses of the guest
// table page at gptPage and every table page below it, in depth-first
// order, to dst and returns the extended slice. dst is returned unchanged
// if gptPage is not a guest table page.
func (ctx *Context) AppendSubtreePages(dst []uint64, gptPage uint64) []uint64 {
	info, ok := ctx.gpt.Info(gptPage)
	if !ok {
		return dst
	}
	return ctx.appendSubtree(dst, gptPage, info.Level)
}

func (ctx *Context) appendSubtree(dst []uint64, page uint64, level int) []uint64 {
	dst = append(dst, page)
	if level >= pagetable.NumLevels-1 {
		return dst
	}
	f, ok := ctx.gpt.Space().FrameFor(page)
	if !ok {
		return dst
	}
	for idx := 0; idx < 512; idx++ {
		e := pagetable.Entry(ctx.vm.mem.ReadEntry(f, idx))
		if e.Present() && !e.Huge() {
			if _, isTable := ctx.gpt.Info(e.Addr()); isTable {
				dst = ctx.appendSubtree(dst, e.Addr(), level+1)
			}
		}
	}
	return dst
}
