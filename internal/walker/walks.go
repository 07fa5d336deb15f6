package walker

import (
	"fmt"

	"agilepaging/internal/pagetable"
)

// start is the state a walk begins in. The paper's hardware walk (Figure 4)
// starts in shadow mode and switches to nested mode at the level whose
// entry carries the switching bit; every technique is that one walk from a
// different start state, derived from Regs once per walk:
//
//	Regs                        1D table  starts nested  pays gptr  may switch
//	native                      PT        no             no         no
//	shadow                      sPT       no             no         no
//	nested, agile + FullNested  -         yes            yes        no
//	agile                       sPT       RootSwitch     no         yes
//
// A walk resumes from a PWC line if it may switch or if the line's nested
// bit equals its start mode; a resumed walk does not pay gptr.
type start struct {
	table     TableKind // the 1D table read in shadow mode
	nested    bool      // the walk starts in nested mode
	gptr      bool      // the walk first translates gptr through the host table
	maySwitch bool      // a switching bit hands the walk over to nested mode
}

func startOf(regs Regs) start {
	switch {
	case regs.Mode == ModeNative:
		return start{table: TableNative}
	case regs.Mode == ModeShadow:
		return start{table: TableShadow}
	case regs.Mode == ModeNested, regs.Mode == ModeAgile && regs.FullNested:
		// The paper encodes a fully nested agile process as sptr == gptr.
		return start{nested: true, gptr: true}
	case regs.Mode == ModeAgile:
		return start{table: TableShadow, nested: regs.RootSwitch, maySwitch: true}
	}
	panic(fmt.Sprintf("walker: invalid mode %d", int(regs.Mode)))
}

// Walk translates va under the technique selected by regs, charging memory
// references as the hardware does. write marks the access a store (the
// hardware then sets dirty bits it is responsible for). A successful walk
// fills every field of the caller-owned *res and returns nil. A faulting
// walk leaves *res untouched and returns the fault, with the partial
// reference count; the fault lives in the walker's scratch state and stays
// valid until the next Walk on this Walker. Neither outcome allocates.
//
// In shadow (1D) mode each level reads the native or shadow table, whose
// entries hold host-physical pointers. In nested mode each level reads the
// guest table and translates the guest-physical pointer it loads through
// the host table, so a cold nested walk of a 4K page costs up to 24
// references (paper Figure 2b).
func (w *Walker) Walk(regs Regs, va uint64, write bool, res *Result) *Fault {
	st := &w.scratch
	st.refs = 0
	st.hostRefs = 0
	st.accesses = st.accesses[:0]
	s := startOf(regs)
	nested, ptr, level := s.nested, regs.Root, 0
	if w.pwc != nil {
		if p, l, n, ok := w.pwc.Lookup(regs.ASID, va); ok && (s.maySwitch || n == nested) {
			nested, ptr, level = n, p, l
			s.gptr = false
		}
	}
	if s.gptr {
		hpa, _, _, f := w.hostTranslate(st, regs, regs.GPTRoot)
		if f != nil {
			return f
		}
		ptr = hpa
	}
	nestedLevels := 0
	for ; level < pagetable.NumLevels; level++ {
		idx := pagetable.IndexAt(va, level)
		table := s.table
		if nested {
			table = TableGuest
			nestedLevels++
		}
		e := w.readEntry(st, table, level, ptr, idx)
		if !e.Present() {
			kind := FaultNotPresent
			if nested {
				kind = FaultGuest
			}
			return w.fault(st, kind, va, level, 0, write)
		}
		if s.maySwitch && !nested && e.Switching() {
			// Switch to nested mode: the entry holds the host-physical
			// address of the next *guest* table level (paper §III-A).
			nested, ptr = true, e.Addr()
			if w.pwc != nil && level < pagetable.NumLevels-1 {
				w.pwc.Insert(regs.ASID, va, level+1, ptr, true)
			}
			continue
		}
		size, leafOK := pagetable.SizeAtLevel(level)
		if level == pagetable.NumLevels-1 || (e.Huge() && leafOK) {
			if nested {
				return w.nestedLeaf(st, regs, va, write, ptr, idx, e, size, nestedLevels, s.gptr, res)
			}
			// The hardware sets A/D bits in a native leaf. The VMM manages
			// them for shadow entries (at fill time and through write
			// protection), so a shadow leaf is left as read.
			if table == TableNative {
				e = w.setAD(ptr, idx, e, write)
			}
			res.HPA = e.Addr() | va&size.Mask()
			res.Size = size
			res.Flags = e.Flags()
			res.GPA = 0
			res.NestedLevels = 0
			res.GptrTranslated = false
			res.LeafShadow = table == TableShadow
			w.finish(st, res)
			return nil
		}
		ptr = e.Addr()
		if nested {
			hpa, _, _, f := w.hostTranslate(st, regs, ptr)
			if f != nil {
				return f
			}
			ptr = hpa
		}
		if w.pwc != nil {
			w.pwc.Insert(regs.ASID, va, level+1, ptr, nested)
		}
	}
	panic("walker: unreachable")
}

// hostTranslate translates a guest-physical address through the host page
// table (paper Figure 2d/e helper), charging up to NumLevels references.
// The nested TLB short-circuits repeats (paper §II-A).
func (w *Walker) hostTranslate(st *walkState, regs Regs, gpa uint64) (hpa uint64, writable bool, hostSize pagetable.Size, fault *Fault) {
	if w.ntlb != nil {
		if base, wb, ok := w.ntlb.Lookup(regs.VMID, gpa); ok {
			// The nested TLB caches at 4K granularity; report 4K so callers
			// never assume contiguity beyond the cached page.
			return base | gpa&(memFrameMask), wb, pagetable.Size4K, nil
		}
	}
	ptr := regs.HPTRoot
	for level := 0; level < pagetable.NumLevels; level++ {
		e := w.readEntry(st, TableHost, level, ptr, pagetable.IndexAt(gpa, level))
		if !e.Present() {
			return 0, false, pagetable.Size4K, w.fault(st, FaultHost, gpa, level, gpa, false)
		}
		size, leafOK := pagetable.SizeAtLevel(level)
		if level == pagetable.NumLevels-1 || (e.Huge() && leafOK) {
			hpa = e.Addr() | gpa&size.Mask()
			if w.ntlb != nil {
				w.ntlb.Insert(regs.VMID, gpa, hpa&^memFrameMask, e.Writable())
			}
			return hpa, e.Writable(), size, nil
		}
		ptr = e.Addr()
	}
	panic("walker: unreachable")
}

const memFrameMask = uint64(1<<12) - 1

// setAD sets the accessed bit, and on a store to a writable page the dirty
// bit, in a leaf entry the hardware is responsible for, and returns the
// updated entry.
func (w *Walker) setAD(tableHPA uint64, idx int, e pagetable.Entry, write bool) pagetable.Entry {
	ne := e.WithFlags(pagetable.FlagAccessed)
	if write && e.Writable() {
		ne = ne.WithFlags(pagetable.FlagDirty)
	}
	if ne != e {
		w.writeEntry(tableHPA, idx, ne)
	}
	return ne
}

// nestedLeaf completes a walk whose leaf was found in the guest table: the
// hardware sets guest accessed/dirty bits directly (paper §III-B, "Pages
// that end in nested mode instead use the hardware page walker ... to
// update guest page table accessed and dirty bits") and translates the
// final guest-physical address.
func (w *Walker) nestedLeaf(st *walkState, regs Regs, va uint64, write bool, tableHPA uint64, idx int, e pagetable.Entry, size pagetable.Size, nestedLevels int, gptrPaid bool, res *Result) *Fault {
	w.setAD(tableHPA, idx, e, write)
	gpa := e.Addr() | va&size.Mask()
	hpa, hostW, hostSize, f := w.hostTranslate(st, regs, gpa)
	if f != nil {
		return f
	}
	flags := e.Flags()
	if !hostW {
		flags = flags.WithoutFlags(pagetable.FlagWrite)
	}
	// When the host backs this guest page at a smaller size, the TLB entry
	// splinters to the host size (paper §V, "Large Page Support").
	if hostSize.Bytes() < size.Bytes() {
		size = hostSize
	}
	res.HPA = hpa
	res.Size = size
	res.Flags = flags
	res.GPA = gpa
	res.NestedLevels = nestedLevels
	res.GptrTranslated = gptrPaid
	res.LeafShadow = false
	w.finish(st, res)
	return nil
}
