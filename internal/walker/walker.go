// Package walker implements the hardware page walk of the paper: the agile
// walk that starts in shadow mode and may switch mid-walk to nested mode
// when it encounters an entry with the switching bit set (paper Figure 4).
// The native 1D walk, the shadow walk and the nested 2D walk (paper
// Figure 2) are the same loop from other start states (see walks.go).
//
// The walker is "hardware": it dereferences raw table pages in simulated
// physical memory and charges one memory reference per entry read, which is
// the currency the paper's evaluation is denominated in (Tables II and VI).
// Page walk caches and the nested TLB (package ptwc) remove references the
// way the real MMU structures do.
package walker

import (
	"fmt"
	"strings"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/ptwc"
)

// Mode selects the memory-virtualization technique for a walk.
type Mode int

// The four techniques compared throughout the paper (Table I).
const (
	ModeNative Mode = iota // base native: 1D walk of a single page table
	ModeNested             // 2D walk of guest + host tables
	ModeShadow             // 1D walk of the VMM's shadow table
	ModeAgile              // shadow walk with mid-walk switch to nested
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeNested:
		return "nested"
	case ModeShadow:
		return "shadow"
	case ModeAgile:
		return "agile"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a technique name as written by Mode.String, case
// insensitively, with the single-letter and "base" aliases the CLI tools
// have always taken. It is the one parser every flag and JSON decoder in
// the repository routes through.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "native", "base", "b":
		return ModeNative, nil
	case "nested", "n":
		return ModeNested, nil
	case "shadow", "s":
		return ModeShadow, nil
	case "agile", "a":
		return ModeAgile, nil
	}
	return 0, fmt.Errorf("unknown technique %q (native|nested|shadow|agile)", s)
}

// TableKind identifies which page-table structure a walk reference touched,
// matching the structures in the paper's Figure 1.
type TableKind int

// Table kinds.
const (
	TableNative TableKind = iota // base-native page table
	TableShadow                  // sPT
	TableGuest                   // gPT
	TableHost                    // hPT (accessed as part of nested translation)
)

// String names the table kind as in the paper's figures.
func (k TableKind) String() string {
	switch k {
	case TableNative:
		return "PT"
	case TableShadow:
		return "sPT"
	case TableGuest:
		return "gPT"
	case TableHost:
		return "hPT"
	}
	return fmt.Sprintf("TableKind(%d)", int(k))
}

// Access records one memory reference of a recorded walk, in chronological
// order — the numbered arrows of the paper's Figures 1 and 3.
type Access struct {
	Table TableKind
	Level int    // level within that table (0 = root)
	Addr  uint64 // host-physical address of the entry read
}

// FaultKind classifies page faults raised by the walker.
type FaultKind int

// Fault kinds. Who handles each depends on the mode: a not-present fault in
// native mode goes to the OS, in shadow/agile mode to the VMM (hidden
// shadow fill); guest faults go to the guest OS; host faults are VM exits.
const (
	FaultNotPresent FaultKind = iota // 1D table (native PT or sPT) entry not present
	FaultGuest                       // guest page table entry not present
	FaultHost                        // host page table entry not present
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNotPresent:
		return "not-present"
	case FaultGuest:
		return "guest-not-present"
	case FaultHost:
		return "host-not-present"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault describes a page fault encountered during a walk.
type Fault struct {
	Kind     FaultKind
	VA       uint64 // faulting virtual (or guest-virtual) address
	Level    int    // table level at which the walk stopped
	GPA      uint64 // for FaultHost: the guest-physical address that missed
	Write    bool   // the faulting access was a write
	Refs     int    // memory references consumed before faulting
	HostRefs int    // subset of Refs touching the host page table
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("page fault: %s at va=%#x level=%d gpa=%#x write=%v", f.Kind, f.VA, f.Level, f.GPA, f.Write)
}

// Regs is the architectural register state consumed by a walk — the three
// page table pointers of agile paging (paper §III-A) plus tags for the
// translation caches.
type Regs struct {
	Mode Mode

	// Root is the 1D root: the native page table root in ModeNative, the
	// shadow page table root (hPA) in ModeShadow and ModeAgile. Unused in
	// ModeNested.
	Root uint64

	// RootSwitch marks the agile "switched at 1st level" configuration
	// (paper Figure 3e): the walk starts directly in nested mode and Root
	// holds the host-physical address of the guest root table.
	RootSwitch bool

	// FullNested marks an agile process currently running fully nested
	// (the paper's sptr==gptr encoding in Figure 4): the walk is a plain
	// nested walk including the gptr translation.
	FullNested bool

	// GPTRoot is gptr: the guest-physical address of the guest page table
	// root. HPTRoot is hptr: the host-physical address of the host page
	// table root.
	GPTRoot uint64
	HPTRoot uint64

	// ASID tags PWC entries (per guest process); VMID tags nested-TLB
	// entries (per virtual machine).
	ASID uint16
	VMID uint16
}

// Result describes a completed walk.
type Result struct {
	HPA   uint64          // translated host-physical address of va
	Size  pagetable.Size  // page size of the final mapping
	Flags pagetable.Entry // effective leaf permissions for the TLB entry
	GPA   uint64          // guest-physical address of the page (virtualized modes)
	Refs  int             // memory references charged to this walk
	// HostRefs is the subset of Refs that touched the host page table.
	// Host-table entries are few and extremely hot, so on real hardware
	// they hit in the data caches far more often than guest/shadow/native
	// entries do; the cycle model prices them separately (paper §II-A's
	// caching discussion).
	HostRefs int

	// NestedLevels is the number of guest page-table levels handled in
	// nested mode: 0 for full shadow, 1..4 for agile switches (paper
	// Table VI columns L4..L1), 4 with GptrTranslated for full nested.
	NestedLevels int
	// GptrTranslated reports that the walk paid the gptr translation
	// (only full nested walks do).
	GptrTranslated bool
	// LeafShadow reports that the leaf translation came from the shadow
	// table (the VMM manages A/D bits for it).
	LeafShadow bool

	// Accesses holds the chronological reference trace when recording is
	// enabled.
	Accesses []Access
}

// Stats accumulates walker counters.
type Stats struct {
	Walks  uint64
	Refs   uint64
	Faults [3]uint64 // by FaultKind

	// ByNestedLevels[d] counts completed walks with d guest levels handled
	// nested, d in 0..4; FullNested counts walks that also translated
	// gptr. Together these are the paper's Table VI classification.
	ByNestedLevels [5]uint64
	FullNested     uint64

	// RefsByNestedLevels and FullNestedRefs split the reference volume the
	// same way, so telemetry epochs can decompose refs/walk by switch
	// depth without per-walk callbacks.
	RefsByNestedLevels [5]uint64
	FullNestedRefs     uint64
}

// Walker executes hardware page walks against simulated physical memory.
type Walker struct {
	mem    *memsim.Memory
	pwc    *ptwc.PWC       // optional
	ntlb   *ptwc.NestedTLB // optional
	record bool
	stats  Stats
	// scratch is reused across walks so the per-access hot path performs no
	// heap allocation; walks on one Walker never overlap. Its accesses
	// buffer only grows while recording is enabled.
	scratch walkState
}

// New creates a walker. pwc and ntlb may be nil to model a machine without
// those structures (as Table VI's "no page walk caches" column requires).
func New(mem *memsim.Memory, pwc *ptwc.PWC, ntlb *ptwc.NestedTLB) *Walker {
	return &Walker{mem: mem, pwc: pwc, ntlb: ntlb}
}

// SetRecording toggles per-walk access traces (Figures 1 and 3).
func (w *Walker) SetRecording(on bool) { w.record = on }

// Stats returns the accumulated counters.
func (w *Walker) Stats() Stats { return w.stats }

// ResetStats zeroes the counters.
func (w *Walker) ResetStats() { w.stats = Stats{} }

// Reset restores the walker to its post-construction state: counters
// zeroed, recording off, scratch truncated. The scratch buffer's capacity
// is retained — it is reused allocation-free by the next recorded walk.
func (w *Walker) Reset() {
	w.stats = Stats{}
	w.record = false
	w.scratch.refs = 0
	w.scratch.hostRefs = 0
	w.scratch.accesses = w.scratch.accesses[:0]
}

// PWC returns the walker's page walk cache (may be nil).
func (w *Walker) PWC() *ptwc.PWC { return w.pwc }

// NTLB returns the walker's nested TLB (may be nil).
func (w *Walker) NTLB() *ptwc.NestedTLB { return w.ntlb }

// readEntry dereferences one page-table entry at host-physical table page
// tableHPA, charging one memory reference.
func (w *Walker) readEntry(st *walkState, kind TableKind, level int, tableHPA uint64, idx int) pagetable.Entry {
	st.refs++
	if kind == TableHost {
		st.hostRefs++
	}
	addr := tableHPA + uint64(idx)*8
	if w.record {
		st.accesses = append(st.accesses, Access{Table: kind, Level: level, Addr: addr})
	}
	return pagetable.Entry(w.mem.ReadEntry(memsim.FrameOf(tableHPA), idx))
}

// writeEntry lets the hardware update A/D bits in guest tables it walked in
// nested mode. Hardware writes do not trap (those table pages are not
// write-protected when under nested mode).
func (w *Walker) writeEntry(tableHPA uint64, idx int, val pagetable.Entry) {
	w.mem.WriteEntry(memsim.FrameOf(tableHPA), idx, uint64(val))
}

// walkState carries per-walk accounting.
type walkState struct {
	refs     int
	hostRefs int
	accesses []Access
}

func (w *Walker) finish(st *walkState, r Result) Result {
	r.Refs = st.refs
	r.HostRefs = st.hostRefs
	if w.record {
		// The scratch buffer is clobbered by the next walk; hand the
		// caller its own copy. Recording is off on the measurement path.
		r.Accesses = append([]Access(nil), st.accesses...)
	}
	w.stats.Walks++
	w.stats.Refs += uint64(st.refs)
	if r.GptrTranslated {
		w.stats.FullNested++
		w.stats.FullNestedRefs += uint64(st.refs)
	}
	if r.NestedLevels >= 0 && r.NestedLevels <= 4 {
		w.stats.ByNestedLevels[r.NestedLevels]++
		w.stats.RefsByNestedLevels[r.NestedLevels] += uint64(st.refs)
	}
	return r
}

func (w *Walker) fault(st *walkState, f *Fault) *Fault {
	f.Refs = st.refs
	f.HostRefs = st.hostRefs
	w.stats.Faults[f.Kind]++
	return f
}
