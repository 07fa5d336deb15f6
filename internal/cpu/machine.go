// Package cpu assembles the full simulated machine: physical memory, the
// TLB hierarchy, page walk caches, the hardware walker, the guest OS, and —
// for virtualized configurations — the VMM and the agile paging manager.
// It executes workload op streams and produces the cycle accounting that
// the paper's evaluation (Figure 5) is built from.
package cpu

import (
	"errors"
	"fmt"

	"agilepaging/internal/core"
	"agilepaging/internal/guest"
	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/ptwc"
	"agilepaging/internal/stats"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/tlb"
	"agilepaging/internal/vmm"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// Config describes one machine configuration — a column of the paper's
// Figure 5 (technique × page size), plus the structural knobs the
// experiments vary.
type Config struct {
	// Technique selects base native, nested, shadow, or agile paging.
	Technique walker.Mode
	// PageSize is the page-size policy used by the guest OS and, in
	// virtualized configurations, by the VMM's host table (the paper uses
	// the same size at both levels, §VI).
	PageSize pagetable.Size

	// MemBytes sizes host physical memory; GuestRAMBytes the VM.
	MemBytes      uint64
	GuestRAMBytes uint64

	// TLB geometry; TLBScale shrinks it to match scaled-down footprints.
	TLB      tlb.Config
	TLBScale int

	// EnablePWC/EnableNTLB toggle the MMU caches (Table VI runs without).
	EnablePWC   bool
	PWC         ptwc.Config
	EnableNTLB  bool
	NTLBEntries int

	// Cycle model: AccessCycles is the ideal cost of one access op;
	// MemRefCycles the cost of one page-walk memory reference to native,
	// guest, or shadow tables; HostRefCycles the (lower) cost of host-table
	// references, which are few, hot, and mostly served by the data caches
	// on real hardware (paper §II-A's caching discussion).
	AccessCycles  uint64
	MemRefCycles  uint64
	HostRefCycles uint64

	// Virtualization options (paper §IV hardware optimizations included).
	HardwareAD     bool
	CtxSwitchCache int
	TrapCosts      vmm.CostModel
	Agile          core.PolicyConfig
	PolicyTickOps  int

	// Cores is the number of simulated CPU cores. Each core has private
	// TLBs, page walk caches and a nested TLB (as real parts do); the VMM,
	// guest OS and physical memory are shared, and TLB shootdowns broadcast
	// to every core. Cores interleave on one simulated timeline — the model
	// captures per-core translation state and shared-VMM costs, not
	// parallel throughput. 0 or 1 = uniprocessor.
	Cores int

	// UseSHSP replaces the agile manager with the prior-work baseline of
	// paper §VII.C: selective hardware/software paging, which switches the
	// whole process between nested and shadow mode (requires Technique ==
	// walker.ModeAgile for the underlying mechanisms).
	UseSHSP bool
	SHSP    core.SHSPConfig

	// DisableL0Memo turns off the per-core generation-checked translation
	// memo. The memo is semantically transparent — reports are bit-identical
	// either way (see TestBatchedExecutionEquivalence) — so this exists only
	// for equivalence tests and before/after microbenchmarks.
	DisableL0Memo bool
}

// normalize applies the defaults New guarantees, in place. New and Reset
// both store the normalized config, so Machine.Config() round-trips: feeding
// it back to New (or Reset) yields an identical machine.
func (cfg *Config) normalize() {
	if cfg.PolicyTickOps <= 0 {
		cfg.PolicyTickOps = 20_000
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.NTLBEntries <= 0 {
		cfg.NTLBEntries = 32
	}
}

// Normalized returns the config with the defaults New guarantees applied —
// the exact config a machine built from cfg would report via Config().
// Configs that build identical machines have identical Normalized values,
// which makes it the canonical form for content keys over machine behaviour.
func (cfg Config) Normalized() Config {
	cfg.normalize()
	return cfg
}

// Geometry is the immutable skeleton of a machine: every Config field that
// determines the shape or capacity of a structure built by New. Two configs
// with equal geometry describe machines whose difference is run state and
// cost accounting only, so one can be Reset into the other; differing
// geometry requires a fresh New. The struct is comparable and is the
// machine pool's key.
type Geometry struct {
	Technique     walker.Mode
	PageSize      pagetable.Size
	MemBytes      uint64
	GuestRAMBytes uint64
	TLB           tlb.Config
	TLBScale      int
	EnablePWC     bool
	PWC           ptwc.Config
	EnableNTLB    bool
	NTLBEntries   int
	Cores         int
}

// Geometry extracts the geometry of a config. Call on a normalized config
// (Machine.Config() already is) for a canonical key.
func (cfg Config) Geometry() Geometry {
	cfg.normalize()
	return Geometry{
		Technique:     cfg.Technique,
		PageSize:      cfg.PageSize,
		MemBytes:      cfg.MemBytes,
		GuestRAMBytes: cfg.GuestRAMBytes,
		TLB:           cfg.TLB,
		TLBScale:      cfg.TLBScale,
		EnablePWC:     cfg.EnablePWC,
		PWC:           cfg.PWC,
		EnableNTLB:    cfg.EnableNTLB,
		NTLBEntries:   cfg.NTLBEntries,
		Cores:         cfg.Cores,
	}
}

// DefaultConfig returns the baseline machine for a technique and page size:
// Sandy-Bridge TLBs scaled 8× down (footprints are ~1000× down; the scale
// keeps miss ratios in the published band), MMU caches on, no optional
// hardware optimizations.
func DefaultConfig(technique walker.Mode, pageSize pagetable.Size) Config {
	return Config{
		Technique:     technique,
		PageSize:      pageSize,
		MemBytes:      8 << 30,
		GuestRAMBytes: 4 << 30,
		TLB:           tlb.SandyBridgeConfig(),
		TLBScale:      8,
		EnablePWC:     true,
		PWC:           ptwc.DefaultConfig(),
		EnableNTLB:    true,
		NTLBEntries:   32,
		AccessCycles:  50,
		MemRefCycles:  40,
		HostRefCycles: 10,
		TrapCosts:     vmm.DefaultCostModel(),
		Agile:         core.DefaultPolicy(),
		PolicyTickOps: 5_000,
	}
}

// Stats accumulates machine-level counters.
type Stats struct {
	Accesses    uint64
	Writes      uint64
	TLBMisses   uint64
	WalkRefs    uint64
	IdealCycles uint64
	WalkCycles  uint64

	GuestPageFaults uint64 // faults delivered to the guest OS
	WriteProtFaults uint64 // write-permission upgrades (dirty/COW paths)
	CtxSwitches     uint64
}

// l0Memo caches one core's last successful translation — the "L0 TLB". A
// run of accesses to the same page short-circuits the full hierarchy probe
// while performing exactly the counter updates the probe would (see
// Machine.translate). Validity is generation-checked: the memo is usable
// only while the core's TLB hierarchy has seen no invalidation or flush
// since the memo was recorded (tlb.Hierarchy.Gen). Because the memo always
// describes the core's most recent lookup, the entry is necessarily still
// most-recent in its TLB set, so no intervening insert can have evicted it
// and skipping the LRU touch is unobservable.
type l0Memo struct {
	gen      uint64 // tlbs.Gen() when recorded
	base     uint64 // VA page base
	mask     uint64 // page-size offset mask
	asid     uint16
	fetch    bool // instruction-side translation
	writable bool
	valid    bool
}

// coreState is the translation state private to one CPU core.
type coreState struct {
	idx    int
	tlbs   *tlb.Hierarchy
	pwc    *ptwc.PWC
	ntlb   *ptwc.NestedTLB
	walker *walker.Walker
	regs   walker.Regs
	cur    *guest.Process
	// ctx caches the VMM context of the scheduled process (nil when
	// unvirtualized or idle) so the fault and policy paths do not resolve
	// the ASID→context map on every access.
	ctx *vmm.Context
	l0  l0Memo
}

// Machine is the assembled simulator.
type Machine struct {
	cfg Config

	Mem *memsim.Memory
	// TLBs, PWC, NTLB and Walker alias core 0's structures for convenience
	// (most experiments are uniprocessor).
	TLBs   *tlb.Hierarchy
	PWC    *ptwc.PWC
	NTLB   *ptwc.NestedTLB
	Walker *walker.Walker
	OS     *guest.OS
	VM     *vmm.VM // nil for base native

	cores []*coreState

	managers map[uint16]*core.Manager
	shsp     map[uint16]*core.SHSP

	clock     uint64
	stats     Stats
	refsHist  *stats.Hist // completed-walk memory references per TLB miss
	missObs   func(va uint64, write, retry bool, res walker.Result)
	accessObs func(va uint64, write bool, pa uint64, size pagetable.Size)

	// Optional telemetry (nil when disabled; see internal/telemetry). tel
	// costs one branch + one increment per access; walkEvents one array
	// copy per completed walk. Neither allocates on the access path.
	tel        *telemetry.Recorder
	walkEvents *telemetry.EventRing

	// Policy-tick window for TLB-miss-overhead estimation.
	sinceTickAccesses  uint64
	sinceTickIdeal     uint64
	sinceTickWalk      uint64
	lastTickTrapCycles uint64
	lastTickFaults     uint64
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	cfg.normalize()
	m := &Machine{
		cfg:      cfg,
		Mem:      memsim.New(cfg.MemBytes),
		managers: make(map[uint16]*core.Manager),
		shsp:     make(map[uint16]*core.SHSP),
		refsHist: stats.NewHist(25),
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &coreState{idx: i, tlbs: tlb.NewHierarchy(cfg.TLB.Scaled(cfg.TLBScale))}
		if cfg.EnablePWC {
			c.pwc = ptwc.New(cfg.PWC)
		}
		if cfg.EnableNTLB && cfg.Technique != walker.ModeNative {
			c.ntlb = ptwc.NewNestedTLB(cfg.NTLBEntries, 4)
		}
		c.walker = walker.New(m.Mem, c.pwc, c.ntlb)
		m.cores = append(m.cores, c)
	}
	m.TLBs = m.cores[0].tlbs
	m.PWC = m.cores[0].pwc
	m.NTLB = m.cores[0].ntlb
	m.Walker = m.cores[0].walker

	if cfg.Technique == walker.ModeNative {
		m.OS = guest.New(nativePlatform{m})
		return m, nil
	}
	vm, err := vmm.New(m.Mem, (*machineMMU)(m), 1, cfg.vmConfig())
	if err != nil {
		return nil, err
	}
	m.VM = vm
	m.OS = guest.New(virtPlatform{m})
	return m, nil
}

// vmConfig derives the VM configuration embedded in a machine config.
func (cfg Config) vmConfig() vmm.Config {
	return vmm.Config{
		Technique:             cfg.Technique,
		RAMBytes:              cfg.GuestRAMBytes,
		HostPageSize:          cfg.PageSize,
		HardwareAD:            cfg.HardwareAD,
		CtxSwitchCacheEntries: cfg.CtxSwitchCache,
		Costs:                 cfg.TrapCosts,
	}
}

// Config returns the machine configuration (normalized: defaults applied).
func (m *Machine) Config() Config { return m.cfg }

// ErrGeometryChange is returned by Reset when the requested configuration
// differs from the machine's in a structural field; such changes require a
// fresh New.
var ErrGeometryChange = errors.New("cpu: config geometry differs; Reset cannot resize structures, use New")

// Reset restores the machine to the pristine state New(cfg) would produce,
// without releasing any backing capacity: memory frames recycle to the
// allocator's high-water mark, TLB/PWC/nested-TLB arrays empty with their
// LRU clocks rewound, and all guest, VMM, and policy state tears down. cfg
// must match the machine's geometry (Config.Geometry) — non-structural
// fields (cycle and trap cost models, §IV optimization toggles, policy
// parameters) are adopted from cfg, which is what lets sensitivity sweeps
// reuse pooled machines across cost-model perturbations.
//
// A reset machine is deterministically equivalent to a fresh one: frame
// allocation order, replacement decisions, and policy state all replay
// identically, so an identical op stream produces a bit-identical Report
// (pinned by TestResetVsFreshEquivalence). Observers and telemetry are
// detached; reattach per run. Reset performs no heap allocation.
func (m *Machine) Reset(cfg Config) error {
	cfg.normalize()
	if cfg.Geometry() != m.cfg.Geometry() {
		return ErrGeometryChange
	}
	m.cfg = cfg
	m.Mem.Reset()
	for _, c := range m.cores {
		c.tlbs.Reset()
		if c.pwc != nil {
			c.pwc.Reset()
		}
		if c.ntlb != nil {
			c.ntlb.Reset()
		}
		c.walker.Reset()
		c.regs = walker.Regs{}
		c.cur = nil
		c.ctx = nil
		c.l0 = l0Memo{}
	}
	clear(m.managers)
	clear(m.shsp)
	m.OS.Reset()
	if m.VM != nil {
		// After Mem.Reset the VM's fresh host-table root draws the same
		// frame number vmm.New drew, keeping frame numbering bit-identical.
		if err := m.VM.Reset(cfg.vmConfig()); err != nil {
			return err
		}
	}
	m.clock = 0
	m.stats = Stats{}
	m.refsHist.Reset()
	m.missObs = nil
	m.accessObs = nil
	m.tel = nil
	m.walkEvents = nil
	m.sinceTickAccesses, m.sinceTickIdeal, m.sinceTickWalk = 0, 0, 0
	m.lastTickTrapCycles = 0
	m.lastTickFaults = 0
	return nil
}

// Clock returns the simulated cycle count.
func (m *Machine) Clock() uint64 { return m.clock }

// Stats returns machine counters.
func (m *Machine) Stats() Stats { return m.stats }

// Managers returns the agile managers by ASID (empty unless agile).
func (m *Machine) Managers() map[uint16]*core.Manager { return m.managers }

// SHSPControllers returns the SHSP controllers by ASID (empty unless the
// SHSP baseline is enabled).
func (m *Machine) SHSPControllers() map[uint16]*core.SHSP { return m.shsp }

// SetMissObserver installs a callback invoked on every completed TLB-miss
// walk — the analog of the paper's BadgerTrap instrumentation (§VI step 2).
// write is the access's store bit; retry reports that the same logical
// access already produced a record (a store re-walks after its
// write-protection upgrade).
func (m *Machine) SetMissObserver(fn func(va uint64, write, retry bool, res walker.Result)) {
	m.missObs = fn
}

// SetAccessObserver installs a callback invoked once per successful data or
// fetch access with the final translated host-physical address. Every
// successful access terminates in a TLB hit (walks insert and re-probe), so
// the hook sees exactly one event per access, in program order, regardless
// of technique. It requires DisableL0Memo: the L0 repeat path short-circuits
// before the physical address is recomputed. The differential-equivalence
// harness uses it to track per-frame memory contents.
func (m *Machine) SetAccessObserver(fn func(va uint64, write bool, pa uint64, size pagetable.Size)) {
	m.accessObs = fn
}

// ResetMeasurement zeroes every statistics counter while leaving all
// architectural and policy state (TLB contents, shadow tables, mode
// decisions) intact. Experiments call it after warmup so measurements
// reflect steady-state behaviour, as the paper's to-completion runs do.
func (m *Machine) ResetMeasurement() {
	m.stats = Stats{}
	for _, c := range m.cores {
		c.tlbs.ResetStats()
		c.walker.ResetStats()
		if c.pwc != nil {
			c.pwc.ResetStats()
		}
		if c.ntlb != nil {
			c.ntlb.ResetStats()
		}
	}
	if m.VM != nil {
		m.VM.ResetStats()
	}
	m.OS.ResetStats()
	m.sinceTickAccesses, m.sinceTickIdeal, m.sinceTickWalk = 0, 0, 0
	m.lastTickTrapCycles = 0
	m.lastTickFaults = 0
	m.refsHist.Reset()
	if m.tel != nil {
		// Epochs must never straddle a counter reset: rebase the recorder
		// so the next epoch diffs against the zeroed counter space.
		m.tel.Rebase(m.TelemetryCounters())
	}
}

// Regs exposes core 0's current hardware register state (for experiments).
func (m *Machine) Regs() walker.Regs { return m.cores[0].regs }

// Cores reports the number of simulated CPU cores.
func (m *Machine) Cores() int { return len(m.cores) }

// RefsHist exposes the per-miss memory-reference histogram.
func (m *Machine) RefsHist() *stats.Hist { return m.refsHist }

// asidFor maps a PID to its hardware ASID (0 is reserved).
func asidFor(pid int) uint16 { return uint16(pid + 1) }

// RunOps executes an op slice in order; it is the machine's one executor.
// A run of consecutive accesses on the same core executes in a tight loop
// that resolves the core and scheduled process once, which is op-for-op
// identical to executing each op alone (see
// TestBatchedExecutionEquivalence). Errors carry the failing op's stream
// index (base is the index of ops[0]), kind, pid and va, so deterministic
// workloads can be replayed up to the failure point. The slice is never
// written to and may be shared with concurrent runs.
func (m *Machine) RunOps(ops []workload.Op, base int) error {
	for i := 0; i < len(ops); {
		op := &ops[i]
		j, k := i+1, 0
		var err error
		if op.Kind == workload.OpAccess {
			for j < len(ops) && ops[j].Kind == workload.OpAccess && ops[j].Core == op.Core {
				j++
			}
			k, err = m.accessRun(m.coreIndex(op.Core), ops[i:j])
		} else {
			err = m.execOp(op)
		}
		if err != nil {
			fail := &ops[i+k]
			return fmt.Errorf("op %d (%v) pid=%d va=%#x: %w", base+i+k, fail.Kind, fail.PID, fail.VA, err)
		}
		i = j
	}
	return nil
}

// accessRun executes a run of same-core access ops. On error it returns
// the run-relative index of the failing op.
func (m *Machine) accessRun(coreIdx int, ops []workload.Op) (int, error) {
	c := m.cores[coreIdx]
	cur := c.cur
	if cur == nil || c.regs.ASID == 0 {
		return 0, errNoProcess
	}
	for k := range ops {
		if err := m.access(c, cur, &ops[k]); err != nil {
			return k, err
		}
	}
	return 0, nil
}

// access performs one load, store or fetch, then runs the policy tick and
// the telemetry sample, which both happen even when the access errors.
func (m *Machine) access(c *coreState, cur *guest.Process, op *workload.Op) error {
	err := m.translate(c, cur, op.VA, op.Write, op.Fetch)
	m.policyTick()
	if m.tel != nil && m.tel.OnAccess() {
		m.tel.Sample(m.TelemetryCounters())
	}
	return err
}

// coreIndex clamps an op's core selector to a valid core.
func (m *Machine) coreIndex(core int) int {
	if core < 0 || core >= len(m.cores) {
		return 0
	}
	return core
}

// Exec executes one op.
func (m *Machine) Exec(op workload.Op) error { return m.RunOps([]workload.Op{op}, 0) }

// execOp executes one op other than an access.
func (m *Machine) execOp(op *workload.Op) error {
	switch op.Kind {
	case workload.OpCreateProcess:
		_, err := m.OS.CreateProcess(op.PID, asidFor(op.PID))
		return err
	case workload.OpCtxSwitch:
		return m.contextSwitch(m.coreIndex(op.Core), op.PID)
	case workload.OpMmap:
		_, err := m.OS.Mmap(op.PID, op.VA, op.Len, op.Size, true)
		return err
	case workload.OpPopulate:
		return m.OS.Populate(op.PID, op.VA)
	case workload.OpMunmap:
		return m.OS.Munmap(op.PID, op.VA)
	case workload.OpMarkCOW:
		return m.OS.MarkCOW(op.PID, op.VA)
	case workload.OpReclaim:
		_, err := m.OS.ReclaimScan(op.PID, op.N)
		return err
	case workload.OpCollapse:
		if err := m.OS.Collapse(op.PID, op.VA); err != nil && !errors.Is(err, guest.ErrCollapseUnsuitable) {
			return err
		}
		// An unsuitable range (partially mapped, already huge, crossing a
		// region boundary) is skipped, as khugepaged skips it. The refusal
		// is decided before any state changes, so the skip is deterministic
		// across techniques.
		return nil
	}
	return fmt.Errorf("cpu: unknown op kind %v", op.Kind)
}

// ContextSwitch schedules pid on core 0 (uniprocessor convenience).
func (m *Machine) ContextSwitch(pid int) error { return m.contextSwitch(0, pid) }

// contextSwitch schedules pid on the given core: the guest OS switches
// and the CR3 write is handled natively or by the VMM.
func (m *Machine) contextSwitch(coreIdx, pid int) error {
	p, err := m.OS.ContextSwitch(pid)
	if err != nil {
		return err
	}
	c := m.cores[coreIdx]
	m.stats.CtxSwitches++
	c.cur = p
	if m.VM == nil {
		c.regs = walker.Regs{Mode: walker.ModeNative, Root: p.PT.Root(), ASID: p.ASID}
		c.ctx = nil
		return nil
	}
	regs, err := m.VM.ContextSwitch(p.ASID)
	if err != nil {
		return err
	}
	c.regs = regs
	ctx, ok := m.VM.Context(p.ASID)
	if !ok {
		return fmt.Errorf("cpu: no VMM context for asid %d", p.ASID)
	}
	c.ctx = ctx
	return nil
}

// errNoProcess guards accesses before any context is installed.
var errNoProcess = errors.New("cpu: no process scheduled")

// Access performs one load or store on core 0 (uniprocessor convenience).
func (m *Machine) Access(va uint64, write bool) error {
	return m.RunOps([]workload.Op{{Kind: workload.OpAccess, VA: va, Write: write}}, 0)
}

// Fetch performs one instruction fetch at va on the given core, translated
// by the instruction-side TLBs. Like an op's core, an out-of-range coreIdx
// selects core 0.
func (m *Machine) Fetch(coreIdx int, va uint64) error {
	return m.RunOps([]workload.Op{{Kind: workload.OpAccess, Core: coreIdx, VA: va, Fetch: true}}, 0)
}

// translate runs the translation loop of one access: TLB probe, hardware
// walk, fault servicing, permission upgrades, and retry.
func (m *Machine) translate(c *coreState, cur *guest.Process, va uint64, write, fetch bool) error {
	m.stats.Accesses++
	if write {
		m.stats.Writes++
	}
	m.charge(&m.stats.IdealCycles, &m.sinceTickIdeal, m.cfg.AccessCycles)

	// L0 memo: a repeat of the core's previous translation (same page, same
	// address space, same TLB side, sufficient permission) is provably still
	// an L1 hit as long as the hierarchy has seen no invalidation since —
	// the entry was most-recent in its set and nothing evicted it. Account
	// it exactly as the full probe would and skip the probe.
	if l0 := &c.l0; l0.valid && l0.gen == c.tlbs.Gen() &&
		va&^l0.mask == l0.base && l0.asid == c.regs.ASID && l0.fetch == fetch &&
		(!write || l0.writable) && !m.cfg.DisableL0Memo {
		c.tlbs.NoteRepeatL1Hit()
		return nil
	}

	// logged tracks whether this logical access already produced a miss
	// record: a store that walks, hits a read-only entry, and re-walks
	// after the write-protection upgrade logs again, and that second
	// record is marked as a retry rather than silently duplicated.
	logged := false
	for attempt := 0; attempt < 32; attempt++ {
		if r, ok := c.tlbs.Lookup(c.regs.ASID, va, fetch); ok {
			if write && !r.Flags.Writable() {
				if err := m.writeProtFault(c, cur, va); err != nil {
					return err
				}
				continue
			}
			c.l0 = l0Memo{
				gen:      c.tlbs.Gen(),
				base:     va &^ r.Size.Mask(),
				mask:     r.Size.Mask(),
				asid:     c.regs.ASID,
				fetch:    fetch,
				writable: r.Flags.Writable(),
				valid:    true,
			}
			if m.accessObs != nil {
				m.accessObs(va, write, r.PA, r.Size)
			}
			return nil
		}
		m.stats.TLBMisses++
		res, fault := c.walker.Walk(c.regs, va, write)
		if fault == nil {
			cycles := m.chargeWalk(res.Refs, res.HostRefs)
			m.refsHist.Add(res.Refs)
			if m.missObs != nil {
				m.missObs(va, write, logged, res)
			}
			logged = true
			if m.walkEvents != nil {
				m.walkEvents.Record(telemetry.WalkEvent{
					Clock:        m.clock,
					Core:         c.idx,
					VA:           va,
					Refs:         res.Refs,
					HostRefs:     res.HostRefs,
					NestedLevels: res.NestedLevels,
					FullNested:   res.GptrTranslated,
					Write:        write,
					Cycles:       cycles,
				})
			}
			c.tlbs.Insert(c.regs.ASID, va, res.Size, res.HPA&^res.Size.Mask(), res.Flags, fetch)
			if write && !res.Flags.Writable() {
				if err := m.writeProtFault(c, cur, va); err != nil {
					return err
				}
			}
			continue // re-probe the TLB (entry may have been upgraded)
		}
		m.chargeWalk(fault.Refs, fault.HostRefs)
		if err := m.handleFault(c, cur, va, write, fault); err != nil {
			return err
		}
	}
	return fmt.Errorf("cpu: access %#x did not converge", va)
}

// handleFault dispatches a hardware walk fault to its handler.
func (m *Machine) handleFault(c *coreState, cur *guest.Process, va uint64, write bool, fault *walker.Fault) error {
	switch fault.Kind {
	case walker.FaultNotPresent:
		if m.VM == nil {
			m.stats.GuestPageFaults++
			return m.OS.HandlePageFault(cur.PID, va, write)
		}
		ctx := c.ctx
		if ctx == nil {
			return fmt.Errorf("cpu: no VMM context for asid %d", cur.ASID)
		}
		out, err := ctx.HandleShadowFault(va, write)
		if err != nil {
			return err
		}
		c.regs = ctx.Regs() // fill may have planted a root switch
		if out == vmm.OutcomeGuestFault {
			m.stats.GuestPageFaults++
			return m.OS.HandlePageFault(cur.PID, va, write)
		}
		return nil
	case walker.FaultGuest:
		m.stats.GuestPageFaults++
		return m.OS.HandlePageFault(cur.PID, va, write)
	case walker.FaultHost:
		return m.VM.HandleHostFault(fault.GPA, write)
	}
	return fmt.Errorf("cpu: unknown fault %v", fault.Kind)
}

// writeProtFault upgrades write permission at va: dirty-bit tracking or COW.
func (m *Machine) writeProtFault(c *coreState, cur *guest.Process, va uint64) error {
	m.stats.WriteProtFaults++
	if m.VM == nil {
		m.invalidateAllCores(c.regs.ASID, va)
		m.stats.GuestPageFaults++
		return m.OS.HandlePageFault(cur.PID, va, true)
	}
	ctx := c.ctx
	if ctx == nil {
		return fmt.Errorf("cpu: no VMM context for asid %d", cur.ASID)
	}
	resolved, err := ctx.HandleWriteProtect(va)
	if err != nil {
		return err
	}
	if !resolved {
		m.invalidateAllCores(c.regs.ASID, va)
		m.stats.GuestPageFaults++
		return m.OS.HandlePageFault(cur.PID, va, true)
	}
	return nil
}

// invalidateAllCores performs a TLB shootdown of va across every core.
func (m *Machine) invalidateAllCores(asid uint16, va uint64) {
	for _, c := range m.cores {
		c.tlbs.InvalidatePage(asid, va)
	}
}

func (m *Machine) charge(total *uint64, window *uint64, cycles uint64) {
	*total += cycles
	*window += cycles
	m.clock += cycles
}

func (m *Machine) chargeWalk(refs, hostRefs int) uint64 {
	m.stats.WalkRefs += uint64(refs)
	cycles := uint64(refs-hostRefs)*m.cfg.MemRefCycles + uint64(hostRefs)*m.cfg.HostRefCycles
	m.charge(&m.stats.WalkCycles, &m.sinceTickWalk, cycles)
	return cycles
}

// policyTick drives the agile managers with the observed TLB-miss overhead
// of the recent window (the paper's performance-counter feedback, §III-C).
func (m *Machine) policyTick() {
	m.sinceTickAccesses++
	if m.sinceTickAccesses < uint64(m.cfg.PolicyTickOps) {
		return
	}
	var trapDelta uint64
	if m.VM != nil {
		cur := m.VM.Stats().TrapCycles
		trapDelta = cur - m.lastTickTrapCycles
		m.lastTickTrapCycles = cur
	}
	missOverhead := 0.0
	trapOverhead := 0.0
	if denom := m.sinceTickIdeal + m.sinceTickWalk + trapDelta; denom > 0 {
		missOverhead = float64(m.sinceTickWalk) / float64(denom)
		trapOverhead = float64(trapDelta) / float64(denom)
	}
	for _, mgr := range m.managers {
		mgr.Tick(m.clock, missOverhead)
	}
	faultRate := 0.0
	if m.sinceTickAccesses > 0 {
		faultRate = float64(m.stats.GuestPageFaults-m.lastTickFaults) / float64(m.sinceTickAccesses)
	}
	m.lastTickFaults = m.stats.GuestPageFaults
	for _, ctl := range m.shsp {
		ctl.Tick(m.clock, missOverhead, trapOverhead, faultRate)
	}
	for _, c := range m.cores {
		if c.ctx != nil {
			c.regs = c.ctx.Regs() // policies may have changed mode state
		}
	}
	m.sinceTickAccesses = 0
	m.sinceTickIdeal = 0
	m.sinceTickWalk = 0
}

// machineMMU implements vmm.MMU over the machine's hardware structures.
type machineMMU Machine

func (mm *machineMMU) InvalidatePage(asid uint16, gva uint64) {
	for _, c := range mm.cores {
		c.tlbs.InvalidatePage(asid, gva)
	}
}

func (mm *machineMMU) FlushASID(asid uint16) {
	for _, c := range mm.cores {
		c.tlbs.FlushASID(asid)
	}
}

func (mm *machineMMU) PWCInvalidateVA(asid uint16, gva uint64) {
	for _, c := range mm.cores {
		if c.pwc != nil {
			c.pwc.InvalidateVA(asid, gva)
		}
	}
}

func (mm *machineMMU) PWCFlushASID(asid uint16) {
	for _, c := range mm.cores {
		if c.pwc != nil {
			c.pwc.FlushASID(asid)
		}
	}
}

func (mm *machineMMU) NTLBInvalidateGPA(vmid uint16, gpa uint64) {
	for _, c := range mm.cores {
		if c.ntlb != nil {
			c.ntlb.InvalidateGPA(vmid, gpa)
		}
	}
}

// nativePlatform implements guest.Platform for the unvirtualized machine.
type nativePlatform struct{ m *Machine }

func (p nativePlatform) NewProcessTable(asid uint16) (*pagetable.Table, error) {
	return pagetable.New(p.m.Mem, pagetable.HostSpace{Mem: p.m.Mem})
}

func (p nativePlatform) AllocPage(size pagetable.Size) (uint64, error) {
	n := int(size.Bytes() / memsim.FrameSize)
	f, err := p.m.Mem.AllocContiguousAligned(n, n)
	if err != nil {
		return 0, err
	}
	return f.Addr(), nil
}

func (p nativePlatform) FreePage(pa uint64, size pagetable.Size) {
	for off := uint64(0); off < size.Bytes(); off += memsim.FrameSize {
		_ = p.m.Mem.FreeFrame(memsim.FrameOf(pa + off))
	}
}

func (p nativePlatform) TLBInvalidate(asid uint16, va uint64) {
	for _, c := range p.m.cores {
		c.tlbs.InvalidatePage(asid, va)
		if c.pwc != nil {
			c.pwc.InvalidateVA(asid, va)
		}
	}
}

func (p nativePlatform) TLBInvalidateSpan(asid uint16, va uint64, size pagetable.Size) {
	// Natively a huge page is cached as one TLB entry and its walk shares
	// one set of PWC entries, so the span invalidation is a single INVLPG.
	p.TLBInvalidate(asid, va)
}

func (p nativePlatform) TLBFlush(asid uint16) {
	for _, c := range p.m.cores {
		c.tlbs.FlushASID(asid)
		if c.pwc != nil {
			c.pwc.FlushASID(asid)
		}
	}
}

func (p nativePlatform) StructuralEdit(asid uint16, va uint64, size pagetable.Size) {
	// A 2M rebuild invalidates 512 pages; Linux flushes the whole TLB once
	// a range invalidation exceeds its batching ceiling (33 pages), so
	// model the range invalidation as one full flush.
	p.TLBFlush(asid)
}

// virtPlatform implements guest.Platform inside the VM.
type virtPlatform struct{ m *Machine }

func (p virtPlatform) NewProcessTable(asid uint16) (*pagetable.Table, error) {
	ctx, err := p.m.VM.NewProcess(asid)
	if err != nil {
		return nil, err
	}
	if p.m.cfg.Technique == walker.ModeAgile {
		if p.m.cfg.UseSHSP {
			ctl, err := core.NewSHSP(ctx, p.m.cfg.SHSP)
			if err != nil {
				return nil, err
			}
			p.m.shsp[asid] = ctl
		} else {
			mgr, err := core.NewManager(ctx, p.m.cfg.Agile)
			if err != nil {
				return nil, err
			}
			p.m.managers[asid] = mgr
		}
	}
	return ctx.GPT(), nil
}

func (p virtPlatform) AllocPage(size pagetable.Size) (uint64, error) {
	return p.m.VM.AllocGPA(size)
}

func (p virtPlatform) FreePage(pa uint64, size pagetable.Size) {
	p.m.VM.FreeGPA(pa, size)
}

func (p virtPlatform) TLBInvalidate(asid uint16, va uint64) {
	if ctx, ok := p.m.VM.Context(asid); ok {
		ctx.GuestTLBFlush(va, false)
	}
}

func (p virtPlatform) TLBInvalidateSpan(asid uint16, va uint64, size pagetable.Size) {
	if ctx, ok := p.m.VM.Context(asid); ok {
		ctx.GuestTLBFlushSpan(va, size)
	}
}

func (p virtPlatform) TLBFlush(asid uint16) {
	if ctx, ok := p.m.VM.Context(asid); ok {
		ctx.GuestTLBFlush(0, true)
	}
}

func (p virtPlatform) StructuralEdit(asid uint16, va uint64, size pagetable.Size) {
	if ctx, ok := p.m.VM.Context(asid); ok {
		ctx.StructuralEdit(va, size)
	}
}
