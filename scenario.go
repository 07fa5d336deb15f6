package agilepaging

import (
	"fmt"

	"agilepaging/internal/cpu"
	"agilepaging/internal/repcache"
	"agilepaging/internal/workload"
)

// Scenario builds a custom guest execution script for cases the packaged
// workloads don't cover: it records OS-level operations (map regions, touch
// memory, snapshot copy-on-write, reclaim, switch processes) and replays
// them on a simulated machine under any technique.
//
// Operations are recorded against process IDs; the first CreateProcess'd
// PID runs first and Switch changes the scheduled process.
type Scenario struct {
	ops []workload.Op
}

// NewScenario starts an empty scenario with one process (PID 0) created and
// scheduled.
func NewScenario() *Scenario {
	s := &Scenario{}
	s.ops = append(s.ops,
		workload.Op{Kind: workload.OpCreateProcess, PID: 0},
		workload.Op{Kind: workload.OpCtxSwitch, PID: 0},
	)
	return s
}

// AddProcess creates another guest process.
func (s *Scenario) AddProcess(pid int) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpCreateProcess, PID: pid})
	return s
}

// Switch schedules process pid on core 0.
func (s *Scenario) Switch(pid int) *Scenario { return s.SwitchOn(0, pid) }

// SwitchOn schedules process pid on the given core (SMP scenarios).
func (s *Scenario) SwitchOn(core, pid int) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpCtxSwitch, PID: pid, Core: core})
	return s
}

// Map registers a demand-paged region of length bytes at base for pid.
func (s *Scenario) Map(pid int, base, length uint64, ps PageSize) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpMmap, PID: pid, VA: base, Len: length, Size: ps.size()})
	return s
}

// Populate eagerly maps (and dirties) every page of the region at base.
func (s *Scenario) Populate(pid int, base uint64) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpPopulate, PID: pid, VA: base})
	return s
}

// Unmap removes the region containing base.
func (s *Scenario) Unmap(pid int, base uint64) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpMunmap, PID: pid, VA: base})
	return s
}

// Touch performs one load at va on core 0.
func (s *Scenario) Touch(pid int, va uint64) *Scenario { return s.TouchOn(0, pid, va) }

// TouchOn performs one load at va on the given core.
func (s *Scenario) TouchOn(core, pid int, va uint64) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpAccess, PID: pid, VA: va, Core: core})
	return s
}

// Write performs one store at va on core 0.
func (s *Scenario) Write(pid int, va uint64) *Scenario { return s.WriteOn(0, pid, va) }

// WriteOn performs one store at va on the given core.
func (s *Scenario) WriteOn(core, pid int, va uint64) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpAccess, PID: pid, VA: va, Write: true, Core: core})
	return s
}

// Fetch performs one instruction fetch at va on core 0 (I-TLB path).
func (s *Scenario) Fetch(pid int, va uint64) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpAccess, PID: pid, VA: va, Fetch: true})
	return s
}

// TouchRange loads one address per page across [base, base+length).
func (s *Scenario) TouchRange(pid int, base, length uint64, ps PageSize) *Scenario {
	for off := uint64(0); off < length; off += ps.size().Bytes() {
		s.Touch(pid, base+off)
	}
	return s
}

// WriteRange stores one address per page across [base, base+length).
func (s *Scenario) WriteRange(pid int, base, length uint64, ps PageSize) *Scenario {
	for off := uint64(0); off < length; off += ps.size().Bytes() {
		s.Write(pid, base+off)
	}
	return s
}

// Snapshot write-protects the region containing base copy-on-write, as a
// fork or snapshot does (the paper's §II-B/§V COW scenario).
func (s *Scenario) Snapshot(pid int, base uint64) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpMarkCOW, PID: pid, VA: base})
	return s
}

// Promote collapses the 2M-aligned range at va from 512 4K mappings into
// one 2M mapping, as transparent huge pages do (the paper's §V large-page
// support).
func (s *Scenario) Promote(pid int, va uint64) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpCollapse, PID: pid, VA: va})
	return s
}

// Reclaim runs the guest clock reclaimer over n pages (the paper's §V
// memory-pressure scenario).
func (s *Scenario) Reclaim(pid, n int) *Scenario {
	s.ops = append(s.ops, workload.Op{Kind: workload.OpReclaim, PID: pid, N: n})
	return s
}

// Len reports the number of recorded operations.
func (s *Scenario) Len() int { return len(s.ops) }

// ScenarioConfig tunes scenario execution.
type ScenarioConfig struct {
	Technique Technique
	PageSize  PageSize
	// Cores is the number of simulated CPU cores (private TLBs, shared
	// VMM); 0 or 1 = uniprocessor.
	Cores int
	// HardwareAD and CtxSwitchCacheEntries enable the §IV optimizations.
	HardwareAD            bool
	CtxSwitchCacheEntries int
	// DisableMMUCaches removes PWC and nested TLB.
	DisableMMUCaches bool
}

// Run replays the scenario under the given configuration.
//
// Replays are memoized like experiment cells: a scenario is a pure function
// of its op list and configuration, so re-running an identical scenario
// (policy studies that replay one script under many knob settings revisit
// the same cells constantly) returns the stored report. The key covers
// every op verbatim — append one op and the cell misses.
func (s *Scenario) Run(cfg ScenarioConfig) (Result, error) {
	mc := cpu.DefaultConfig(cfg.Technique.mode(), cfg.PageSize.size())
	mc.Cores = cfg.Cores
	mc.HardwareAD = cfg.HardwareAD
	mc.CtxSwitchCache = cfg.CtxSwitchCacheEntries
	mc.EnablePWC = !cfg.DisableMMUCaches
	mc.EnableNTLB = !cfg.DisableMMUCaches
	rep, err := repcache.DoOps(mc, "scenario", s.ops)
	if err != nil {
		return Result{}, fmt.Errorf("agilepaging: scenario: %w", err)
	}
	return Result{
		Workload:         "scenario",
		Technique:        cfg.Technique,
		PageSize:         cfg.PageSize,
		WalkOverhead:     rep.WalkOverhead(),
		VMMOverhead:      rep.VMMOverhead(),
		TotalOverhead:    rep.TotalOverhead(),
		Accesses:         rep.Machine.Accesses,
		TLBMisses:        rep.Machine.TLBMisses,
		WalkRefs:         rep.Machine.WalkRefs,
		VMExits:          rep.VMM.TotalTraps(),
		GuestFaults:      rep.Machine.GuestPageFaults,
		AvgRefsPerMiss:   rep.AvgRefsPerMiss(),
		RefsP50:          rep.RefsP50,
		RefsP95:          rep.RefsP95,
		MPKI:             rep.MPKI(),
		SwitchesToNested: rep.Agile.SwitchesToNested,
		SwitchesToShadow: rep.Agile.SwitchesToShadow,
	}, nil
}
