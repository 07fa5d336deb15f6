package experiments

import (
	"context"

	"agilepaging/internal/core"
	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/vmm"
	"agilepaging/internal/walker"
)

// AblationRow reports one design-choice ablation.
type AblationRow struct {
	Name     string
	Workload string
	WalkOv   float64
	VMMOv    float64
	Traps    uint64
	Notes    string
}

// ablationKind selects how an ablation job is executed.
type ablationKind int

const (
	// ablationProfile runs a named synthetic workload profile.
	ablationProfile ablationKind = iota
	// ablationReadThenWrite runs the A/D-trap microbenchmark op stream.
	ablationReadThenWrite
	// ablationCtxSwitch runs the context-switch microbenchmark op stream.
	ablationCtxSwitch
)

// ablationSpec is the options payload of one ablation job.
type ablationSpec struct {
	kind  ablationKind
	opts  Options
	notes string
}

// Ablations quantifies the paper's individual design choices:
//
//   - the §IV hardware A/D optimization (trap-free dirty tracking)
//   - the §IV context-switch pointer cache
//   - the two nested⇒shadow revert policies of §III-C against no revert
//   - the MMU caches (PWC + nested TLB) the walk costs assume
func Ablations(accesses int, seed int64) ([]AblationRow, error) {
	return AblationsSweep(context.Background(), sweep.Config{}, accesses, seed)
}

// AblationsSweep is Ablations on an explicit sweep configuration. Rows come
// back in declaration order regardless of worker count.
func AblationsSweep(ctx context.Context, cfg sweep.Config, accesses int, seed int64) ([]AblationRow, error) {
	var jobs []sweep.Job[ablationSpec]
	add := func(name, wl string, kind ablationKind, o Options, notes string) {
		o.Accesses = accesses
		o.Seed = seed
		// Only profile-based ablations declare a dedup key; a µbench
		// cell's key covers its op list, which exists only once the job
		// builds it, and RunOps memoizes it under that key.
		var dedup string
		if kind == ablationProfile {
			dedup, _ = CellKey(wl, o)
		}
		jobs = append(jobs, sweep.Job[ablationSpec]{
			Key:      name,
			Workload: wl,
			Options:  ablationSpec{kind: kind, opts: o, notes: notes},
			DedupKey: dedup,
		})
	}

	// The §IV hardware A/D optimization: a read-then-write microbenchmark
	// maximizes dirty-tracking traps (every page is first shadowed clean,
	// then written).
	base := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	base.AgileStartNested = false
	add("agile baseline", "read-then-write µbench", ablationReadThenWrite, base, "dirty tracking via VM exits")
	hwad := base
	hwad.HardwareAD = true
	add("agile + hw A/D", "read-then-write µbench", ablationReadThenWrite, hwad, "§IV: A/D via extra walk, no trap")
	shadowBase := DefaultOptions(walker.ModeShadow, pagetable.Size4K)
	add("shadow baseline", "read-then-write µbench", ablationReadThenWrite, shadowBase, "for reference")
	shadowHW := shadowBase
	shadowHW.HardwareAD = true
	add("shadow + hw A/D", "read-then-write µbench", ablationReadThenWrite, shadowHW, "§IV opt applied to pure shadow")

	// Context-switch cache: a switch-heavy microbenchmark (the §IV target).
	ctxBase := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	ctxBase.AgileStartNested = false
	add("agile, no ctx cache", "ctx-switch µbench", ablationCtxSwitch, ctxBase, "every CR3 write exits")
	ctxCache := ctxBase
	ctxCache.CtxSwitchCache = 8
	add("agile + ctx cache(8)", "ctx-switch µbench", ablationCtxSwitch, ctxCache, "§IV: gptr=>sptr hardware cache")

	// Revert policies.
	for _, p := range []core.RevertPolicy{core.RevertNone, core.RevertReset, core.RevertDirtyScan} {
		o := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
		o.RevertPolicy = p
		add("agile revert="+p.String(), "memcached", ablationProfile, o, "§III-C nested=>shadow policy")
	}

	// MMU caches.
	noPWC := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	noPWC.DisablePWC = true
	noPWC.DisableNTLB = true
	add("agile, no PWC/NTLB", "graph500", ablationProfile, noPWC, "architectural walk costs")
	withPWC := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	add("agile, PWC+NTLB", "graph500", ablationProfile, withPWC, "")

	out := sweep.Execute(ctx, cfg, jobs, runAblation)
	rows, _ := partialOutcome(jobs, out)
	return rows, out.Err
}

// runAblation executes one ablation job.
func runAblation(_ context.Context, j sweep.Job[ablationSpec]) (AblationRow, error) {
	s := j.Options
	var rep cpu.Report
	var err error
	switch s.kind {
	case ablationProfile:
		rep, err = RunProfile(j.Workload, s.opts)
	case ablationReadThenWrite:
		rep, err = RunOps(j.Key, readThenWriteOps(512), s.opts)
	case ablationCtxSwitch:
		rep, err = RunOps(j.Key, ctxSwitchOps(2000), s.opts)
	}
	if err != nil {
		return AblationRow{}, err
	}
	traps := rep.VMM.TotalTraps()
	if s.kind == ablationCtxSwitch {
		traps = rep.VMM.Traps[vmm.TrapContextSwitch]
	}
	return AblationRow{
		Name: j.Key, Workload: j.Workload,
		WalkOv: rep.WalkOverhead(), VMMOv: rep.VMMOverhead(),
		Traps: traps, Notes: s.notes,
	}, nil
}

// trapCostReference exposes the cost model used by the ablations (for
// documentation output).
func trapCostReference() vmm.CostModel { return vmm.DefaultCostModel() }
