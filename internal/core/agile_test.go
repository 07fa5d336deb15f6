package core

import (
	"testing"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/vmm"
	"agilepaging/internal/walker"
)

type fixture struct {
	t   *testing.T
	mem *memsim.Memory
	vm  *vmm.VM
	ctx *vmm.Context
	mgr *Manager
	w   *walker.Walker
}

func newFixture(t *testing.T, cfg PolicyConfig) *fixture {
	t.Helper()
	mem := memsim.New(512 << 20)
	vmCfg := vmm.DefaultConfig(walker.ModeAgile)
	vmCfg.RAMBytes = 64 << 20
	vm, err := vmm.New(mem, vmm.NopMMU{}, 1, vmCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := vm.NewProcess(9)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, mem: mem, vm: vm, ctx: ctx, mgr: mgr, w: walker.New(mem, nil, nil)}
}

// mapPage maps a fresh guest page at gva and returns its gpa.
func (f *fixture) mapPage(gva uint64) uint64 {
	f.t.Helper()
	gpa, err := f.vm.AllocGPA(pagetable.Size4K)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := f.ctx.GPT().Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite|pagetable.FlagUser); err != nil {
		f.t.Fatal(err)
	}
	return gpa
}

// access simulates one memory access: walk, service faults, walk again.
func (f *fixture) access(gva uint64, write bool) walker.Result {
	f.t.Helper()
	for i := 0; i < 8; i++ {
		var r walker.Result
		fault := f.w.Walk(f.ctx.Regs(), gva, write, &r)
		if fault == nil {
			if write && !r.Flags.Writable() {
				resolved, err := f.ctx.HandleWriteProtect(gva)
				if err != nil {
					f.t.Fatal(err)
				}
				if !resolved {
					f.t.Fatalf("unexpected guest protection fault at %#x", gva)
				}
				continue
			}
			return r
		}
		switch fault.Kind {
		case walker.FaultNotPresent:
			out, err := f.ctx.HandleShadowFault(gva, write)
			if err != nil {
				f.t.Fatal(err)
			}
			if out != vmm.OutcomeRetry {
				f.t.Fatalf("guest fault for mapped page %#x", gva)
			}
		default:
			f.t.Fatalf("unexpected fault %v", fault)
		}
	}
	f.t.Fatalf("access to %#x did not converge", gva)
	return walker.Result{}
}

func TestManagerRequiresShadowTable(t *testing.T) {
	mem := memsim.New(64 << 20)
	vm, err := vmm.New(mem, vmm.NopMMU{}, 1, vmm.DefaultConfig(walker.ModeNested))
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := vm.NewProcess(1)
	if _, err := NewManager(ctx, DefaultPolicy()); err == nil {
		t.Fatal("manager attached to nested-only context")
	}
}

func TestWriteThresholdSwitchesLeafNodeToNested(t *testing.T) {
	f := newFixture(t, DefaultPolicy())
	gva := uint64(0x7f00_0000_0000)
	f.mapPage(gva)
	r := f.access(gva, false)
	if r.Refs != 4 || r.NestedLevels != 0 {
		t.Fatalf("initial access should be full shadow: %+v", r)
	}
	// The guest OS churns PTEs in the same leaf table: two intercepted
	// writes cross the threshold.
	f.mapPage(gva + 0x1000) // write 1 to the leaf table page
	f.mapPage(gva + 0x2000) // write 2 — node switches to nested
	if f.mgr.NestedNodes() == 0 {
		t.Fatal("no node switched to nested after threshold writes")
	}
	r = f.access(gva, false)
	if r.Refs != 8 || r.NestedLevels != 1 {
		t.Errorf("post-switch walk refs=%d nested=%d, want 8/1 (leaf nested)", r.Refs, r.NestedLevels)
	}
	// Further PT churn in that leaf table is now trap-free.
	before := f.vm.Stats().Traps[vmm.TrapPTWrite]
	f.mapPage(gva + 0x3000)
	if got := f.vm.Stats().Traps[vmm.TrapPTWrite] - before; got != 0 {
		t.Errorf("nested-node PT writes trapped %d times", got)
	}
	if f.mgr.Stats().SwitchesToNested == 0 {
		t.Error("switch not counted")
	}
}

func TestInteriorEntryChurnSwitchesChildSubtree(t *testing.T) {
	f := newFixture(t, DefaultPolicy())
	base := uint64(0x7f00_0000_0000)
	// Two leaf tables under one L2 node; only one of them sits under a
	// churning interior entry.
	f.mapPage(base)
	f.mapPage(base + (1 << 21)) // second leaf table, different L2 entry
	f.access(base, false)       // shadow-covers and protects the path
	f.access(base+(1<<21), false)
	leaf, err := f.ctx.GPT().EntryAt(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The guest OS rewrites the same interior (L2) entry twice — e.g.
	// tearing down and reinstalling a leaf table. Entry-granular counting
	// converts the child subtree under that entry, not the whole L2 span.
	if err := f.ctx.GPT().SetEntryAt(base, 2, leaf); err != nil {
		t.Fatal(err)
	}
	if err := f.ctx.GPT().SetEntryAt(base, 2, leaf); err != nil {
		t.Fatal(err)
	}
	if !f.mgr.NodeNested(9, leaf.Addr()) {
		t.Fatal("child leaf table not switched to nested")
	}
	// The churned entry's child (the leaf table) runs nested: 3 sPT refs +
	// 1 nested leaf level = 8 refs...
	r := f.access(base, false)
	if r.Refs != 8 || r.NestedLevels != 1 {
		t.Errorf("refs=%d nested=%d, want 8/1", r.Refs, r.NestedLevels)
	}
	// ...while the sibling under the same L2 page stays full shadow.
	r = f.access(base+(1<<21), false)
	if r.Refs != 4 || r.NestedLevels != 0 {
		t.Errorf("sibling refs=%d nested=%d, want 4/0", r.Refs, r.NestedLevels)
	}
	for _, p := range f.ctx.AppendSubtreePages(nil, leaf.Addr()) {
		if f.ctx.IsProtected(p) {
			t.Errorf("nested subtree page %#x still protected", p)
		}
	}
}

func TestRevertResetPolicy(t *testing.T) {
	cfg := DefaultPolicy()
	cfg.Revert = RevertReset
	cfg.IntervalCycles = 1000
	f := newFixture(t, cfg)
	gva := uint64(0x7f00_0000_0000)
	f.mapPage(gva)
	f.access(gva, false)
	f.mapPage(gva + 0x1000)
	f.mapPage(gva + 0x2000)
	if f.mgr.NestedNodes() == 0 {
		t.Fatal("setup: no nested nodes")
	}
	f.mgr.Tick(5000, 0)
	if f.mgr.NestedNodes() != 0 {
		t.Errorf("reset left %d nested nodes", f.mgr.NestedNodes())
	}
	if f.mgr.Stats().IntervalResets != 1 || f.mgr.Stats().SwitchesToShadow == 0 {
		t.Errorf("stats = %+v", f.mgr.Stats())
	}
	// After refill, walks are full shadow again.
	r := f.access(gva, false)
	if r.Refs != 4 || r.NestedLevels != 0 {
		t.Errorf("post-reset walk refs=%d nested=%d, want 4/0", r.Refs, r.NestedLevels)
	}
}

func TestRevertDirtyScanKeepsHotPartsNested(t *testing.T) {
	cfg := DefaultPolicy()
	cfg.Revert = RevertDirtyScan
	cfg.IntervalCycles = 1000
	f := newFixture(t, cfg)
	hot := uint64(0x7f00_0000_0000)
	cold := uint64(0x0000_1000_0000)
	f.mapPage(hot)
	f.mapPage(cold)
	f.access(hot, false)
	f.access(cold, false)
	// Push both leaf nodes to nested.
	f.mapPage(hot + 0x1000)
	f.mapPage(hot + 0x2000)
	f.mapPage(cold + 0x1000)
	f.mapPage(cold + 0x2000)
	hotNode, _ := f.ctx.GPT().EntryAt(hot, 2)
	coldNode, _ := f.ctx.GPT().EntryAt(cold, 2)
	if !f.mgr.NodeNested(9, hotNode.Addr()) || !f.mgr.NodeNested(9, coldNode.Addr()) {
		t.Fatal("setup: nodes not nested")
	}
	// First scan clears dirty bits (both were just written).
	f.mgr.Tick(2000, 0)
	if !f.mgr.NodeNested(9, hotNode.Addr()) || !f.mgr.NodeNested(9, coldNode.Addr()) {
		t.Fatal("first scan should keep recently-written nodes nested")
	}
	// Keep the hot node changing; leave the cold node quiet.
	f.mapPage(hot + 0x3000)
	f.mgr.Tick(4000, 0)
	if !f.mgr.NodeNested(9, hotNode.Addr()) {
		t.Error("hot node reverted despite activity")
	}
	if f.mgr.NodeNested(9, coldNode.Addr()) {
		t.Error("cold node stayed nested despite quiescence")
	}
	if f.mgr.Stats().DirtyScans != 2 {
		t.Errorf("dirty scans = %d", f.mgr.Stats().DirtyScans)
	}
	// Cold region back to full shadow; hot still switches at the leaf.
	if r := f.access(cold, false); r.Refs != 4 {
		t.Errorf("cold refs = %d, want 4", r.Refs)
	}
	if r := f.access(hot, false); r.Refs != 8 {
		t.Errorf("hot refs = %d, want 8", r.Refs)
	}
}

func TestShortLivedPolicyStartsNested(t *testing.T) {
	cfg := DefaultPolicy()
	cfg.StartNested = true
	cfg.StartDelayCycles = 10_000
	cfg.MissOverheadThreshold = 0.05
	f := newFixture(t, cfg)
	gva := uint64(0x1000)
	f.mapPage(gva)
	if !f.ctx.FullNested() || f.mgr.Started() {
		t.Fatal("process should start fully nested")
	}
	r := f.access(gva, false)
	if r.Refs != 24 {
		t.Fatalf("fully nested walk refs = %d, want 24", r.Refs)
	}
	// Low overhead: stays nested.
	f.mgr.Tick(20_000, 0.01)
	if f.mgr.Started() {
		t.Fatal("agile enabled despite low TLB overhead")
	}
	// High overhead after the delay: agile turns on.
	f.mgr.Tick(30_000, 0.10)
	if !f.mgr.Started() || f.ctx.FullNested() {
		t.Fatal("agile not enabled despite high TLB overhead")
	}
	if f.mgr.Stats().AgileEnabled != 1 {
		t.Errorf("AgileEnabled = %d", f.mgr.Stats().AgileEnabled)
	}
	r = f.access(gva, false)
	if r.Refs != 4 {
		t.Errorf("post-enable walk refs = %d, want 4 (shadow)", r.Refs)
	}
}

func TestRootEntryChurnSwitchesTopSubtree(t *testing.T) {
	f := newFixture(t, DefaultPolicy())
	gva := uint64(0x1000)
	f.mapPage(gva)
	f.access(gva, false) // root becomes protected
	// The same root entry is rewritten twice: the L1 subtree under it goes
	// nested (the walk switches at the first level below the root: 1 sPT
	// ref + 3 nested levels = 16 refs). The root itself stays shadow —
	// upper levels only fully nest via the short-lived-process policy.
	rootEntry, err := f.ctx.GPT().EntryAt(gva, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ctx.GPT().SetEntryAt(gva, 0, rootEntry); err != nil {
		t.Fatal(err)
	}
	if err := f.ctx.GPT().SetEntryAt(gva, 0, rootEntry); err != nil {
		t.Fatal(err)
	}
	if !f.mgr.NodeNested(9, rootEntry.Addr()) {
		t.Fatal("L1 subtree not switched after root-entry churn")
	}
	if f.ctx.RootSwitch() {
		t.Fatal("root itself must stay in shadow mode")
	}
	r := f.access(gva, false)
	if r.Refs != 16 || r.NestedLevels != 3 {
		t.Errorf("refs=%d nested=%d, want 16/3", r.Refs, r.NestedLevels)
	}
	// Dirty-scan eventually reverts the subtree when quiet: the first tick
	// clears dirty bits, the second converts parents, later ones children.
	for i := uint64(1); i <= 6; i++ {
		f.mgr.Tick(i*(f.mgr.cfg.IntervalCycles+1), 0)
	}
	if f.mgr.NodeNested(9, rootEntry.Addr()) {
		t.Error("subtree not reverted by dirty scan")
	}
	r = f.access(gva, false)
	if r.Refs != 4 || r.NestedLevels != 0 {
		t.Errorf("post-revert refs=%d nested=%d, want 4/0", r.Refs, r.NestedLevels)
	}
}

func TestWriteCountsResetEachInterval(t *testing.T) {
	cfg := DefaultPolicy()
	cfg.IntervalCycles = 1000
	f := newFixture(t, cfg)
	gva := uint64(0x7f00_0000_0000)
	f.mapPage(gva)
	f.access(gva, false)
	f.mapPage(gva + 0x1000) // one write this interval
	f.mgr.Tick(2000, 0)     // interval rolls: count forgotten
	f.mapPage(gva + 0x2000) // one write next interval: below threshold
	if f.mgr.NestedNodes() != 0 {
		t.Error("node switched despite writes being in different intervals")
	}
}

func TestRevertPolicyStrings(t *testing.T) {
	for p, want := range map[RevertPolicy]string{RevertNone: "none", RevertReset: "reset", RevertDirtyScan: "dirty-scan"} {
		if p.String() != want {
			t.Errorf("%d.String() = %s", int(p), p.String())
		}
	}
}

func newSHSPFixture(t *testing.T, cfg SHSPConfig) (*fixture, *SHSP) {
	t.Helper()
	mem := memsim.New(512 << 20)
	vmCfg := vmm.DefaultConfig(walker.ModeAgile)
	vmCfg.RAMBytes = 64 << 20
	vm, err := vmm.New(mem, vmm.NopMMU{}, 1, vmCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := vm.NewProcess(9)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewSHSP(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, mem: mem, vm: vm, ctx: ctx, w: walker.New(mem, nil, nil)}
	return f, ctl
}

func TestSHSPRequiresShadowTable(t *testing.T) {
	mem := memsim.New(64 << 20)
	vm, err := vmm.New(mem, vmm.NopMMU{}, 1, vmm.DefaultConfig(walker.ModeNested))
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := vm.NewProcess(1)
	if _, err := NewSHSP(ctx, DefaultSHSP()); err == nil {
		t.Fatal("SHSP attached to nested-only context")
	}
}

func TestSHSPStartsNestedAndSwitchesWhole(t *testing.T) {
	cfg := DefaultSHSP()
	cfg.IntervalCycles = 1000
	f, ctl := newSHSPFixture(t, cfg)
	gva := uint64(0x7f00_0000_0000)
	f.mapPage(gva)
	if ctl.InShadow() {
		t.Fatal("SHSP should start nested")
	}
	r := f.access(gva, false)
	if r.Refs != 24 {
		t.Fatalf("nested-mode walk refs = %d, want 24", r.Refs)
	}
	// High TLB-miss overhead: switch the whole process to shadow.
	for i := uint64(1); i <= 3; i++ { // needs 3 observation intervals
		ctl.Tick(i*10_000, 0.50, 0, 0)
	}
	if !ctl.InShadow() {
		t.Fatal("SHSP did not switch to shadow under miss pressure")
	}
	if ctl.Stats().ToShadow != 1 || ctl.Stats().Rebuilds != 1 {
		t.Errorf("stats = %+v", ctl.Stats())
	}
	r = f.access(gva, false)
	if r.Refs != 4 {
		t.Fatalf("shadow-mode walk refs = %d, want 4", r.Refs)
	}
	// Shadow observed far worse than nested's remembered cost: the whole
	// process moves back to nested.
	ctl.Tick(40_000, 0, 2.00, 0)
	if ctl.InShadow() {
		t.Fatal("SHSP did not switch to nested under trap pressure")
	}
	r = f.access(gva, false)
	if r.Refs != 24 {
		t.Fatalf("post-switch walk refs = %d, want 24", r.Refs)
	}
	if ctl.Stats().ToNested != 1 {
		t.Errorf("stats = %+v", ctl.Stats())
	}
	// Hysteresis: with shadow remembered as expensive, moderate nested
	// overhead does not flip back (no oscillation).
	ctl.Tick(50_000, 0.50, 0, 0)
	if ctl.InShadow() {
		t.Fatal("SHSP oscillated back to shadow despite remembered cost")
	}
}

func TestSHSPRebuildDropsShadowState(t *testing.T) {
	cfg := DefaultSHSP()
	cfg.IntervalCycles = 1000
	f, ctl := newSHSPFixture(t, cfg)
	gva := uint64(0x1000)
	f.mapPage(gva)
	for i := uint64(1); i <= 3; i++ {
		ctl.Tick(i*10_000, 0.50, 0, 0) // to shadow after 3 samples
	}
	f.access(gva, false) // fills shadow state
	if _, err := f.ctx.SPT().Lookup(gva); err != nil {
		t.Fatal("shadow state missing after fill")
	}
	fillsBefore := f.vm.Stats().Traps[vmm.TrapShadowFill]
	ctl.Tick(40_000, 0, 2.00, 0) // to nested (shadow observed expensive)
	ctl.Tick(50_000, 5.00, 0, 0) // nested now far worse: back to shadow, full rebuild
	if _, err := f.ctx.SPT().Lookup(gva); err == nil {
		t.Fatal("shadow state survived rebuild")
	}
	f.access(gva, false) // must re-fill: the rebuild cost
	if got := f.vm.Stats().Traps[vmm.TrapShadowFill] - fillsBefore; got == 0 {
		t.Error("rebuild did not charge refill exits")
	}
	if ctl.Stats().Rebuilds != 2 {
		t.Errorf("rebuilds = %d", ctl.Stats().Rebuilds)
	}
}

func TestSHSPHonorsInterval(t *testing.T) {
	cfg := DefaultSHSP()
	cfg.IntervalCycles = 1_000_000
	_, ctl := newSHSPFixture(t, cfg)
	ctl.Tick(500, 0.99, 0, 0) // interval not elapsed
	ctl.Tick(600, 0.99, 0, 0)
	ctl.Tick(700, 0.99, 0, 0)
	if ctl.InShadow() {
		t.Fatal("SHSP switched before its interval elapsed")
	}
	for i := uint64(1); i <= 3; i++ {
		ctl.Tick(i*1_000_001, 0.99, 0, 0)
	}
	if !ctl.InShadow() {
		t.Fatal("SHSP did not switch after interval")
	}
}

func TestAgile2MGuestPagesSwitch(t *testing.T) {
	f := newFixture(t, DefaultPolicy())
	gva := uint64(0x4000_0000) // 2M-aligned
	mapBig := func() {
		f.t.Helper()
		gpa, err := f.vm.AllocGPA(pagetable.Size2M)
		if err != nil {
			f.t.Fatal(err)
		}
		if err := f.ctx.GPT().Map(gva, gpa, pagetable.Size2M, pagetable.FlagWrite|pagetable.FlagDirty|pagetable.FlagAccessed); err != nil {
			f.t.Fatal(err)
		}
	}
	mapBig()
	r := f.access(gva, false)
	if r.NestedLevels != 0 {
		t.Fatalf("initial 2M access not shadow: %+v", r)
	}
	// The guest OS remaps the 2M page twice (huge-page churn): the L2
	// table page holding the huge entries goes nested.
	if err := f.ctx.GPT().Unmap(gva, pagetable.Size2M); err != nil {
		t.Fatal(err)
	}
	mapBig()
	r = f.access(gva, false)
	if r.NestedLevels == 0 {
		t.Fatalf("L2 page with churning 2M entries stayed shadow: %+v", r)
	}
	// Further 2M remaps are now direct.
	before := f.vm.Stats().Traps[vmm.TrapPTWrite]
	if err := f.ctx.GPT().Unmap(gva, pagetable.Size2M); err != nil {
		t.Fatal(err)
	}
	mapBig()
	if got := f.vm.Stats().Traps[vmm.TrapPTWrite] - before; got != 0 {
		t.Errorf("nested 2M churn trapped %d times", got)
	}
}
