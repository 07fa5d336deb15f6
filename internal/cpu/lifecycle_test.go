package cpu

import (
	"errors"
	"reflect"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// runRecorded executes ops on m under a fresh telemetry recorder and returns
// the report plus the recorded epoch series.
func runRecorded(t testing.TB, m *Machine, ops []workload.Op, epochLen int) (Report, *telemetry.Series) {
	t.Helper()
	rec := telemetry.NewRecorder(epochLen)
	m.SetTelemetry(rec)
	if err := m.RunOps(ops, 0); err != nil {
		t.Fatal(err)
	}
	m.FlushTelemetry()
	return m.Report("lifecycle"), rec.Series()
}

// lifecycleProfiles stress every run-state container Reset must restore:
// flush-heavy multi-process switching (ASID churn, ctx-switch cache), mmap
// churn plus COW (unsynced-page state, shadow teardown), and threaded
// reclaim (per-core TLB state, clock reclaimer position).
var lifecycleProfiles = []workload.Profile{
	{
		Name: "zipf-hot", FootprintBytes: 4 << 20, Pattern: workload.PatternZipf,
		ZipfS: 1.2, WriteRatio: 0.3, PrePopulate: true,
	},
	{
		Name: "flush-heavy", FootprintBytes: 2 << 20, Pattern: workload.PatternUniform,
		WriteRatio: 0.5, Processes: 3, CtxSwitchEvery: 40,
	},
	{
		Name: "churn-cow", FootprintBytes: 2 << 20, Pattern: workload.PatternZipf,
		ZipfS: 1.1, WriteRatio: 0.4, MmapChurnEvery: 150, ChurnRegionBytes: 64 << 10,
		ChurnRegions: 3, CowEvery: 300, CowRegionBytes: 64 << 10,
	},
	{
		Name: "threaded", FootprintBytes: 2 << 20, Pattern: workload.PatternZipf,
		ZipfS: 1.0, WriteRatio: 0.2, Threads: 3, ReclaimEvery: 250, ReclaimPages: 16,
	},
	{
		Name: "thp-collapse", FootprintBytes: 4 << 20, Pattern: workload.PatternZipf,
		ZipfS: 1.1, WriteRatio: 0.3, CollapseEvery: 400, CowEvery: 550, CowRegionBytes: 64 << 10,
		ReclaimEvery: 700, ReclaimPages: 24,
	},
}

// checkResetEquivalence pins the Reset contract: a machine that already ran
// an arbitrary dirtying stream, once Reset, replays ops to a report and
// telemetry epoch series bit-identical to a freshly constructed machine's.
func checkResetEquivalence(t testing.TB, cfg Config, ops, dirty []workload.Op) {
	t.Helper()
	const epochLen = 97 // prime, so epoch edges land mid-burst
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantSeries := runRecorded(t, fresh, ops, epochLen)

	reused, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runRecorded(t, reused, dirty, 64)
	if err := reused.Reset(cfg); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	gotRep, gotSeries := runRecorded(t, reused, ops, epochLen)
	if wantRep != gotRep {
		t.Errorf("%v: post-Reset report differs from fresh machine\nfresh: %+v\nreset: %+v",
			cfg.Technique, wantRep, gotRep)
	}
	if !reflect.DeepEqual(wantSeries.Epochs, gotSeries.Epochs) {
		t.Errorf("%v: post-Reset telemetry epochs differ (fresh %d epochs, reset %d)",
			cfg.Technique, len(wantSeries.Epochs), len(gotSeries.Epochs))
	}

	// Reset is idempotent over the machine's lifetime: a second
	// reset-and-replay must reproduce the same run again.
	if err := reused.Reset(cfg); err != nil {
		t.Fatalf("second Reset: %v", err)
	}
	againRep, againSeries := runRecorded(t, reused, ops, epochLen)
	if wantRep != againRep {
		t.Errorf("%v: second post-Reset replay drifted\nfresh:  %+v\nsecond: %+v",
			cfg.Technique, wantRep, againRep)
	}
	if !reflect.DeepEqual(wantSeries.Epochs, againSeries.Epochs) {
		t.Errorf("%v: second post-Reset telemetry epochs drifted", cfg.Technique)
	}
}

// TestResetVsFreshEquivalence is the correctness pin of the
// construct-once/reset-many lifecycle: New→Run ≡ New→Run→Reset→Run,
// bit-identically, for every technique and for workloads that populate every
// piece of run state Reset tears down.
func TestResetVsFreshEquivalence(t *testing.T) {
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
		for _, prof := range lifecycleProfiles {
			prof := prof
			tech := tech
			t.Run(tech.String()+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				cfg := smallConfig(tech, pagetable.Size4K)
				cfg.PolicyTickOps = 500 // exercise policy switching mid-stream
				ops := workload.Collect(workload.New(prof, cfg.PageSize, 3000, 42), -1)
				// Dirty with a different stream than the one replayed, so
				// leftover state cannot hide by coincidence.
				dirtyProf := lifecycleProfiles[0]
				if prof.Name == dirtyProf.Name {
					dirtyProf = lifecycleProfiles[1]
				}
				dirty := workload.Collect(workload.New(dirtyProf, cfg.PageSize, 1500, 99), -1)
				checkResetEquivalence(t, cfg, ops, dirty)
			})
		}
	}
}

// TestResetVsFreshScriptedReplay drives the same property over a scripted
// scenario-style op list (explicit COW snapshots, reclaim, THP collapse,
// multi-process switching) rather than a generated stream — the op kinds a
// Scenario replay exercises.
func TestResetVsFreshScriptedReplay(t *testing.T) {
	base := uint64(0x4000_0000)
	other := uint64(0x7f00_0000_0000)
	dirty := append(setupOps(base, 32<<12, pagetable.Size4K), workload.Op{Kind: workload.OpAccess, PID: 0, VA: base})
	for _, tech := range []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile} {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			t.Parallel()
			checkResetEquivalence(t, smallConfig(tech, pagetable.Size4K), scriptedReplayOps(base, other), dirty)
		})
	}
}

// scriptedReplayOps builds a deterministic scenario-style op list exercising
// explicit COW snapshots, reclaim, THP collapse, and multi-process switching.
func scriptedReplayOps(base, other uint64) []workload.Op {
	script := []workload.Op{
		{Kind: workload.OpCreateProcess, PID: 0},
		{Kind: workload.OpMmap, PID: 0, VA: base, Len: 512 << 12, Size: pagetable.Size4K},
		{Kind: workload.OpPopulate, PID: 0, VA: base},
		{Kind: workload.OpCreateProcess, PID: 1},
		{Kind: workload.OpMmap, PID: 1, VA: other, Len: 64 << 12, Size: pagetable.Size4K},
		{Kind: workload.OpCtxSwitch, PID: 0},
	}
	for i := uint64(0); i < 64; i++ {
		script = append(script, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + i<<12, Write: i%3 == 0})
	}
	script = append(script,
		workload.Op{Kind: workload.OpMarkCOW, PID: 0, VA: base},
		workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 5<<12, Write: true}, // COW break
		workload.Op{Kind: workload.OpCtxSwitch, PID: 1},
		workload.Op{Kind: workload.OpAccess, PID: 1, VA: other + 0x40, Write: true},
		workload.Op{Kind: workload.OpCtxSwitch, PID: 0},
		workload.Op{Kind: workload.OpCollapse, PID: 0, VA: base &^ (uint64(1)<<21 - 1)},
		workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 9<<12},
		workload.Op{Kind: workload.OpReclaim, PID: 0, N: 32},
		workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + 17<<12, Write: true},
		workload.Op{Kind: workload.OpMunmap, PID: 1, VA: other},
	)
	return script
}

// FuzzResetVsFreshEquivalence drives the Reset contract over fuzzer-chosen
// profile knobs, seeds, techniques and page sizes.
func FuzzResetVsFreshEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(800), uint8(3), uint8(30), uint8(1), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), false)
	f.Add(int64(7), uint16(1200), uint8(1), uint8(60), uint8(3), uint16(50), uint16(200), uint16(0), uint16(0), uint16(0), false)
	f.Add(int64(99), uint16(600), uint8(2), uint8(10), uint8(2), uint16(25), uint16(150), uint16(0), uint16(0), uint16(0), false)
	f.Add(int64(13), uint16(900), uint8(3), uint8(40), uint8(2), uint16(40), uint16(0), uint16(300), uint16(0), uint16(0), false)
	f.Add(int64(21), uint16(1000), uint8(2), uint8(50), uint8(2), uint16(60), uint16(0), uint16(0), uint16(120), uint16(90), false)
	f.Add(int64(42), uint16(1100), uint8(3), uint8(40), uint8(1), uint16(0), uint16(0), uint16(0), uint16(100), uint16(80), true)
	f.Fuzz(func(t *testing.T, seed int64, accesses uint16, techSel, writePct, procs uint8, ctxEvery, churnEvery, collapseEvery, cowEvery, reclaimEvery uint16, largePages bool) {
		techs := []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile}
		tech := techs[int(techSel)%len(techs)]
		prof := workload.Profile{
			Name:           "fuzz",
			FootprintBytes: 2 << 20,
			Pattern:        workload.PatternZipf,
			ZipfS:          1.1,
			WriteRatio:     float64(writePct%101) / 100,
			Processes:      1 + int(procs%4),
			CtxSwitchEvery: int(ctxEvery % 512),
			MmapChurnEvery: int(churnEvery % 1024),
			CollapseEvery:  int(collapseEvery % 1024),
			CowEvery:       int(cowEvery % 1024),
			ReclaimEvery:   int(reclaimEvery % 1024),
		}
		if prof.MmapChurnEvery > 0 {
			prof.ChurnRegionBytes, prof.ChurnRegions = 32<<10, 2
		}
		if prof.CowEvery > 0 {
			prof.CowRegionBytes = 32 << 10
		}
		if prof.ReclaimEvery > 0 {
			prof.ReclaimPages = 16
		}
		if prof.Processes > 1 && prof.CtxSwitchEvery == 0 {
			prof.CtxSwitchEvery = 64
		}
		ps := pagetable.Size4K
		if largePages {
			ps = pagetable.Size2M
			// The VM recycles only 4K guest pages, so every 2M page a COW
			// break, a reclaim eviction or an unmap gives up stays
			// allocated; at most one such event per 64 accesses keeps the
			// run inside the 128 MiB guest.
			for _, every := range []*int{&prof.CowEvery, &prof.ReclaimEvery, &prof.MmapChurnEvery} {
				if *every > 0 {
					*every = max(*every, 64)
				}
			}
		}
		cfg := smallConfig(tech, ps)
		cfg.PolicyTickOps = 400
		n := 200 + int(accesses%1200)
		ops := workload.Collect(workload.New(prof, cfg.PageSize, n, seed), -1)
		dirty := workload.Collect(workload.New(prof, cfg.PageSize, n/2+1, seed+1), -1)
		checkResetEquivalence(t, cfg, ops, dirty)
	})
}

// TestResetRejectsGeometryChange pins the Reset/New boundary: any field that
// sizes an immutable structure forces a rebuild.
func TestResetRejectsGeometryChange(t *testing.T) {
	cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
	m := newMachine(t, cfg)
	mutations := map[string]func(*Config){
		"technique":    func(c *Config) { c.Technique = walker.ModeNested },
		"pagesize":     func(c *Config) { c.PageSize = pagetable.Size2M },
		"membytes":     func(c *Config) { c.MemBytes *= 2 },
		"guestram":     func(c *Config) { c.GuestRAMBytes *= 2 },
		"tlb-shape":    func(c *Config) { c.TLB.L1D4K.Entries *= 2 },
		"tlb-scale":    func(c *Config) { c.TLBScale *= 2 },
		"pwc-toggle":   func(c *Config) { c.EnablePWC = !c.EnablePWC },
		"ntlb-entries": func(c *Config) { c.NTLBEntries = 64 },
		"cores":        func(c *Config) { c.Cores += 2 },
	}
	for name, mutate := range mutations {
		changed := cfg
		mutate(&changed)
		if err := m.Reset(changed); !errors.Is(err, ErrGeometryChange) {
			t.Errorf("%s: Reset = %v, want ErrGeometryChange", name, err)
		}
	}
	// A rejected Reset leaves the machine untouched and usable.
	base := uint64(0x4000_0000)
	mustRun(t, m, append(setupOps(base, 4<<12, pagetable.Size4K),
		workload.Op{Kind: workload.OpAccess, PID: 0, VA: base}))
	if m.Stats().Accesses != 1 {
		t.Errorf("machine unusable after rejected Reset: %+v", m.Stats())
	}
}

// TestResetAdoptsRunParameters checks Reset takes over every non-geometry
// knob — the sensitivity sweeps revisit one geometry with different cost
// models and policies, so pooled machines must honor the new values.
func TestResetAdoptsRunParameters(t *testing.T) {
	cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
	m := newMachine(t, cfg)
	changed := cfg
	changed.AccessCycles = cfg.AccessCycles + 3
	changed.MemRefCycles = cfg.MemRefCycles + 10
	changed.HardwareAD = !cfg.HardwareAD
	changed.PolicyTickOps = 0 // must normalize to the documented default
	if err := m.Reset(changed); err != nil {
		t.Fatalf("Reset with run-parameter changes: %v", err)
	}
	got := m.Config()
	if got.AccessCycles != changed.AccessCycles || got.MemRefCycles != changed.MemRefCycles || got.HardwareAD != changed.HardwareAD {
		t.Errorf("Config() after Reset = %+v, want adopted run parameters", got)
	}
	if got.PolicyTickOps != 20_000 {
		t.Errorf("PolicyTickOps not normalized on Reset: %d", got.PolicyTickOps)
	}
}

// TestConfigNormalizationRoundTrip pins the satellite fix: New stores the
// normalized config, so Machine.Config() round-trips through New and Reset
// with every default materialized.
func TestConfigNormalizationRoundTrip(t *testing.T) {
	cfg := smallConfig(walker.ModeNested, pagetable.Size4K)
	cfg.NTLBEntries = 0
	cfg.PolicyTickOps = 0
	cfg.Cores = 0
	m := newMachine(t, cfg)
	got := m.Config()
	if got.NTLBEntries != 32 || got.PolicyTickOps != 20_000 || got.Cores != 1 {
		t.Errorf("Config() defaults not materialized: NTLBEntries=%d PolicyTickOps=%d Cores=%d",
			got.NTLBEntries, got.PolicyTickOps, got.Cores)
	}
	// Round-trip: rebuilding from the returned config is a no-op change.
	m2 := newMachine(t, got)
	if m2.Config() != got {
		t.Errorf("Config() does not round-trip:\nfirst:  %+v\nsecond: %+v", got, m2.Config())
	}
	if got.Geometry() != cfg.Geometry() {
		t.Error("normalization changed the geometry key")
	}
}

// TestMachinePool exercises the acquire/release/stats lifecycle of the
// geometry-keyed pool.
func TestMachinePool(t *testing.T) {
	ResetMachinePool()
	t.Cleanup(func() {
		ResetMachinePool()
		SetMachinePoolCapacity(DefaultMachinePoolCapacity)
	})
	cfg := smallConfig(walker.ModeNested, pagetable.Size4K)

	m1, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _, idle := MachinePoolStats(); hits != 0 || misses != 1 || idle != 0 {
		t.Fatalf("after first acquire: hits=%d misses=%d idle=%d", hits, misses, idle)
	}

	// Dirty the machine, release it, and reacquire: same object, reset state.
	base := uint64(0x4000_0000)
	mustRun(t, m1, append(setupOps(base, 8<<12, pagetable.Size4K),
		workload.Op{Kind: workload.OpAccess, PID: 0, VA: base}))
	ReleaseMachine(m1)
	if _, _, _, idle := MachinePoolStats(); idle != 1 {
		t.Fatalf("idle after release = %d, want 1", idle)
	}
	m2, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Error("matching-geometry acquire did not reuse the pooled machine")
	}
	if m2.Stats() != (Stats{}) {
		t.Errorf("pooled machine not reset: %+v", m2.Stats())
	}
	if hits, misses, _, _ := MachinePoolStats(); hits != 1 || misses != 1 {
		t.Errorf("after reacquire: hits=%d misses=%d", hits, misses)
	}

	// A different geometry misses even with an idle machine pooled.
	ReleaseMachine(m2)
	other := cfg
	other.PageSize = pagetable.Size2M
	m3, err := AcquireMachine(other)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("acquire with different geometry returned the pooled machine")
	}
	if hits, misses, _, idle := MachinePoolStats(); hits != 1 || misses != 2 || idle != 1 {
		t.Errorf("after cross-geometry acquire: hits=%d misses=%d idle=%d", hits, misses, idle)
	}

	// Capacity 0 disables pooling: idle machines are evicted and further
	// releases are retired.
	SetMachinePoolCapacity(0)
	if _, _, _, idle := MachinePoolStats(); idle != 0 {
		t.Errorf("idle after disabling pool = %d, want 0", idle)
	}
	ReleaseMachine(m3)
	if _, _, retired, idle := MachinePoolStats(); retired != 1 || idle != 0 {
		t.Errorf("release into disabled pool: retired=%d idle=%d", retired, idle)
	}
	ReleaseMachine(nil) // no-op
}

// TestPooledRunEquivalence pins the end-to-end pool contract: a run on a
// reacquired machine reports bit-identically to a run on a fresh one.
func TestPooledRunEquivalence(t *testing.T) {
	ResetMachinePool()
	t.Cleanup(func() {
		ResetMachinePool()
		SetMachinePoolCapacity(DefaultMachinePoolCapacity)
	})
	cfg := smallConfig(walker.ModeAgile, pagetable.Size4K)
	ops := workload.Collect(workload.New(lifecycleProfiles[1], cfg.PageSize, 2000, 7), -1)

	fresh := newMachine(t, cfg)
	want, _ := runRecorded(t, fresh, ops, 97)

	m1, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runRecorded(t, m1, ops, 97)
	ReleaseMachine(m1)
	m2, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("expected pooled reuse")
	}
	got, _ := runRecorded(t, m2, ops, 97)
	if want != got {
		t.Errorf("pooled rerun differs from fresh machine\nfresh:  %+v\npooled: %+v", want, got)
	}
}
