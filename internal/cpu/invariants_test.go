package cpu

import (
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// FuzzConfigInvariants runs short op scripts on machines across the
// configuration space the equivalence fuzzers leave at its defaults: page
// size (4K/2M/1G), TLB scale, MMU caches on or off, core count, the §IV
// hardware A/D bit and context-switch cache, and the SHSP baseline. Every
// access must converge, and the report must satisfy the invariants the
// benchmark checks on every cell: the TLB's lookups split exactly into
// hits and misses, the machine counts the TLB's misses, and native
// execution never enters the VMM.
func FuzzConfigInvariants(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(3), uint8(0), uint8(8), true, true, uint8(1), false, uint8(0), false, uint8(30), uint8(1), uint16(0))
	f.Add(int64(7), uint16(900), uint8(3), uint8(2), uint8(20), true, false, uint8(2), true, uint8(4), true, uint8(60), uint8(0), uint16(0))
	f.Add(int64(99), uint16(400), uint8(2), uint8(1), uint8(1), false, true, uint8(4), false, uint8(8), false, uint8(10), uint8(3), uint16(200))
	f.Add(int64(13), uint16(1100), uint8(0), uint8(2), uint8(64), false, false, uint8(3), true, uint8(2), false, uint8(50), uint8(2), uint16(100))
	f.Add(int64(21), uint16(700), uint8(1), uint8(0), uint8(32), true, true, uint8(2), true, uint8(1), true, uint8(40), uint8(2), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, accesses uint16, techSel, sizeSel, tlbScale uint8, pwc, ntlb bool,
		cores uint8, hwAD bool, ctxCache uint8, shsp bool, writePct, procs uint8, churnEvery uint16) {
		techs := []walker.Mode{walker.ModeNative, walker.ModeNested, walker.ModeShadow, walker.ModeAgile}
		sizes := []pagetable.Size{pagetable.Size4K, pagetable.Size2M, pagetable.Size1G}
		cfg := DefaultConfig(techs[int(techSel)%len(techs)], sizes[int(sizeSel)%len(sizes)])
		cfg.TLBScale = 1 + int(tlbScale%64)
		cfg.EnablePWC = pwc
		cfg.EnableNTLB = ntlb
		cfg.Cores = 1 + int(cores%4)
		cfg.HardwareAD = hwAD
		cfg.CtxSwitchCache = int(ctxCache % 9)
		cfg.UseSHSP = shsp && cfg.Technique == walker.ModeAgile
		cfg.PolicyTickOps = 400

		prof := workload.Profile{
			Name:           "fuzz",
			FootprintBytes: 2 << 20,
			Pattern:        workload.PatternZipf,
			ZipfS:          1.1,
			WriteRatio:     float64(writePct%101) / 100,
			Processes:      1 + int(procs%3),
			Threads:        cfg.Cores,
			CtxSwitchEvery: 64,
			MmapChurnEvery: int(churnEvery % 1024),
		}
		if cfg.PageSize == pagetable.Size1G {
			// Every process and churn region takes a whole 1G page: more
			// than one of them would exhaust the 4G guest, a limit of
			// the script rather than of the simulator.
			prof.Processes, prof.MmapChurnEvery = 1, 0
		}
		if prof.MmapChurnEvery > 0 {
			prof.ChurnRegionBytes, prof.ChurnRegions = 32<<10, 2
		}
		ops := workload.Collect(workload.New(prof, cfg.PageSize, 200+int(accesses%1200), seed), -1)

		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RunOps(ops, 0); err != nil {
			t.Fatalf("%+v: %v", cfg.Geometry(), err)
		}
		rep := m.Report("fuzz")
		tl := rep.TLB
		if tl.Lookups != tl.L1Hits+tl.L2Hits+tl.Misses {
			t.Errorf("%s: TLB lookups %d != hits %d+%d + misses %d", rep, tl.Lookups, tl.L1Hits, tl.L2Hits, tl.Misses)
		}
		if rep.Machine.TLBMisses != tl.Misses {
			t.Errorf("%s: machine TLB misses %d != TLB misses %d", rep, rep.Machine.TLBMisses, tl.Misses)
		}
		if cfg.Technique == walker.ModeNative && (rep.VMMCycles != 0 || rep.VMM.TotalTraps() != 0) {
			t.Errorf("%s: native run reports VMM cycles %d, traps %d", rep, rep.VMMCycles, rep.VMM.TotalTraps())
		}
	})
}
