package diffcheck

import (
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/workload"
)

// scriptedOps is a hand-built stream hitting every structural-edit hazard at
// once: two processes, a THP collapse of a write-hot COW'd span, reclaim
// pressure that evicts and refaults pages, and a munmap/remap cycle that
// recycles freed frames — followed by enough traffic to surface any stale
// translation state the edits left behind.
func scriptedOps() []workload.Op {
	span := pagetable.Size2M.Bytes()
	baseA := uint64(0x4000_0000)
	baseB := uint64(0x8000_0000)
	scratch := uint64(0xa000_0000)

	ops := []workload.Op{
		{Kind: workload.OpCreateProcess, PID: 0},
		{Kind: workload.OpCreateProcess, PID: 1},
		{Kind: workload.OpMmap, PID: 0, VA: baseA, Len: 2 * span, Size: pagetable.Size4K},
		{Kind: workload.OpPopulate, PID: 0, VA: baseA},
		{Kind: workload.OpMmap, PID: 1, VA: baseB, Len: span, Size: pagetable.Size4K},
		{Kind: workload.OpPopulate, PID: 1, VA: baseB},
		{Kind: workload.OpCtxSwitch, PID: 0},
	}
	// Write-hammer the first span: shadow write-protect traps pile up and
	// agile's per-node counters cross their adaptation thresholds.
	for off := uint64(0); off < span; off += 4096 {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: baseA + off, Write: true})
	}
	// Pending COW over the span, with half of it broken by writes, so the
	// collapse must resolve live COW state.
	ops = append(ops, workload.Op{Kind: workload.OpMarkCOW, PID: 0, VA: baseA})
	for off := uint64(0); off < span/2; off += 4096 {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: baseA + off, Write: true})
	}
	ops = append(ops, workload.Op{Kind: workload.OpCollapse, PID: 0, VA: baseA})
	// Process 1 interleaves: reclaim evicts clock-cold pages, then refault.
	ops = append(ops, workload.Op{Kind: workload.OpCtxSwitch, PID: 1})
	for off := uint64(0); off < span; off += 8192 {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 1, VA: baseB + off, Write: off%16384 == 0})
	}
	ops = append(ops,
		workload.Op{Kind: workload.OpReclaim, PID: 1, N: 32},
		workload.Op{Kind: workload.OpAccess, PID: 1, VA: baseB, Write: true},
		workload.Op{Kind: workload.OpAccess, PID: 1, VA: baseB + span/2},
	)
	// A scratch region is mapped, written, and unmapped, then a fresh region
	// takes its frames — stale translations to recycled frames would alias.
	ops = append(ops,
		workload.Op{Kind: workload.OpCtxSwitch, PID: 0},
		workload.Op{Kind: workload.OpMmap, PID: 0, VA: scratch, Len: 64 << 12, Size: pagetable.Size4K},
		workload.Op{Kind: workload.OpPopulate, PID: 0, VA: scratch},
	)
	for off := uint64(0); off < 64<<12; off += 4096 {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: scratch + off, Write: true})
	}
	ops = append(ops,
		workload.Op{Kind: workload.OpMunmap, PID: 0, VA: scratch},
		workload.Op{Kind: workload.OpMmap, PID: 0, VA: scratch + (1 << 30), Len: 64 << 12, Size: pagetable.Size4K},
		workload.Op{Kind: workload.OpPopulate, PID: 0, VA: scratch + (1 << 30)},
	)
	// Post-edit traffic over everything that survived, reads and writes, so
	// any stale shadow or TLB state has to show itself.
	for off := uint64(0); off < span; off += 4096 {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: baseA + off, Write: off%8192 == 0})
	}
	for off := uint64(0); off < 64<<12; off += 4096 {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: scratch + (1 << 30) + off, Write: true})
	}
	// Collapse the second span of process 0's region after the recycling
	// churn, then touch it.
	ops = append(ops, workload.Op{Kind: workload.OpCollapse, PID: 0, VA: baseA + span})
	for off := uint64(0); off < span; off += 4096 {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: baseA + span + off})
	}
	return ops
}

// TestDiffEquivalenceScripted is the acceptance pin for the shadow
// translation coherence work: one script with THP collapse, pending COW, and
// reclaim produces page-for-page identical end state under all four
// techniques, and the shadow tables pass the coherence audit.
func TestDiffEquivalenceScripted(t *testing.T) {
	ops := scriptedOps()
	if err := Equivalent(ops, Options{PolicyTickOps: 200}); err != nil {
		t.Fatal(err)
	}
	// Guard against a vacuous pass: the reference state must really contain
	// the structures the script builds.
	st, err := Run(Techniques[0], ops, Options{PolicyTickOps: 200})
	if err != nil {
		t.Fatal(err)
	}
	huge := 0
	for _, l := range st.Leaves[0] {
		if l.Size == pagetable.Size2M {
			huge++
		}
	}
	if huge != 2 {
		t.Errorf("reference state has %d 2M leaves for pid 0, want 2 (both collapses)", huge)
	}
	if len(st.Chains) == 0 || len(st.Groups) == 0 {
		t.Errorf("reference state is empty: %d chains, %d groups", len(st.Chains), len(st.Groups))
	}
	if len(st.Leaves[1]) == 0 {
		t.Error("reference state lost process 1's mappings")
	}
}

// TestDiffEquivalenceGenerated drives the harness with the synthetic
// generator's structural-edit knobs — the same profile family the sweeps
// measure — rather than a hand-built script.
func TestDiffEquivalenceGenerated(t *testing.T) {
	prof := workload.Profile{
		Name: "diff-thp", FootprintBytes: 4 << 20, Pattern: workload.PatternZipf,
		ZipfS: 1.1, WriteRatio: 0.4, Processes: 2, CtxSwitchEvery: 120,
		CollapseEvery: 300, CowEvery: 450, CowRegionBytes: 64 << 10,
		ReclaimEvery: 600, ReclaimPages: 16,
	}
	ops := workload.Collect(workload.New(prof, pagetable.Size4K, 2500, 17), -1)
	if err := Equivalent(ops, Options{PolicyTickOps: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDiffEquivalence lets the fuzzer pick the structural-edit mix and the
// page size. Every 4K stream includes collapses unless the fuzzer disables
// them; 2M streams have none.
func FuzzDiffEquivalence(f *testing.F) {
	f.Add(int64(3), uint16(900), uint8(35), uint8(1), uint16(250), uint16(400), uint16(0), uint16(0), false)
	f.Add(int64(11), uint16(1200), uint8(50), uint8(2), uint16(350), uint16(500), uint16(600), uint16(0), false)
	f.Add(int64(29), uint16(700), uint8(20), uint8(2), uint16(200), uint16(0), uint16(450), uint16(300), false)
	f.Add(int64(5), uint16(1100), uint8(40), uint8(2), uint16(0), uint16(150), uint16(200), uint16(250), true)
	f.Fuzz(func(t *testing.T, seed int64, accesses uint16, writePct, procs uint8, collapseEvery, cowEvery, reclaimEvery, churnEvery uint16, largePages bool) {
		prof := workload.Profile{
			Name:           "diff-fuzz",
			FootprintBytes: 4 << 20,
			Pattern:        workload.PatternZipf,
			ZipfS:          1.1,
			WriteRatio:     float64(writePct%101) / 100,
			Processes:      1 + int(procs%3),
			CollapseEvery:  int(collapseEvery % 1024),
			CowEvery:       int(cowEvery % 1024),
			ReclaimEvery:   int(reclaimEvery % 1024),
			MmapChurnEvery: int(churnEvery % 1024),
		}
		if prof.Processes > 1 {
			prof.CtxSwitchEvery = 96
		}
		if prof.CowEvery > 0 {
			prof.CowRegionBytes = 32 << 10
		}
		if prof.MmapChurnEvery > 0 {
			prof.ChurnRegionBytes, prof.ChurnRegions = 32<<10, 2
		}
		if prof.ReclaimEvery > 0 {
			prof.ReclaimPages = 16
		}
		ps := pagetable.Size4K
		if largePages {
			ps = pagetable.Size2M
			// The VM recycles only 4K guest pages, so every 2M page a COW
			// break, a reclaim eviction or an unmap gives up stays
			// allocated; at most one such event per 64 accesses keeps the
			// run inside the harness's 128 MiB guest.
			for _, every := range []*int{&prof.CowEvery, &prof.ReclaimEvery, &prof.MmapChurnEvery} {
				if *every > 0 {
					*every = max(*every, 64)
				}
			}
		}
		ops := workload.Collect(workload.New(prof, ps, 300+int(accesses%1500), seed), -1)
		if err := Equivalent(ops, Options{PageSize: ps, PolicyTickOps: 300}); err != nil {
			t.Fatal(err)
		}
	})
}
