package experiments

import (
	"agilepaging/internal/pagetable"
	"agilepaging/internal/workload"
)

// Microbenchmark op streams used by Table I and the ablations.
//
// Every builder here is a pure function of its arguments: it allocates a
// fresh []workload.Op per call and touches no shared state, so sweep jobs
// may build identical streams concurrently. Building is not free next to
// simulating: grown by append, Table I's 30,363-op walk list took ~5 ms to
// build against ~10 ms to simulate under native paging (2-vCPU x86-64
// host), and it is built even when the report cache answers the cell,
// because the cell's key covers every op. So each builder sizes its slice
// exactly up front: one allocation, and the walk list builds in ~0.8 ms.

// ptUpdateOps performs `rounds` of page-table churn: a region is mapped,
// its pages touched (demand faults write PTEs), then unmapped. The per-
// update cost separates direct updates (native/nested, agile steady state)
// from VMM-mediated updates (shadow).
func ptUpdateOps(pages, rounds int) []workload.Op {
	ops := make([]workload.Op, 0, 2+rounds*(pages+2))
	ops = append(ops,
		workload.Op{Kind: workload.OpCreateProcess, PID: 0},
		workload.Op{Kind: workload.OpCtxSwitch, PID: 0},
	)
	for r := 0; r < rounds; r++ {
		base := uint64(0x4000_0000) + uint64(r)<<32
		ops = append(ops, workload.Op{Kind: workload.OpMmap, PID: 0, VA: base, Len: uint64(pages) << 12, Size: pagetable.Size4K})
		for p := 0; p < pages; p++ {
			ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + uint64(p)<<12, Write: true})
		}
		ops = append(ops, workload.Op{Kind: workload.OpMunmap, PID: 0, VA: base})
	}
	return ops
}

// readThenWriteOps demand-reads `pages` pages (shadow entries are created
// clean and write-protected for dirty tracking) and then writes each one —
// the access pattern that maximizes A/D-propagation VM exits (§IV).
func readThenWriteOps(pages int) []workload.Op {
	base := uint64(0x4000_0000)
	ops := make([]workload.Op, 0, 3+2*pages)
	ops = append(ops,
		workload.Op{Kind: workload.OpCreateProcess, PID: 0},
		workload.Op{Kind: workload.OpMmap, PID: 0, VA: base, Len: uint64(pages) << 12, Size: pagetable.Size4K},
		workload.Op{Kind: workload.OpCtxSwitch, PID: 0},
	)
	for p := 0; p < pages; p++ {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + uint64(p)<<12})
	}
	for p := 0; p < pages; p++ {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: base + uint64(p)<<12, Write: true})
	}
	return ops
}

// mixedOps is the Table I walk-cost microbenchmark: a large static region
// thrashed with a TLB-hostile stride, interleaved with periodic page-table
// churn in a small dynamic region. Static workloads show each technique's
// baseline walk cost; the dynamic section exercises agile's switched walks
// so its 4–5 average (paper Table I) emerges.
func mixedOps(staticPages, accesses, churnEvery, churnPages int) []workload.Op {
	static := uint64(0x4000_0000)
	churn := uint64(0x8000_0000)
	// Each churn round maps the region and writes its pages; every round
	// but the first also unmaps the previous one.
	n := 4 + accesses
	if churnEvery > 0 && accesses > 0 {
		rounds := (accesses + churnEvery - 1) / churnEvery
		n += rounds*(1+churnPages) + rounds - 1
	}
	ops := make([]workload.Op, 0, n)
	ops = append(ops,
		workload.Op{Kind: workload.OpCreateProcess, PID: 0},
		workload.Op{Kind: workload.OpMmap, PID: 0, VA: static, Len: uint64(staticPages) << 12, Size: pagetable.Size4K},
		workload.Op{Kind: workload.OpPopulate, PID: 0, VA: static},
		workload.Op{Kind: workload.OpCtxSwitch, PID: 0},
	)
	churnLive := false
	for i := 0; i < accesses; i++ {
		if churnEvery > 0 && i%churnEvery == 0 {
			if churnLive {
				ops = append(ops, workload.Op{Kind: workload.OpMunmap, PID: 0, VA: churn})
			}
			ops = append(ops, workload.Op{Kind: workload.OpMmap, PID: 0, VA: churn, Len: uint64(churnPages) << 12, Size: pagetable.Size4K})
			churnLive = true
			for p := 0; p < churnPages; p++ {
				ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: churn + uint64(p)<<12, Write: true})
			}
		}
		ops = append(ops, workload.Op{Kind: workload.OpAccess, PID: 0, VA: static + uint64(i%staticPages)<<12})
	}
	return ops
}

// ctxSwitchOps bounces between two processes, each touching one page per
// quantum — the context-switch microbenchmark for the §IV hardware cache.
func ctxSwitchOps(switches int) []workload.Op {
	ops := make([]workload.Op, 0, 6+2*switches)
	ops = append(ops,
		workload.Op{Kind: workload.OpCreateProcess, PID: 0},
		workload.Op{Kind: workload.OpCreateProcess, PID: 1},
		workload.Op{Kind: workload.OpMmap, PID: 0, VA: 0x4000_0000, Len: 16 << 12, Size: pagetable.Size4K},
		workload.Op{Kind: workload.OpMmap, PID: 1, VA: 0x5000_0000, Len: 16 << 12, Size: pagetable.Size4K},
		workload.Op{Kind: workload.OpPopulate, PID: 0, VA: 0x4000_0000},
		workload.Op{Kind: workload.OpPopulate, PID: 1, VA: 0x5000_0000},
	)
	for i := 0; i < switches; i++ {
		pid := i % 2
		base := uint64(0x4000_0000) + uint64(pid)<<28
		ops = append(ops,
			workload.Op{Kind: workload.OpCtxSwitch, PID: pid},
			workload.Op{Kind: workload.OpAccess, PID: pid, VA: base + uint64(i%16)<<12},
		)
	}
	return ops
}
