package main

import (
	"fmt"
	"time"

	"agilepaging/internal/cpu"
	"agilepaging/internal/experiments"
	"agilepaging/internal/ptwc"
	"agilepaging/internal/repcache"
	"agilepaging/internal/workload"
)

// funnelStats sums what the traced funnel measured across the cells it ran.
type funnelStats struct {
	cells                         int
	acquire, next, runOps, report time.Duration
	accesses                      uint64 // warmup plus measured accesses executed
	pwc, ntlb                     ptwc.Stats
}

// cellConfig rebuilds, from public calls only, the machine configuration
// experiments.RunProfile simulates the cell (name, o) on. Comparing content
// keys proves the rebuild is that exact cell: the key covers the normalized
// configuration, the profile, the run length, the warmup split and the seed.
func cellConfig(name string, o experiments.Options) (cpu.Config, workload.Profile, error) {
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return cpu.Config{}, prof, fmt.Errorf("unknown workload %q", name)
	}
	cfg := cpu.DefaultConfig(o.Technique, o.PageSize)
	cfg.Agile.Revert = o.RevertPolicy
	if o.AgileStartNested {
		cfg.Agile.StartNested = true
		cfg.Agile.StartDelayCycles = 500_000
		cfg.Agile.MissOverheadThreshold = 0.06
	}
	cfg.Cores = max(cfg.Cores, prof.Threads)
	warm := o.Accesses / 2
	want, ok := experiments.CellKey(name, o)
	if got := repcache.KeyFor(cfg, prof, warm+o.Accesses, warm, o.Seed); !ok || got != want {
		return cpu.Config{}, prof, fmt.Errorf("funnel config for %s/%v/%v is not the cell RunProfile simulates", name, o.PageSize, o.Technique)
	}
	return cfg, prof, nil
}

// tracedCell simulates one cell the way experiments.RunProfile does on a report
// cache miss — acquire a pooled machine, replay the shared stream chunk by
// chunk, reset the measurement after the warmup accesses, assemble the
// report, release the machine — timing each call as a span under cell.
// Its report is bit-identical to RunProfile's.
func (r *repRun) tracedCell(name string, o experiments.Options, key string) (cpu.Report, error) {
	cfg, prof, err := cellConfig(name, o)
	if err != nil {
		return cpu.Report{}, err
	}
	tr, f := r.tr, &r.funnel
	cell := tr.begin("sweep.cell", key, r.parent, r.id)
	defer tr.end(cell)

	t := time.Now()
	m, err := cpu.AcquireMachine(cfg)
	f.acquire += tr.since("cpu.acquire", cell, r.id, t)
	if err != nil {
		return cpu.Report{}, err
	}
	warm := o.Accesses / 2
	rd := workload.SharedStream(prof, o.PageSize, warm+o.Accesses, o.Seed).Reader()
	defer rd.Close()
	run := func(ops []workload.Op, base int) error {
		t := time.Now()
		err := m.RunOps(ops, base)
		f.runOps += tr.since("cpu.run_ops", cell, r.id, t)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		return nil
	}
	base, pending := 0, warm
	for {
		t := time.Now()
		ops, ok := rd.Next()
		f.next += tr.since("workload.next", cell, r.id, t)
		if !ok {
			break
		}
		if pending > 0 {
			idx, seen := splitAfterAccesses(ops, pending)
			if seen == pending {
				if err := run(ops[:idx], base); err != nil {
					return cpu.Report{}, err
				}
				m.ResetMeasurement()
				ops, base, pending = ops[idx:], base+idx, 0
			} else {
				pending -= seen
			}
		}
		if err := run(ops, base); err != nil {
			return cpu.Report{}, err
		}
		base += len(ops)
	}
	if pending > 0 {
		m.ResetMeasurement() // stream shorter than the warmup window
	}

	t = time.Now()
	rep := m.Report(name)
	f.report += tr.since("cpu.report", cell, r.id, t)
	if m.PWC != nil {
		f.pwc = addPWC(f.pwc, m.PWC.Stats())
	}
	if m.NTLB != nil {
		f.ntlb = addPWC(f.ntlb, m.NTLB.Stats())
	}
	f.accesses += uint64(warm) + rep.Machine.Accesses
	f.cells++

	t = time.Now()
	cpu.ReleaseMachine(m)
	tr.since("cpu.release", cell, r.id, t)
	return rep, nil
}

// splitAfterAccesses returns the index just past the n-th access in ops and
// the number of accesses seen (n when the boundary lies within ops).
func splitAfterAccesses(ops []workload.Op, n int) (idx, seen int) {
	for i := range ops {
		if ops[i].Kind == workload.OpAccess {
			seen++
			if seen == n {
				return i + 1, seen
			}
		}
	}
	return len(ops), seen
}

func addPWC(a, b ptwc.Stats) ptwc.Stats {
	a.Lookups += b.Lookups
	a.Hits += b.Hits
	return a
}
