package experiments

import (
	"fmt"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/trace"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// TestCountersMatchLogs pins what lets Table I, Table VI and the model
// validation read their miss and trap classes from Report counters: on
// each kind of cell they run, a MissLog and a TrapLog attached for the
// measured window agree with the report. trace.SummaryOf(rep.Walker)
// equals the log's Summary on Total, ByClass and SumRefs, rep.RefsMax is
// the largest logged walk, and rep.VMM.Traps equals the trap log. Each
// instrumented replay must also equal the report the driver is served, so
// the comparison is made on the driver's own cell.
func TestCountersMatchLogs(t *testing.T) {
	type cell struct {
		name string
		// wl names the profile, or the op cell when ops is set.
		wl   string
		ops  func() []workload.Op
		opts Options
	}
	var cells []cell
	noMMUCaches := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
	noMMUCaches.DisablePWC, noMMUCaches.DisableNTLB = true, true
	for _, wl := range []string{"astar", "canneal"} {
		for _, p := range []struct {
			label string
			opts  Options
		}{
			{"agile/4K no PWC/NTLB", noMMUCaches},
			{"agile/4K", DefaultOptions(walker.ModeAgile, pagetable.Size4K)},
			{"nested/4K", DefaultOptions(walker.ModeNested, pagetable.Size4K)},
			{"shadow/4K", DefaultOptions(walker.ModeShadow, pagetable.Size4K)},
		} {
			o := p.opts
			o.Accesses, o.Seed = 20_000, 3
			cells = append(cells, cell{name: wl + "/" + p.label, wl: wl, opts: o})
		}
	}
	for _, tech := range Techniques() {
		walk := DefaultOptions(tech, 0)
		walk.DisablePWC, walk.DisableNTLB = true, true
		walk.AgileStartNested = false
		update := DefaultOptions(tech, 0)
		update.AgileStartNested = false
		cells = append(cells,
			cell{name: "table1-walk/" + tech.String(), wl: "table1-walk", ops: func() []workload.Op { return mixedOps(1024, 30_000, 1500, 16) }, opts: walk},
			cell{name: "table1-update/" + tech.String(), wl: "table1-update", ops: func() []workload.Op { return ptUpdateOps(64, 32) }, opts: update},
		)
	}

	var classes [6]uint64
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			var miss trace.MissLog
			var traps trace.TrapLog
			attach := func(m *cpu.Machine) {
				m.SetMissObserver(miss.Observer())
				if m.VM != nil {
					m.VM.SetTrapObserver(traps.Observer())
				}
			}
			rep, want, err := runBoth(c.wl, c.ops, c.opts, attach)
			if err != nil {
				t.Fatal(err)
			}
			if rep != want {
				t.Fatal("the instrumented replay differs from the report the driver is served")
			}

			got, logged := trace.SummaryOf(rep.Walker), miss.Summary()
			if logged.Total == 0 {
				t.Fatal("no TLB misses logged; the cell exercises nothing")
			}
			if got.Total != logged.Total || got.ByClass != logged.ByClass || got.SumRefs != logged.SumRefs {
				t.Fatalf("counter-derived summary %+v != logged %+v", got, logged)
			}
			maxRefs := 0
			for _, r := range miss.Records {
				maxRefs = max(maxRefs, int(r.Refs))
			}
			if rep.RefsMax != maxRefs {
				t.Fatalf("RefsMax %d != largest logged walk %d", rep.RefsMax, maxRefs)
			}
			if rep.VMM.Traps != traps.Counts {
				t.Fatalf("VMM.Traps %v != trap log %v", rep.VMM.Traps, traps.Counts)
			}
			for i, n := range got.ByClass {
				classes[i] += n
			}
		})
	}
	// Shadow, switched and full-nested (gptr) walks must all have been
	// compared. TestSummaryOfClasses covers the mapping of every class.
	if switched := classes[1] + classes[2] + classes[3] + classes[4]; classes[0] == 0 || switched == 0 || classes[5] == 0 {
		t.Errorf("walk classes compared %v: want shadow, switched and full-nested walks", classes)
	}
}

// runBoth simulates one cell twice: once with attach installing observers
// at the start of its measured window, and once the way its driver does
// (RunProfile or RunOps, through the report cache).
func runBoth(name string, ops func() []workload.Op, o Options, attach func(*cpu.Machine)) (rep, want cpu.Report, err error) {
	if ops != nil {
		list := ops()
		m, err := cpu.New(machineConfig(o))
		if err != nil {
			return rep, want, err
		}
		attach(m)
		if err := m.RunOps(list, 0); err != nil {
			return rep, want, err
		}
		want, err = RunOps(name, list, o)
		return m.Report(name), want, err
	}
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return rep, want, fmt.Errorf("unknown workload %q", name)
	}
	cfg := machineConfig(o)
	cfg.Cores = max(cfg.Cores, prof.Threads)
	m, err := cpu.New(cfg)
	if err != nil {
		return rep, want, err
	}
	if rep, err = runStream(m, prof, o, attach); err != nil {
		return rep, want, err
	}
	want, err = RunProfile(name, o)
	return rep, want, err
}
