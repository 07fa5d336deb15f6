package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"agilepaging/internal/cpu"
	"agilepaging/internal/experiments"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/repcache"
	"agilepaging/internal/sweep"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// workloadDef is one closed loop: a single caller runs reps back to back.
// before runs ahead of every rep, outside its timing.
type workloadDef struct {
	name string
	// family names the output a rep produces; workloads of one family must
	// produce the same digest.
	family   string
	profiles []string // the exec workloads' profiles
	workers  int      // sweep workers
	before   func()
	rep      func(ctx context.Context, r *repRun)
}

// accesses is the measured access count of the cells whose reports a rep
// collects.
func (w workloadDef) accesses(p params) int {
	if w.family == "paper" {
		return p.paperAccesses
	}
	return p.execAccesses
}

// The exec workloads run these profiles under every technique at 4K.
var (
	// Large static footprints: many TLB misses and 2D walks, almost no
	// page-table updates.
	walkHeavy = []string{"graph500", "mcf"}
	// Page-table writes beside reads: mmap churn, COW, reclaim and context
	// switches.
	updateHeavy = []string{"dedup", "gcc", "memcached"}
)

var workloads = []workloadDef{
	{name: "paper-cold", family: "paper", workers: 2, before: resetCaches, rep: paperRep},
	{name: "paper-warm", family: "paper", workers: 2, rep: paperRep},
	{name: "walk-heavy", family: "walk-heavy", profiles: walkHeavy, workers: 1, before: repcache.Reset, rep: execRep(walkHeavy)},
	{name: "update-heavy", family: "update-heavy", profiles: updateHeavy, workers: 1, before: repcache.Reset, rep: execRep(updateHeavy)},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// resetCaches returns every process-wide cache to its fresh-process state.
func resetCaches() {
	repcache.Reset()
	workload.ResetStreamCache()
	cpu.ResetMachinePool()
}

// repRun is what one rep observed.
type repRun struct {
	p       params
	tr      *tracer
	id      int // rep id shared by the rep's spans
	parent  int // span that new cell and driver spans attach to
	workers int

	wall    time.Duration
	out     strings.Builder // the rep's output, hashed into digest
	digest  string
	reports []cpu.Report // work-counter source: Figure 5's cells, or the exec cells
	cells   int          // cells attempted
	failed  int
	errs    []error

	jobs, deduped int
	cellDurs      []time.Duration
	jobTime       time.Duration
	driverCells   int            // cells the running driver's sweeps declared
	declared      map[string]int // cells each driver declared, kept across reps
	drivers       []driverTime
	funnel        funnelStats

	// Counter deltas over the rep; Bytes is the footprint at its end.
	rc   repcache.Snapshot
	sc   workload.StreamCacheSnapshot
	pool poolStats
}

type driverTime struct {
	name string
	d    time.Duration
}

type poolStats struct{ hits, built, retired uint64 }

func readPool() poolStats {
	h, m, r, _ := cpu.MachinePoolStats()
	return poolStats{h, m, r}
}

func (r *repRun) fail(cells int, err error) {
	r.failed += cells
	r.errs = append(r.errs, err)
}

// sweepConfig records every completed cell's wall time. Progress spans are
// for sweeps whose cells the benchmark cannot enter (the drivers'). Progress
// comes only from completed cells, so a sweep in which every cell fails
// declares nothing here.
func (r *repRun) sweepConfig(progressSpans bool) sweep.Config {
	return sweep.Config{Workers: r.workers, OnProgress: func(p sweep.Progress) {
		if p.Done == 1 { // once per sweep
			r.driverCells += p.Total + p.Deduped
			r.jobs += p.Total
			r.deduped += p.Deduped
		}
		r.cellDurs = append(r.cellDurs, p.Elapsed)
		r.jobTime += p.Elapsed
		if progressSpans && r.tr != nil {
			end := time.Now()
			r.tr.add("sweep.cell", p.Key, r.parent, r.id, end.Add(-p.Elapsed), end)
		}
	}}
}

// driver runs one experiments driver as a span and appends its formatted
// output. It counts the most cells the driver has declared in any rep, so a
// driver whose sweeps fail before completing a cell still counts them all
// once it has declared them; a driver that is not a sweep counts as one.
func (r *repRun) driver(name string, fn func(sweep.Config) (string, error)) {
	rep := r.parent
	r.parent = r.tr.begin("experiments.driver", name, rep, r.id)
	r.driverCells = 0
	start := time.Now()
	text, err := fn(r.sweepConfig(true))
	r.drivers = append(r.drivers, driverTime{name, time.Since(start)})
	r.tr.end(r.parent)
	r.parent = rep
	n := max(1, r.driverCells, r.declared[name])
	r.declared[name] = n
	r.cells += n
	if err != nil {
		r.fail(n, fmt.Errorf("%s: %w", name, err))
		return
	}
	r.out.WriteString(text)
}

// paperRep is the paperbench -all driver sequence.
func paperRep(ctx context.Context, r *repRun) {
	acc, seed := r.p.paperAccesses, r.p.seed
	r.driver("TableISweep", func(c sweep.Config) (string, error) {
		rows, err := experiments.TableISweep(ctx, c)
		return experiments.FormatTableI(rows), err
	})
	r.driver("TableVSweep", func(c sweep.Config) (string, error) {
		rows, err := experiments.TableVSweep(ctx, c, acc, seed)
		return experiments.FormatTableV(rows), err
	})
	r.driver("TableIISweep", func(c sweep.Config) (string, error) {
		rows, err := experiments.TableIISweep(ctx, c)
		return experiments.FormatTableII(rows), err
	})
	r.driver("WalkTraces", func(sweep.Config) (string, error) {
		traces, err := experiments.WalkTraces()
		return experiments.FormatWalkTraces(traces), err
	})
	r.driver("Figure5Sweep", func(c sweep.Config) (string, error) {
		res, err := experiments.Figure5Sweep(ctx, c, nil, acc, seed)
		if err != nil {
			return "", err
		}
		for _, row := range res.Rows {
			r.reports = append(r.reports, row.Report)
		}
		return experiments.FormatFigure5(res) + experiments.FormatFigure5Chart(res) +
			experiments.FormatHeadline(experiments.Headline(res)), nil
	})
	r.driver("TableVISweep", func(c sweep.Config) (string, error) {
		rows, err := experiments.TableVISweep(ctx, c, nil, acc, seed)
		return experiments.FormatTableVI(rows), err
	})
	r.driver("SHSPComparisonSweep", func(c sweep.Config) (string, error) {
		rows, err := experiments.SHSPComparisonSweep(ctx, c, nil, acc, seed)
		return experiments.FormatSHSP(rows), err
	})
	r.driver("SensitivitySweep", func(c sweep.Config) (string, error) {
		rows, err := experiments.SensitivitySweep(ctx, c, acc, seed)
		return experiments.FormatSensitivity(rows), err
	})
	r.driver("AblationsSweep", func(c sweep.Config) (string, error) {
		rows, err := experiments.AblationsSweep(ctx, c, acc/2, seed)
		return experiments.FormatAblations(rows), err
	})
	r.driver("ValidateModelSweep", func(c sweep.Config) (string, error) {
		v, err := experiments.ValidateModelSweep(ctx, c, "canneal", acc, seed)
		return experiments.FormatModelValidation(v), err
	})
}

// figure5Jobs declares the cells of Figure 5 for the given profiles and
// page sizes, as Figure5Sweep does.
func figure5Jobs(names []string, sizes []pagetable.Size, accesses int, seed int64) []sweep.Job[experiments.Options] {
	var jobs []sweep.Job[experiments.Options]
	for _, name := range names {
		for _, ps := range sizes {
			for _, tech := range experiments.Techniques() {
				o := experiments.DefaultOptions(tech, ps)
				o.Accesses = accesses
				o.Seed = seed
				key, _ := experiments.CellKey(name, o)
				jobs = append(jobs, sweep.Job[experiments.Options]{
					Key: fmt.Sprintf("%s/%s/%s", name, ps, tech), Workload: name, Options: o, DedupKey: key,
				})
			}
		}
	}
	return jobs
}

// execRep simulates every technique at 4K for the given profiles. Untraced
// cells go through experiments.RunProfile, traced cells through the
// benchmark's replica of its funnel.
func execRep(names []string) func(context.Context, *repRun) {
	return func(ctx context.Context, r *repRun) {
		jobs := figure5Jobs(names, []pagetable.Size{pagetable.Size4K}, r.p.execAccesses, r.p.seed)
		r.cells += len(jobs)
		out := sweep.Execute(ctx, r.sweepConfig(false), jobs, func(_ context.Context, j sweep.Job[experiments.Options]) (cpu.Report, error) {
			if r.tr == nil {
				return experiments.RunProfile(j.Workload, j.Options)
			}
			return r.tracedCell(j.Workload, j.Options, j.Key)
		})
		for i := range jobs {
			if !out.Completed[i] {
				r.fail(1, fmt.Errorf("%s: %v", jobs[i].Key, out.JobErrors[i]))
				continue
			}
			r.reports = append(r.reports, out.Results[i])
		}
		b, err := json.Marshal(r.reports)
		if err != nil {
			r.fail(len(jobs), err)
		}
		r.out.Write(b)
	}
}

// checkReport tests the invariants every simulated cell must satisfy.
// Machine.WalkRefs and Walker.Refs differ legitimately (the machine also
// charges the references of walks that fault), and a run measures more
// accesses than requested when its stream holds burst accesses beside the
// steady phase, so neither pair is asserted equal.
func checkReport(rep cpu.Report, requested int) error {
	t := rep.TLB
	switch {
	case t.Lookups != t.L1Hits+t.L2Hits+t.Misses:
		return fmt.Errorf("%s: TLB lookups %d != hits %d+%d + misses %d", rep, t.Lookups, t.L1Hits, t.L2Hits, t.Misses)
	case rep.Machine.TLBMisses != t.Misses:
		return fmt.Errorf("%s: machine TLB misses %d != TLB misses %d", rep, rep.Machine.TLBMisses, t.Misses)
	case rep.Technique == walker.ModeNative && (rep.VMMCycles != 0 || rep.VMM.TotalTraps() != 0):
		return fmt.Errorf("%s: native cell reports VMM cycles %d, traps %d", rep, rep.VMMCycles, rep.VMM.TotalTraps())
	case rep.Machine.Accesses < uint64(requested):
		return fmt.Errorf("%s: measured %d accesses, requested %d", rep, rep.Machine.Accesses, requested)
	}
	return nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
