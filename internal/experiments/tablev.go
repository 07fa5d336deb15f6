package experiments

import (
	"context"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// TableVRow characterizes one workload as paper Table V does, extended with
// the measured properties that qualified workloads for the study: the
// paper selects workloads "with high TLB-miss overhead (more than 5 MPKI)".
type TableVRow struct {
	Workload       string
	FootprintBytes uint64
	Pattern        string
	Processes      int
	// Measured on the base-native 4K configuration.
	MPKI           float64
	MissRatio      float64
	WalkOverhead   float64
	PTUpdateEvents uint64 // guest page-table update events (maps + unmaps)
}

// TableVSweep measures the workload-characterization table: one
// base-native job per workload profile. On error the returned rows hold
// whatever workloads completed (all healthy ones under CollectAll).
func TableVSweep(ctx context.Context, cfg sweep.Config, accesses int, seed int64) ([]TableVRow, error) {
	profiles := workload.Profiles()
	jobs := make([]sweep.Job[Options], 0, len(profiles))
	for _, prof := range profiles {
		o := DefaultOptions(walker.ModeNative, pagetable.Size4K)
		o.Accesses = accesses
		o.Seed = seed
		dedup, _ := CellKey(prof.Name, o)
		jobs = append(jobs, sweep.Job[Options]{Key: "table5/" + prof.Name, Workload: prof.Name, Options: o, DedupKey: dedup})
	}
	out := sweep.Execute(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[Options]) (TableVRow, error) {
		prof, _ := workload.ProfileByName(j.Workload)
		rep, err := RunProfile(j.Workload, j.Options)
		if err != nil {
			return TableVRow{}, err
		}
		missRatio := 0.0
		if rep.Machine.Accesses > 0 {
			missRatio = float64(rep.Machine.TLBMisses) / float64(rep.Machine.Accesses)
		}
		procs := prof.Processes
		if procs == 0 {
			procs = 1
		}
		return TableVRow{
			Workload:       prof.Name,
			FootprintBytes: prof.FootprintBytes,
			Pattern:        prof.Pattern.String(),
			Processes:      procs,
			MPKI:           rep.MPKI(),
			MissRatio:      missRatio,
			WalkOverhead:   rep.WalkOverhead(),
			PTUpdateEvents: rep.OS.MapsInstalled + rep.OS.Unmapped,
		}, nil
	})
	rows, _ := partialOutcome(jobs, out)
	return rows, out.Err
}
