package experiments

import (
	"context"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/sweep"
	"agilepaging/internal/trace"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// TableVIRow is one row of paper Table VI: the fraction of TLB misses
// served at each agile switch level while using 4K pages, assuming no page
// walk caches, plus the resulting average memory accesses per miss.
type TableVIRow struct {
	Workload string
	// Fractions[0] = full shadow, [1..4] = switch at L4..L1 (1..4 trailing
	// nested levels), [5] = fully nested.
	Fractions [6]float64
	AvgRefs   float64
}

// TableVI reproduces paper Table VI by running every workload under agile
// paging at 4K with the page walk caches and nested TLB disabled, and
// classifying every TLB miss (the BadgerTrap step).
func TableVI(workloads []string, accesses int, seed int64) ([]TableVIRow, error) {
	return TableVISweep(context.Background(), sweep.Config{}, workloads, accesses, seed)
}

// TableVISweep is TableVI on an explicit sweep configuration: one plain
// cell per workload, whose miss classes come from the report's walker
// counters (trace.SummaryOf), so the cells are memoized and deduplicated
// like any other. On error the returned rows hold whatever workloads
// completed.
func TableVISweep(ctx context.Context, cfg sweep.Config, workloads []string, accesses int, seed int64) ([]TableVIRow, error) {
	if workloads == nil {
		workloads = workload.Names()
	}
	jobs := make([]sweep.Job[Options], 0, len(workloads))
	for _, name := range workloads {
		o := DefaultOptions(walker.ModeAgile, pagetable.Size4K)
		o.Accesses = accesses
		o.Seed = seed
		o.DisablePWC = true
		o.DisableNTLB = true
		dedup, _ := CellKey(name, o)
		jobs = append(jobs, sweep.Job[Options]{Key: "table6/" + name, Workload: name, Options: o, DedupKey: dedup})
	}
	out := sweep.Execute(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[Options]) (TableVIRow, error) {
		rep, err := RunProfile(j.Workload, j.Options)
		if err != nil {
			return TableVIRow{}, err
		}
		s := trace.SummaryOf(rep.Walker)
		row := TableVIRow{Workload: j.Workload, AvgRefs: s.AvgRefs()}
		for c := 0; c < 6; c++ {
			row.Fractions[c] = s.Fraction(c)
		}
		return row, nil
	})
	rows, _ := partialOutcome(jobs, out)
	return rows, out.Err
}
