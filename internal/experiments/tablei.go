package experiments

import (
	"context"

	"agilepaging/internal/sweep"
	"agilepaging/internal/trace"
	"agilepaging/internal/vmm"
	"agilepaging/internal/walker"
)

// TableIRow is one column of paper Table I, measured.
type TableIRow struct {
	Technique walker.Mode
	// TLBHit is the translation a TLB hit provides (qualitative; all four
	// techniques hit at full speed).
	TLBHit string
	// MaxRefs and AvgRefs are measured memory accesses per TLB miss on the
	// thrash microbenchmark (PWC disabled to expose the architectural walk).
	MaxRefs int
	AvgRefs float64
	// UpdateCycles is the measured VMM cycles per guest page-table update
	// on the churn microbenchmark (0 = fast direct updates).
	UpdateCycles float64
	UpdateMode   string
	// Hardware is the page-walk hardware the technique requires.
	Hardware string
}

// TableI reproduces paper Table I: the qualitative trade-off between the
// techniques, with the quantitative cells measured on microbenchmarks.
func TableI() ([]TableIRow, error) {
	return TableISweep(context.Background(), sweep.Config{})
}

// TableISweep is TableI on an explicit sweep configuration: one job per
// technique, each running both microbenchmarks. On error the returned rows
// hold whatever techniques completed.
func TableISweep(ctx context.Context, cfg sweep.Config) ([]TableIRow, error) {
	jobs := make([]sweep.Job[walker.Mode], 0, 4)
	for _, tech := range Techniques() {
		jobs = append(jobs, sweep.Job[walker.Mode]{Key: "table1/" + tech.String(), Options: tech})
	}
	out := sweep.Execute(ctx, cfg, jobs, func(_ context.Context, j sweep.Job[walker.Mode]) (TableIRow, error) {
		return tableIRow(j.Options)
	})
	rows, _ := partialOutcome(jobs, out)
	return rows, out.Err
}

// tableIRow measures one technique's Table I cells.
func tableIRow(tech walker.Mode) (TableIRow, error) {
	row := TableIRow{Technique: tech}
	switch tech {
	case walker.ModeNative:
		row.TLBHit, row.Hardware = "fast (VA=>PA)", "1D page walk"
	case walker.ModeNested:
		row.TLBHit, row.Hardware = "fast (gVA=>hPA)", "2D+1D page walk"
	case walker.ModeShadow:
		row.TLBHit, row.Hardware = "fast (gVA=>hPA)", "1D page walk"
	case walker.ModeAgile:
		row.TLBHit, row.Hardware = "fast (gVA=>hPA)", "2D+1D walk with switching"
	}

	// Walk cost: thrash a region far beyond TLB reach with periodic
	// page-table churn in a side region, no MMU caches. Under agile the
	// churned subtree runs nested, producing the 4–5 average of Table I.
	o := DefaultOptions(tech, 0)
	o.DisablePWC, o.DisableNTLB = true, true
	o.AgileStartNested = false
	walk, err := RunOps("table1-walk", mixedOps(1024, 30_000, 1500, 16), o)
	if err != nil {
		return TableIRow{}, err
	}
	row.AvgRefs = trace.SummaryOf(walk.Walker).AvgRefs()
	row.MaxRefs = walk.RefsMax

	// Update cost: page-table churn; cycles of update-servicing traps
	// per guest page-table update.
	o2 := DefaultOptions(tech, 0)
	o2.AgileStartNested = false
	rep, err := RunOps("table1-update", ptUpdateOps(64, 32), o2)
	if err != nil {
		return TableIRow{}, err
	}
	updates := rep.OS.MapsInstalled + rep.OS.Unmapped
	costs := vmm.DefaultCostModel()
	traps := rep.VMM.Traps
	mediated := traps[vmm.TrapPTWrite]*costs.Cycles[vmm.TrapPTWrite] +
		traps[vmm.TrapTLBFlush]*costs.Cycles[vmm.TrapTLBFlush]
	if updates > 0 {
		row.UpdateCycles = float64(mediated) / float64(updates)
	}
	switch {
	case row.UpdateCycles == 0:
		row.UpdateMode = "fast direct"
	case row.UpdateCycles < 500:
		row.UpdateMode = "fast direct (after adaptation)"
	default:
		row.UpdateMode = "slow, mediated by VMM"
	}
	return row, nil
}
