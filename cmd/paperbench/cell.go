package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"

	"agilepaging"
	"agilepaging/internal/experiments"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/telemetry"
	"agilepaging/internal/walker"
)

// cellName names the -run cell in error and interrupt messages.
func (o options) cellName() string {
	if o.compare {
		return fmt.Sprintf("%s/%s compare", o.cell.Workload, o.cell.PageSize)
	}
	return fmt.Sprintf("%s/%s/%s", o.cell.Workload, o.cell.PageSize, o.cell.Technique)
}

// runCell simulates the -run cell and prints it: Compare's table under
// -compare, the epoch telemetry under -metrics or -walk-trace, and
// otherwise Run's result, as JSON under -json.
func runCell(ctx context.Context, o options) error {
	if o.compare {
		results, completed, err := agilepaging.Compare(ctx, o.runAllOptions(), o.cell)
		for _, ok := range completed {
			if ok {
				completedSims.Add(1)
			}
		}
		// Under -fail collect the healthy cells still compare; print them
		// before reporting the failures.
		printComparison(results, completed)
		return err
	}
	if o.metrics != "" || o.walkTrace != "" {
		return runWithTelemetry(o)
	}
	res, err := agilepaging.Run(o.cell)
	if err != nil {
		return err
	}
	if o.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	printResult(res)
	return nil
}

// runWithTelemetry runs the -run cell with the epoch recorder (and, with
// -walk-trace, the walk-event ring) attached, prints the report and the
// epoch table, and writes the requested files. The facade's Result is an
// end-of-run aggregate, so this path maps the cell onto the experiments
// layer itself, where the recorders attach to the machine for the measured
// window.
func runWithTelemetry(o options) error {
	mode, err := walker.ParseMode(o.cell.Technique.String())
	if err != nil {
		return err
	}
	size, err := pagetable.ParseSize(o.cell.PageSize.String())
	if err != nil {
		return err
	}
	eo := experiments.DefaultOptions(mode, size)
	eo.Accesses = o.cell.Accesses
	eo.Warmup = o.cell.Warmup
	eo.Seed = o.cell.Seed
	eo.DisablePWC = o.cell.DisableMMUCaches
	eo.DisableNTLB = o.cell.DisableMMUCaches
	eo.HardwareAD = o.cell.HardwareAD
	eo.CtxSwitchCache = o.cell.CtxSwitchCacheEntries
	eo.UseSHSP = o.cell.SHSPBaseline

	rec := telemetry.NewRecorder(o.metricsEpoch)
	eo.Metrics = rec
	var ring *telemetry.EventRing
	if o.walkTrace != "" {
		ring = telemetry.NewEventRing(0)
		eo.WalkEvents = ring
	}
	rep, err := experiments.RunProfile(o.cell.Workload, eo)
	if err != nil {
		return err
	}
	fmt.Println(rep.String())
	s := rec.Series()
	fmt.Print(s.Table())
	return writeTelemetry(o.metrics, s, o.walkTrace, ring)
}

// printResult renders Run's result as the -run report.
func printResult(r agilepaging.Result) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "workload\t%s\n", r.Workload)
	fmt.Fprintf(w, "configuration\t%s pages, %s paging\n", r.PageSize, r.Technique)
	fmt.Fprintf(w, "page-walk overhead\t%.1f%%\n", 100*r.WalkOverhead)
	fmt.Fprintf(w, "VMM overhead\t%.1f%%\n", 100*r.VMMOverhead)
	fmt.Fprintf(w, "total overhead\t%.1f%%\n", 100*r.TotalOverhead)
	fmt.Fprintf(w, "accesses\t%d\n", r.Accesses)
	fmt.Fprintf(w, "TLB misses\t%d (%.1f MPKI)\n", r.TLBMisses, r.MPKI)
	fmt.Fprintf(w, "walk refs/miss\t%.2f (p50 %d, p95 %d)\n", r.AvgRefsPerMiss, r.RefsP50, r.RefsP95)
	fmt.Fprintf(w, "VM exits\t%d\n", r.VMExits)
	fmt.Fprintf(w, "guest page faults\t%d\n", r.GuestFaults)
	if r.Technique == agilepaging.Agile {
		fmt.Fprintf(w, "agile switches\t%d to nested, %d to shadow\n", r.SwitchesToNested, r.SwitchesToShadow)
	}
	w.Flush()
}

// printComparison renders the -compare table. completed masks which slots
// hold real measurements (nil = all); slots without one — failed, or never
// run after a fail-fast stop — are marked rather than printed as a row of
// misleading zeros (the returned error attributes the actual failures).
func printComparison(results []agilepaging.Result, completed []bool) {
	if len(results) == 0 {
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "technique\twalk%\tvmm%\ttotal%\tmisses\trefs/miss\tvm-exits")
	for i, r := range results {
		if completed != nil && !completed[i] {
			fmt.Fprintf(w, "%s\t(no result)\t\t\t\t\t\n", agilepaging.Techniques()[i])
			continue
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%d\t%.2f\t%d\n",
			r.Technique, 100*r.WalkOverhead, 100*r.VMMOverhead, 100*r.TotalOverhead,
			r.TLBMisses, r.AvgRefsPerMiss, r.VMExits)
	}
	w.Flush()
}
