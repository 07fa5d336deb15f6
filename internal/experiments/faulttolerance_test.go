package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/repcache"
	"agilepaging/internal/sweep"
	"agilepaging/internal/workload"
)

// faultCells builds the eight dedup cells ({4K,2M} × four techniques) the
// way Figure5Sweep declares them, so fault tests drive real simulation
// jobs through the same repcache funnel.
func faultCells(accesses int, seed int64) []sweep.Job[Options] {
	var jobs []sweep.Job[Options]
	for _, ps := range PageSizes() {
		for _, tech := range Techniques() {
			o := DefaultOptions(tech, ps)
			o.Accesses = accesses
			o.Seed = seed
			dedup, _ := CellKey("dedup", o)
			jobs = append(jobs, sweep.Job[Options]{
				Key:      fmt.Sprintf("dedup/%s/%s", ps, tech),
				Workload: "dedup",
				Options:  o,
				DedupKey: dedup,
			})
		}
	}
	return jobs
}

func runFaultCell(_ context.Context, j sweep.Job[Options]) (cpu.Report, error) {
	return RunProfile(j.Workload, j.Options)
}

// TestCollectAllRetryAcceptance is the issue's acceptance scenario: a sweep
// with one permanently panicking cell and one transiently failing cell,
// under CollectAll + Retry{Attempts: 2}, completes without crashing the
// process, retries the flake to success, and returns every healthy cell
// bit-identical to a clean serial run.
func TestCollectAllRetryAcceptance(t *testing.T) {
	jobs := faultCells(3000, 42)

	repcache.Reset()
	baseline := sweep.Execute(context.Background(), sweep.Config{Workers: 1}, jobs, runFaultCell)
	if baseline.Err != nil {
		t.Fatal(baseline.Err)
	}
	repcache.Reset()

	panicKey, flakeKey := jobs[2].Key, jobs[5].Key
	inj := sweep.NewInjector(
		sweep.FaultSpec{Key: panicKey, Kind: sweep.FaultPanic},
		sweep.FaultSpec{Key: flakeKey, Execution: 1, Kind: sweep.FaultError},
		sweep.FaultSpec{Key: flakeKey, Execution: 2, Kind: sweep.FaultError},
	)
	cfg := sweep.Config{Workers: 4, ErrorPolicy: sweep.CollectAll, Retry: sweep.Retry{Attempts: 2}}
	out := sweep.Execute(context.Background(), cfg, jobs, sweep.InjectFaults(inj, runFaultCell))

	if out.Err == nil {
		t.Fatal("panicking cell not reported")
	}
	for i, j := range jobs {
		if j.Key == panicKey {
			if out.Completed[i] {
				t.Errorf("%s: panicking cell marked completed", j.Key)
			}
			var pe *sweep.PanicError
			if !errors.As(out.JobErrors[i], &pe) {
				t.Errorf("%s: error is not a recovered panic: %v", j.Key, out.JobErrors[i])
			}
			continue
		}
		if !out.Completed[i] {
			t.Errorf("%s: healthy cell did not complete", j.Key)
			continue
		}
		if !reflect.DeepEqual(out.Results[i], baseline.Results[i]) {
			t.Errorf("%s: result differs from clean serial run", j.Key)
		}
	}
	if n := inj.Executions(flakeKey); n != 3 {
		t.Errorf("flaky cell executed %d times, want 3 (two injected failures + success)", n)
	}
	if n := inj.Executions(panicKey); n != 3 {
		t.Errorf("panicking cell executed %d times, want 3 (retry budget exhausted)", n)
	}
}

// TestFigure5CollectAllPartialTable verifies the driver-level contract: a
// Figure 5 sweep with a bad cell still returns every healthy row, marks
// the failure, and the formatted output carries both.
func TestFigure5CollectAllPartialTable(t *testing.T) {
	repcache.Reset()
	clean, err := Figure5Sweep(context.Background(), sweep.Config{Workers: 1}, []string{"dedup"}, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	repcache.Reset()

	// Figure5Sweep owns its run function, so inject the failure through
	// its inputs: an unknown workload fails all eight of its cells while
	// dedup's eight complete.
	cfg := sweep.Config{Workers: 4, ErrorPolicy: sweep.CollectAll}
	res, err := Figure5Sweep(context.Background(), cfg, []string{"dedup", "nosuchworkload"}, 2000, 42)
	if err == nil {
		t.Fatal("unknown workload did not fail")
	}
	if res == nil {
		t.Fatal("partial result is nil")
	}
	if len(res.Rows) != len(clean.Rows) {
		t.Fatalf("partial rows = %d, want %d healthy rows", len(res.Rows), len(clean.Rows))
	}
	if !reflect.DeepEqual(res.Rows, clean.Rows) {
		t.Fatal("healthy rows differ from clean run")
	}
	if len(res.Failed) != 8 {
		t.Fatalf("failed cells = %d, want 8", len(res.Failed))
	}
	for _, c := range res.Failed {
		if c.Err == "" {
			t.Errorf("failed cell %s has no cause", c.Key)
		}
	}
	formatted := FormatFigure5(res)
	if !strings.Contains(formatted, "FAILED cells (8):") ||
		!strings.Contains(formatted, "nosuchworkload/4K/agile") {
		t.Errorf("formatted partial figure missing failure section:\n%s", formatted)
	}
}

// TestInterruptLeavesDiskCachesIntact simulates ^C mid-sweep with the
// report disk tier enabled and proves it is not corrupted: a fresh run
// over the same directory completes with zero disk write errors and
// reproduces the clean baseline exactly.
func TestInterruptLeavesDiskCachesIntact(t *testing.T) {
	const accesses, seed = 2000, 43

	repcache.Reset()
	workload.ResetStreamCache()
	clean, err := Figure5Sweep(context.Background(), sweep.Config{Workers: 1}, []string{"dedup"}, accesses, seed)
	if err != nil {
		t.Fatal(err)
	}

	if err := repcache.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		repcache.SetDir("")
		repcache.Reset()
		workload.ResetStreamCache()
	}()
	repcache.Reset()
	workload.ResetStreamCache()

	// Interrupt after two cells: the external cancellation stops the sweep
	// mid-flight while disk writes are underway.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := sweep.Config{
		Workers: 2,
		OnProgress: func(p sweep.Progress) {
			if p.Done >= 2 {
				cancel()
			}
		},
	}
	if _, err := Figure5Sweep(ctx, cfg, []string{"dedup"}, accesses, seed); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep err = %v, want context.Canceled", err)
	}

	// A fresh process over the same cache directory: memory tiers drop,
	// the disk tier must serve whatever the interrupted run persisted and
	// re-simulate the rest, reproducing the clean rows exactly.
	repcache.Reset()
	workload.ResetStreamCache()
	after, err := Figure5Sweep(context.Background(), sweep.Config{Workers: 1}, []string{"dedup"}, accesses, seed)
	if err != nil {
		t.Fatal(err)
	}
	if n := repcache.Info().DiskErrors; n != 0 {
		t.Errorf("report disk cache: %d errors after interrupt", n)
	}
	if !reflect.DeepEqual(after.Rows, clean.Rows) {
		t.Fatal("post-interrupt rows differ from the clean baseline")
	}
	if a, b := FormatFigure5(after), FormatFigure5(clean); a != b {
		t.Fatalf("formatted output differs after interrupt:\n--- after ---\n%s\n--- clean ---\n%s", a, b)
	}
}
