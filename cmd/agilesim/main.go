// Command agilesim runs one workload under one memory-virtualization
// configuration and prints the measurement report.
//
// Usage:
//
//	agilesim -workload dedup -technique agile -pagesize 4K
//	agilesim -workload mcf -compare            # all four techniques
//	agilesim -workload mcf -compare -fail collect -retries 2
//	agilesim -list                             # available workloads
//
// In -compare, SIGINT/SIGTERM interrupt gracefully: in-flight simulations
// finish, the completed-cell count and cache statistics go to stderr, and
// the process exits with status 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"agilepaging"
	"agilepaging/internal/cpu"
	"agilepaging/internal/repcache"
	"agilepaging/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "dedup", "workload name (see -list)")
		technique    = flag.String("technique", "agile", "native | nested | shadow | agile")
		pageSize     = flag.String("pagesize", "4K", "4K | 2M | 1G")
		accesses     = flag.Int("accesses", 120_000, "measured steady-phase accesses")
		warmup       = flag.Int("warmup", 0, "warmup accesses (0 = accesses/2, -1 = none)")
		seed         = flag.Int64("seed", 42, "random seed")
		compare      = flag.Bool("compare", false, "run all four techniques and compare")
		parallel     = flag.Int("parallel", 0, "simulations to run concurrently in -compare (0 = one per CPU, 1 = serial)")
		failPolicy   = flag.String("fail", "fast", "-compare error policy: 'fast' stops at the first failed cell, 'collect' runs every cell and reports all failures")
		retries      = flag.Int("retries", 0, "re-run a failed -compare cell up to this many extra times")
		list         = flag.Bool("list", false, "list available workloads")
		noCaches     = flag.Bool("no-mmu-caches", false, "disable page walk caches and nested TLB")
		hwAD         = flag.Bool("hw-ad", false, "enable the §IV hardware A/D optimization")
		ctxCache     = flag.Int("ctx-cache", 0, "entries in the §IV context-switch cache (0 = off)")
		shsp         = flag.Bool("shsp", false, "use the SHSP prior-work baseline instead of the agile manager (technique must be agile)")
		jsonOut      = flag.Bool("json", false, "emit the result as JSON")
		metrics      = flag.String("metrics", "", "write the epoch telemetry series to this file (.csv for CSV, else JSON)")
		metricsEpoch = flag.Int("metrics-epoch", 2000, "telemetry sampling interval in accesses")
		walkTrace    = flag.String("walk-trace", "", "write the last page walks as Chrome trace-event JSON to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		streamCache  = flag.Int64("stream-cache", workload.DefaultStreamCacheBytes>>20, "shared workload stream cache budget in MiB (0 disables sharing, -1 unbounded)")
		reportCache  = flag.Int64("report-cache", repcache.DefaultBudgetBytes>>20, "memoized simulation report cache budget in MiB (0 disables memoization, -1 unbounded)")
		reportDir    = flag.String("report-cache-dir", "", "persist simulation reports in this directory; a file is reused only by the same binary")
		machinePool  = flag.Int("machine-pool", cpu.DefaultMachinePoolCapacity, "idle simulated machines kept for reuse across runs (0 disables pooling)")
		progress     = flag.Bool("progress", false, "print machine-pool, stream-cache and report-cache statistics to stderr on exit")
	)
	flag.Parse()

	if *failPolicy != "fast" && *failPolicy != "collect" {
		fatal(fmt.Errorf("-fail %q: want 'fast' or 'collect'", *failPolicy))
	}
	if *retries < 0 {
		fatal(fmt.Errorf("-retries %d: want >= 0", *retries))
	}

	if *streamCache < 0 {
		workload.SetStreamCacheBudget(-1)
	} else {
		workload.SetStreamCacheBudget(*streamCache << 20)
	}
	if *reportCache < 0 {
		repcache.SetBudget(-1)
	} else {
		repcache.SetBudget(*reportCache << 20)
	}
	if err := repcache.SetDir(*reportDir); err != nil {
		fatal(fmt.Errorf("-report-cache-dir: %w", err))
	}
	cpu.SetMachinePoolCapacity(*machinePool)
	printCacheStats := func() {
		hits, misses, retired, idle := cpu.MachinePoolStats()
		fmt.Fprintf(os.Stderr, "machine pool: %d reused, %d built, %d retired, %d idle\n", hits, misses, retired, idle)
		info := workload.StreamCacheInfo()
		fmt.Fprintf(os.Stderr, "stream cache: %d hits, %d generated, %d streams, %.1f MiB packed\n",
			info.Hits, info.Misses, info.Streams, float64(info.Bytes)/(1<<20))
		rinfo := repcache.Info()
		fmt.Fprintf(os.Stderr, "report cache: %d hits, %d simulated, %d deduped, %d reports\n",
			rinfo.Hits, rinfo.Misses, rinfo.Deduped, rinfo.Reports)
		if *reportDir != "" {
			fmt.Fprintf(os.Stderr, "report disk cache: %d loaded, %d simulated, %d write errors\n",
				rinfo.DiskHits, rinfo.DiskMisses, rinfo.DiskErrors)
		}
	}
	if *progress {
		defer printCacheStats()
	}

	if *list {
		fmt.Println(strings.Join(agilepaging.Workloads(), "\n"))
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "agilesim: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "agilesim: -memprofile:", err)
			}
		}()
	}

	tech, err := agilepaging.ParseTechnique(*technique)
	if err != nil {
		fatal(err)
	}
	ps, err := agilepaging.ParsePageSize(*pageSize)
	if err != nil {
		fatal(err)
	}

	if *compare {
		// SIGINT/SIGTERM cancel the sweep; once the context is canceled the
		// handler is released so a second signal kills the process the
		// default way.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		go func() {
			<-ctx.Done()
			stopSignals()
		}()
		opts := agilepaging.RunAllOptions{
			Workers:    *parallel,
			CollectAll: *failPolicy == "collect",
			Retries:    *retries,
		}
		if opts.Retries > 0 {
			opts.RetryBackoff = 50 * time.Millisecond
		}
		results, completed, err := agilepaging.CompareWith(ctx, opts, *workloadName, ps, *accesses, *seed)
		if err != nil {
			if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
				done := 0
				for _, ok := range completed {
					if ok {
						done++
					}
				}
				fmt.Fprintf(os.Stderr, "agilesim: interrupted after %d of %d completed simulations\n",
					done, len(completed))
				printCacheStats()
				os.Exit(130)
			}
			// Under -fail collect the healthy cells still compare; print
			// them before reporting the failures.
			printComparison(results, completed)
			fatal(err)
		}
		printComparison(results, completed)
		return
	}

	if *metrics != "" || *walkTrace != "" {
		// Telemetry needs the experiments layer directly: the facade's
		// Result is an end-of-run aggregate, while the recorder and the
		// walk-event ring attach to the machine for the measured window.
		err := runWithTelemetry(telemetryRun{
			workload:  *workloadName,
			technique: *technique,
			pageSize:  *pageSize,
			accesses:  *accesses,
			warmup:    *warmup,
			seed:      *seed,
			noCaches:  *noCaches,
			hwAD:      *hwAD,
			ctxCache:  *ctxCache,
			shsp:      *shsp,
			metrics:   *metrics,
			epochLen:  *metricsEpoch,
			walkTrace: *walkTrace,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	res, err := agilepaging.Run(agilepaging.Config{
		Workload:              *workloadName,
		Technique:             tech,
		PageSize:              ps,
		Accesses:              *accesses,
		Warmup:                *warmup,
		Seed:                  *seed,
		DisableMMUCaches:      *noCaches,
		HardwareAD:            *hwAD,
		CtxSwitchCacheEntries: *ctxCache,
		SHSPBaseline:          *shsp,
	})
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	printResult(res)
}

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "agilesim:", err)
	os.Exit(1)
}
