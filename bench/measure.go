package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"agilepaging/internal/cpu"
	"agilepaging/internal/experiments"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/repcache"
	"agilepaging/internal/stats"
	"agilepaging/internal/sweep"
	"agilepaging/internal/workload"
)

// params fixes everything a run's inputs and length depend on.
type params struct {
	seed          int64
	paperAccesses int     // measured accesses per paper cell (Ablations use half)
	execAccesses  int     // measured accesses per exec cell
	seconds       float64 // timed reps run until this much time has passed
	setupRuns     int     // set-ups per untraced run; setup_s is their median
	traced        bool
	tracedReps    int // reps per phase of a traced run, after one set-up
	// minCells is the fewest cell times an untraced phase collects, so that
	// sweep.cell_ms_p95 has at least ten samples beyond it.
	minCells int
	// expected maps a workload family to the digest its reps must produce;
	// a family without an entry must only reproduce its own first rep.
	expected map[string]string
}

// metricKind says where a metric is reported: end-to-end metrics make up
// the result of an untraced run, per-layer metrics that of a traced run,
// diagnostics only ever appear as text.
type metricKind int

const (
	endToEnd metricKind = iota
	perLayer
	diagnostic
)

type metric struct {
	name  string
	value float64
	unit  string
	kind  metricKind
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload in this process.
type bench struct {
	p    params
	w    workloadDef
	tr   *tracer // non-nil during the traced phase
	reps int
	ref  string // digest of the first rep, when no digest is expected
	// declared holds the cells each paper driver declared, so a driver
	// that fails before completing a cell counts them all. Figure 5's are
	// known up front.
	declared map[string]int

	cells, failed int
	errs          []error
}

func newBench(p params, w workloadDef) *bench {
	b := &bench{p: p, w: w, declared: map[string]int{}}
	if w.family == "paper" {
		b.declared["Figure5Sweep"] = len(b.grid())
	}
	return b
}

// runRep runs one rep and checks its output.
func (b *bench) runRep(ctx context.Context) *repRun {
	if b.w.before != nil {
		b.w.before()
	}
	b.reps++
	r := &repRun{p: b.p, tr: b.tr, id: b.reps, workers: b.w.workers, declared: b.declared}
	rc0, sc0, pool0 := repcache.Info(), workload.StreamCacheInfo(), readPool()
	start := time.Now()
	r.parent = b.tr.begin("rep", b.w.name, 0, r.id)
	b.w.rep(ctx, r)
	b.tr.end(r.parent)
	r.wall = time.Since(start)
	rc1, sc1, pool1 := repcache.Info(), workload.StreamCacheInfo(), readPool()
	r.rc = repcache.Snapshot{
		Hits: rc1.Hits - rc0.Hits, Misses: rc1.Misses - rc0.Misses, Deduped: rc1.Deduped - rc0.Deduped,
		Bytes: rc1.Bytes,
	}
	r.sc = workload.StreamCacheSnapshot{
		Hits: sc1.Hits - sc0.Hits, Misses: sc1.Misses - sc0.Misses,
		Bytes: sc1.Bytes,
	}
	r.pool = poolStats{pool1.hits - pool0.hits, pool1.built - pool0.built, pool1.retired - pool0.retired}
	b.check(r)
	return r
}

// check applies the per-cell invariants and the rep's digest. A rep whose
// digest is wrong fails every one of its cells.
func (b *bench) check(r *repRun) {
	for _, rep := range r.reports {
		if err := checkReport(rep, b.w.accesses(b.p)); err != nil {
			r.fail(1, err)
		}
	}
	r.digest = digestOf([]byte(r.out.String()))
	r.out.Reset()
	want := b.p.expected[b.w.family]
	if want == "" {
		if b.ref == "" {
			b.ref = r.digest
		}
		want = b.ref
	}
	if r.digest != want {
		r.failed = r.cells
		r.errs = append(r.errs, fmt.Errorf("rep %d output digest %.12s, want %.12s", r.id, r.digest, want))
	}
	b.cells += r.cells
	b.failed += r.failed
	b.errs = append(b.errs, r.errs...)
}

// phase aggregates the reps of one timed phase.
type phase struct {
	refs    []float64 // rep times in reference seconds
	walls   []float64 // rep wall times in seconds
	calibs  []float64 // reference-loop times in ms
	alloc   uint64
	wallSum time.Duration
	cellMS  []float64
	jobTime time.Duration
	jobs    int
	deduped int
	rc      repcache.Snapshot
	sc      workload.StreamCacheSnapshot
	pool    poolStats
	drivers []driverTime
	funnel  funnelStats
	last    *repRun
}

func (ph *phase) add(r *repRun, calib time.Duration) {
	ph.refs = append(ph.refs, refSeconds(r.wall, calib))
	ph.walls = append(ph.walls, r.wall.Seconds())
	ph.calibs = append(ph.calibs, millis(calib))
	ph.wallSum += r.wall
	for _, d := range r.cellDurs {
		ph.cellMS = append(ph.cellMS, millis(d))
	}
	ph.jobTime += r.jobTime
	ph.jobs += r.jobs
	ph.deduped += r.deduped
	ph.rc.Hits += r.rc.Hits
	ph.rc.Misses += r.rc.Misses
	ph.rc.Deduped += r.rc.Deduped
	ph.rc.Bytes += r.rc.Bytes
	ph.sc.Hits += r.sc.Hits
	ph.sc.Misses += r.sc.Misses
	ph.sc.Bytes += r.sc.Bytes
	ph.pool.hits += r.pool.hits
	ph.pool.built += r.pool.built
	ph.pool.retired += r.pool.retired
	if ph.drivers == nil {
		ph.drivers = make([]driverTime, len(r.drivers))
	}
	for i, d := range r.drivers {
		ph.drivers[i].name = d.name
		ph.drivers[i].d += d.d
	}
	ph.funnel = addFunnel(ph.funnel, r.funnel)
	ph.last = r
}

// runPhase runs reps back to back until seconds have passed, at least
// minReps (≥ 1) reps have run and minCells cells have completed, unless the
// reps complete none. Between reps it collects the heap, so every rep
// starts from the same state, and times the reference loop; each rep is
// scaled by the mean of the loop times before and after it.
func (b *bench) runPhase(ctx context.Context, seconds float64, minReps, minCells int) *phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := &phase{}
	calib := calibrate()
	start := time.Now()
	for len(ph.walls) < minReps || time.Since(start).Seconds() < seconds ||
		len(ph.cellMS) < minCells && len(ph.last.cellDurs) > 0 {
		r := b.runRep(ctx)
		runtime.GC()
		next := calibrate()
		ph.add(r, (calib+next)/2)
		calib = next
	}
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	return ph
}

// setUp resets every process-wide cache and runs one untimed rep, which
// primes the caches the timed reps use; it returns the set-up's time in
// reference seconds and in seconds.
func (b *bench) setUp(ctx context.Context) (ref, wall float64) {
	runtime.GC()
	before := calibrate()
	start := time.Now()
	resetCaches()
	b.runRep(ctx)
	d := time.Since(start)
	runtime.GC()
	return refSeconds(d, (before+calibrate())/2), d.Seconds()
}

// runWorkload runs one workload. Untraced, that is p.setupRuns set-ups and
// p.seconds of timed reps. Traced, it is one set-up, p.tracedReps untraced
// reps (more if they time fewer than p.minCells cells) as the overhead
// baseline, p.tracedReps traced reps, and the probes: the per-layer metrics
// carry no bound, so a few reps suffice. It writes every
// metric as a "workload metric value unit" line and then the result as one
// JSON line. A non-empty chromePath receives the traced run's spans.
func runWorkload(ctx context.Context, out io.Writer, w workloadDef, p params, chromePath string) (result, error) {
	b := newBench(p, w)
	setups, seconds, minReps := p.setupRuns, p.seconds, 1
	if p.traced {
		setups, seconds, minReps = 1, 0, p.tracedReps
	}
	var setup, setupWall []float64
	for i := 0; i < setups; i++ {
		ref, wall := b.setUp(ctx)
		setup = append(setup, ref)
		setupWall = append(setupWall, wall)
	}
	un := b.runPhase(ctx, seconds, minReps, p.minCells)
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	q := stats.Percentiles(un.refs, 0.10, 0.25, 0.5, 0.75)
	wq := stats.Percentiles(un.walls, 0.10, 0.5)
	n := float64(len(un.walls))
	ms := []metric{
		{"rep_s", q[0], "s", endToEnd},
		{"setup_s", median(setup), "s", endToEnd},
		{"alloc_mib_per_rep", float64(un.alloc) / n / (1 << 20), "MiB", endToEnd},
		{"peak_rss_mib", rss, "MiB", endToEnd},
		{"rep_s_p25", q[1], "s", diagnostic},
		{"rep_s_p50", q[2], "s", diagnostic},
		{"rep_s_p75", q[3], "s", diagnostic},
		{"rep_wall_s_p10", wq[0], "s", diagnostic},
		{"rep_wall_s_p50", wq[1], "s", diagnostic},
		{"setup_wall_s", median(setupWall), "s", diagnostic},
		{"calib_ms", median(un.calibs), "ms", diagnostic},
		{"reps", n, "count", diagnostic},
		{"setups", float64(len(setup)), "count", diagnostic},
	}
	ms = append(ms, b.layerMetrics(un)...)

	if p.traced {
		b.tr = newTracer()
		tp := b.runPhase(ctx, 0, p.tracedReps, 0)
		f := tp.funnel
		if w.family == "paper" {
			f = b.funnelProbe(un.last)
		}
		keyUS, genMS := b.keyProbe(), b.genProbe()
		ms = append(ms,
			metric{"repcache.key_us", keyUS, "us", perLayer},
			metric{"workload.gen_ms", genMS, "ms", perLayer},
			metric{"workload.next_ms", perCell(f.next, f.cells) / 1e6, "ms", perLayer},
			metric{"cpu.acquire_us", perCell(f.acquire, f.cells) / 1e3, "us", perLayer},
			metric{"cpu.exec_ms", perCell(f.runOps, f.cells) / 1e6, "ms", perLayer},
			metric{"cpu.exec_ns_per_access", ratio(float64(f.runOps.Nanoseconds()), float64(f.accesses)), "ns", perLayer},
			metric{"cpu.report_us", perCell(f.report, f.cells) / 1e3, "us", perLayer},
			metric{"ptwc.hit_ratio", ratio(float64(f.pwc.Hits), float64(f.pwc.Lookups)), "ratio", perLayer},
			metric{"ptwc.ntlb_hit_ratio", ratio(float64(f.ntlb.Hits), float64(f.ntlb.Lookups)), "ratio", perLayer},
			metric{"trace.overhead_frac", stats.Percentiles(tp.refs, 0.10)[0]/q[0] - 1, "ratio", perLayer},
			metric{"trace.reps", float64(len(tp.walls)), "count", diagnostic},
			metric{"trace.spans", float64(len(b.tr.spans)), "count", diagnostic},
		)
		self := b.tr.selfTimes()
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			ms = append(ms, metric{"trace.self_ms." + l, millis(self[l]) / float64(len(tp.walls)), "ms", diagnostic})
		}
		if chromePath != "" {
			if err := writeChromeFile(b.tr, chromePath); err != nil {
				return result{}, err
			}
		}
	}
	ms = append(ms, metric{"fail_ratio", ratio(float64(b.failed), float64(b.cells)), "ratio", diagnostic})

	res := result{Correct: b.failed == 0, Attempted: b.cells, Failed: b.failed, Metrics: map[string]resultMetric{}}
	want := endToEnd
	if p.traced {
		want = perLayer
	}
	bw := bufio.NewWriter(out)
	for _, m := range ms {
		fmt.Fprintf(bw, "%s %s %s %s\n", w.name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		if m.kind == want {
			res.Metrics[m.name] = resultMetric{m.value, m.unit}
		}
	}
	for i, err := range b.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "%s: ... %d more failures\n", w.name, len(b.errs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return res, bw.Flush()
}

// layerMetrics derives the per-layer metrics an untraced phase yields:
// sweep, cache and pool counters per rep, the driver split, and the exact
// work counts of the cells a rep simulates.
func (b *bench) layerMetrics(ph *phase) []metric {
	n := float64(len(ph.walls))
	per := func(v uint64) float64 { return float64(v) / n }
	cell := stats.Percentiles(ph.cellMS, 0.5, 0.95)
	asks := ph.rc.Hits + ph.rc.Misses + ph.rc.Deduped
	ms := []metric{
		{"sweep.cell_ms_p50", cell[0], "ms", perLayer},
		{"sweep.cell_ms_p95", cell[1], "ms", perLayer},
		{"sweep.cells", float64(len(ph.cellMS)), "count", diagnostic},
		{"sweep.idle_frac", 1 - ratio(float64(ph.jobTime), float64(b.w.workers)*float64(ph.wallSum)), "ratio", perLayer},
		{"sweep.jobs", float64(ph.jobs) / n, "count", perLayer},
		{"sweep.deduped", float64(ph.deduped) / n, "count", perLayer},
		{"repcache.hits", per(ph.rc.Hits), "count", perLayer},
		{"repcache.misses", per(ph.rc.Misses), "count", perLayer},
		{"repcache.inflight", per(ph.rc.Deduped), "count", perLayer},
		{"repcache.hit_ratio", ratio(float64(ph.rc.Hits), float64(asks)), "ratio", perLayer},
		{"repcache.bytes", float64(ph.rc.Bytes) / n, "B", perLayer},
		{"workload.streams_generated", per(ph.sc.Misses), "count", perLayer},
		{"workload.stream_hits", per(ph.sc.Hits), "count", perLayer},
		{"workload.packed_bytes", float64(ph.sc.Bytes) / n, "B", perLayer},
		{"cpu.pool_hits", per(ph.pool.hits), "count", perLayer},
		{"cpu.pool_built", per(ph.pool.built), "count", perLayer},
		{"cpu.pool_retired", per(ph.pool.retired), "count", perLayer},
	}
	for _, d := range ph.drivers {
		ms = append(ms, metric{"experiments.driver_ms." + d.name, millis(d.d) / n, "ms", diagnostic})
	}
	return append(ms, workMetrics(ph.last.reports)...)
}

// workMetrics sums the exact work counters and the simulated-time model
// over one rep's cells. They repeat exactly from rep to rep and must not
// move in a change that only makes the simulator faster or smaller.
func workMetrics(reports []cpu.Report) []metric {
	var (
		lookups, l1, misses, flushes, walks, refs, fullNested uint64
		traps, trapCycles, faults, wpFaults, ctxSwitches      uint64
		toNested, toShadow, dirtyScans                        uint64
		accesses, ideal, walk, vmm                            uint64
		rows                                                  []experiments.Figure5Row
	)
	for _, r := range reports {
		lookups += r.TLB.Lookups
		l1 += r.TLB.L1Hits
		misses += r.TLB.Misses
		flushes += r.TLB.Flushes
		walks += r.Walker.Walks
		refs += r.Walker.Refs
		fullNested += r.Walker.FullNested
		traps += r.VMM.TotalTraps()
		trapCycles += r.VMM.TrapCycles
		faults += r.OS.PageFaults
		wpFaults += r.Machine.WriteProtFaults
		ctxSwitches += r.OS.CtxSwitches
		toNested += r.Agile.SwitchesToNested
		toShadow += r.Agile.SwitchesToShadow
		dirtyScans += r.Agile.DirtyScans
		accesses += r.Machine.Accesses
		ideal += r.IdealCycles
		walk += r.WalkCycles
		vmm += r.VMMCycles
		rows = append(rows, experiments.Figure5Row{
			Workload: r.Workload, PageSize: r.PageSize, Technique: r.Technique,
			WalkOv: r.WalkOverhead(), VMMOv: r.VMMOverhead(),
		})
	}
	head := experiments.Headline(&experiments.Figure5Result{Rows: rows})
	c := func(v uint64) float64 { return float64(v) }
	return []metric{
		{"tlb.lookups", c(lookups), "count", perLayer},
		{"tlb.l1_hit_ratio", ratio(c(l1), c(lookups)), "ratio", perLayer},
		{"tlb.misses", c(misses), "count", perLayer},
		{"tlb.flushes", c(flushes), "count", perLayer},
		{"walker.walks", c(walks), "count", perLayer},
		{"walker.refs_per_walk", ratio(c(refs), c(walks)), "refs", perLayer},
		{"walker.full_nested", c(fullNested), "count", perLayer},
		{"vmm.traps", c(traps), "count", perLayer},
		{"vmm.trap_cycles", c(trapCycles), "cycles", perLayer},
		{"guest.page_faults", c(faults), "count", perLayer},
		{"guest.wp_faults", c(wpFaults), "count", perLayer},
		{"guest.ctx_switches", c(ctxSwitches), "count", perLayer},
		{"core.to_nested", c(toNested), "count", perLayer},
		{"core.to_shadow", c(toShadow), "count", perLayer},
		{"core.dirty_scans", c(dirtyScans), "count", perLayer},
		{"model.cycles_per_access", ratio(c(ideal+walk+vmm), c(accesses)), "cycles", perLayer},
		{"model.walk_ov", ratio(c(walk), c(ideal)), "ratio", perLayer},
		{"model.vmm_ov", ratio(c(vmm), c(ideal)), "ratio", perLayer},
		{"model.agile_vs_best_4k_pct", 100 * head.GeoAgileVsBest4K, "%", perLayer},
	}
}

// grid declares the cells the probes cover: Figure 5 for the paper
// workloads, the rep's own cells for the exec workloads.
func (b *bench) grid() []sweep.Job[experiments.Options] {
	if b.w.family == "paper" {
		return figure5Jobs(workload.Names(), experiments.PageSizes(), b.p.paperAccesses, b.p.seed)
	}
	return figure5Jobs(b.w.profiles, []pagetable.Size{pagetable.Size4K}, b.p.execAccesses, b.p.seed)
}

// keyProbe times experiments.CellKey over the grid; it returns µs per call.
func (b *bench) keyProbe() float64 {
	const passes = 20
	jobs := b.grid()
	start := time.Now()
	for i := 0; i < passes; i++ {
		for _, j := range jobs {
			experiments.CellKey(j.Workload, j.Options)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(passes*len(jobs))
}

// genProbe generates and drains every distinct stream of the grid outside
// the stream cache; it returns ms per stream.
func (b *bench) genProbe() float64 {
	probe := b.tr.begin("probe.gen", "", 0, 0)
	defer b.tr.end(probe)
	type key struct {
		name string
		ps   pagetable.Size
	}
	seen := map[key]bool{}
	var total time.Duration
	for _, j := range b.grid() {
		k := key{j.Workload, j.Options.PageSize}
		if seen[k] {
			continue
		}
		seen[k] = true
		prof, _ := workload.ProfileByName(j.Workload)
		warm := j.Options.Accesses / 2
		start := time.Now()
		g := workload.New(prof, k.ps, warm+j.Options.Accesses, j.Options.Seed)
		for _, ok := g.Next(); ok; _, ok = g.Next() {
		}
		total += b.tr.since("workload.gen", probe, 0, start)
	}
	return perCell(total, len(seen)) / 1e6
}

// funnelProbe replays the Figure 5 cells through the traced funnel (the
// paper drivers give the benchmark no way into their cells) and checks each
// report against the one Figure5Sweep returned in the last untraced rep.
func (b *bench) funnelProbe(last *repRun) funnelStats {
	r := &repRun{p: b.p, tr: b.tr}
	r.parent = b.tr.begin("probe.funnel", "", 0, 0)
	defer b.tr.end(r.parent)
	jobs := b.grid()
	b.cells += len(jobs)
	for i, j := range jobs {
		rep, err := r.tracedCell(j.Workload, j.Options, j.Key)
		if err == nil && (i >= len(last.reports) || !sameReport(rep, last.reports[i])) {
			err = fmt.Errorf("%s: funnel report differs from Figure5Sweep's", j.Key)
		}
		if err != nil {
			b.failed++
			b.errs = append(b.errs, err)
		}
	}
	return r.funnel
}

func sameReport(a, b cpu.Report) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

func addFunnel(a, b funnelStats) funnelStats {
	a.cells += b.cells
	a.acquire += b.acquire
	a.next += b.next
	a.runOps += b.runOps
	a.report += b.report
	a.accesses += b.accesses
	a.pwc = addPWC(a.pwc, b.pwc)
	a.ntlb = addPWC(a.ntlb, b.ntlb)
	return a
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func writeChromeFile(t *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 { return stats.Percentiles(xs, 0.5)[0] }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func perCell(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
