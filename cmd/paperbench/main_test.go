package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"agilepaging"
	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/repcache"
	"agilepaging/internal/sweep"
	"agilepaging/internal/workload"
)

func TestParseArgsDefaults(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs(nil, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.parallel != 0 {
		t.Errorf("default parallel = %d, want 0 (one worker per CPU)", o.parallel)
	}
	if o.progress {
		t.Error("progress defaults to true")
	}
	if o.accesses != 120_000 || o.seed != 42 {
		t.Errorf("defaults: accesses=%d seed=%d", o.accesses, o.seed)
	}
	if o.workloads != nil {
		t.Errorf("default workloads = %v, want nil", o.workloads)
	}
}

func TestParseArgsParallelAndProgress(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs([]string{"-figure", "5", "-parallel", "8", "-progress",
		"-workloads", "dedup,mcf", "-accesses", "5000", "-seed", "7"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.parallel != 8 {
		t.Errorf("parallel = %d, want 8", o.parallel)
	}
	if !o.progress {
		t.Error("progress not set")
	}
	if o.figure != 5 || o.accesses != 5000 || o.seed != 7 {
		t.Errorf("parsed %+v", o)
	}
	if want := []string{"dedup", "mcf"}; !reflect.DeepEqual(o.workloads, want) {
		t.Errorf("workloads = %v, want %v", o.workloads, want)
	}
}

func TestParseArgsRejectsPositionalArgs(t *testing.T) {
	var errBuf bytes.Buffer
	if _, err := parseArgs([]string{"-all", "stray"}, &errBuf); err == nil {
		t.Fatal("positional argument accepted")
	}
}

func TestParseArgsRejectsUnknownFlag(t *testing.T) {
	var errBuf bytes.Buffer
	if _, err := parseArgs([]string{"-bogus"}, &errBuf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestSweepConfigProgressWiring(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs([]string{"-all", "-parallel", "3"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	var quiet bytes.Buffer
	cfg := o.sweepConfig(&quiet)
	if cfg.Workers != 3 {
		t.Errorf("Workers = %d, want 3", cfg.Workers)
	}
	// OnProgress is always installed (it feeds the interrupt report's
	// completion counter) but stays silent without -progress.
	if cfg.OnProgress == nil {
		t.Fatal("OnProgress nil; the interrupt report needs its counter")
	}
	before := completedSims.Load()
	cfg.OnProgress(sweep.Progress{Done: 1, Total: 4, Key: "x"})
	if quiet.Len() != 0 {
		t.Errorf("progress line printed without -progress: %q", quiet.String())
	}
	if got := completedSims.Load(); got != before+1 {
		t.Errorf("completedSims advanced by %d, want 1", got-before)
	}

	o2, err := parseArgs([]string{"-all", "-progress"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg2 := o2.sweepConfig(&out)
	if cfg2.OnProgress == nil {
		t.Fatal("OnProgress nil with -progress")
	}
	cfg2.OnProgress(sweep.Progress{Done: 3, Total: 64, Key: "dedup/4K/agile", Elapsed: 1500 * time.Millisecond})
	if got := out.String(); !strings.Contains(got, "[3/64]") || !strings.Contains(got, "dedup/4K/agile") {
		t.Errorf("progress line = %q", got)
	}
}

func TestParseArgsFailAndRetries(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs([]string{"-all"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.fail != "fast" || o.retries != 0 {
		t.Errorf("defaults: fail=%q retries=%d, want fast/0", o.fail, o.retries)
	}
	cfg := o.sweepConfig(&errBuf)
	if cfg.ErrorPolicy != sweep.FailFast || cfg.Retry.Attempts != 0 {
		t.Errorf("default sweep config: policy=%v retry=%+v", cfg.ErrorPolicy, cfg.Retry)
	}

	o, err = parseArgs([]string{"-all", "-fail", "collect", "-retries", "2"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	cfg = o.sweepConfig(&errBuf)
	if cfg.ErrorPolicy != sweep.CollectAll {
		t.Errorf("-fail collect: policy = %v", cfg.ErrorPolicy)
	}
	if cfg.Retry.Attempts != 2 || cfg.Retry.Backoff <= 0 {
		t.Errorf("-retries 2: retry = %+v", cfg.Retry)
	}

	if _, err := parseArgs([]string{"-all", "-fail", "eventually"}, &errBuf); err == nil {
		t.Error("-fail eventually accepted")
	}
	if _, err := parseArgs([]string{"-all", "-retries", "-3"}, &errBuf); err == nil {
		t.Error("-retries -3 accepted")
	}
}

func TestParseArgsStreamCache(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs(nil, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(workload.DefaultStreamCacheBytes >> 20); o.streamCacheMB != want {
		t.Errorf("default stream-cache = %d MiB, want %d", o.streamCacheMB, want)
	}
	o, err = parseArgs([]string{"-all", "-stream-cache", "0"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.streamCacheMB != 0 {
		t.Errorf("stream-cache = %d, want 0", o.streamCacheMB)
	}

	// The budget must round-trip into the workload package: 0 disables
	// sharing, positive budgets enable it.
	defer workload.SetStreamCacheBudget(workload.DefaultStreamCacheBytes)
	defer workload.ResetStreamCache()
	prof, _ := workload.ProfileByName("dedup")
	applyStreamCacheBudget(0)
	if workload.SharedStream(prof, pagetable.Size4K, 50, 1) == workload.SharedStream(prof, pagetable.Size4K, 50, 1) {
		t.Error("-stream-cache 0 did not disable sharing")
	}
	applyStreamCacheBudget(64)
	if workload.SharedStream(prof, pagetable.Size4K, 50, 1) != workload.SharedStream(prof, pagetable.Size4K, 50, 1) {
		t.Error("-stream-cache 64 did not enable sharing")
	}
}

func TestFormatStreamCacheStats(t *testing.T) {
	info := workload.StreamCacheSnapshot{Hits: 12, Misses: 4, Streams: 4, Bytes: 3 << 20}
	got := formatStreamCacheStats(info)
	if want := "stream cache: 12 hits, 4 generated, 4 streams, 3.0 MiB packed\n"; got != want {
		t.Errorf("stream cache line = %q, want %q", got, want)
	}
}

func TestParseArgsReportCache(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs(nil, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(repcache.DefaultBudgetBytes >> 20); o.reportCacheMB != want {
		t.Errorf("default report-cache = %d MiB, want %d", o.reportCacheMB, want)
	}
	if o.reportCacheDir != "" {
		t.Errorf("default report-cache-dir = %q, want disabled", o.reportCacheDir)
	}
	o, err = parseArgs([]string{"-all", "-report-cache", "0", "-report-cache-dir", "/tmp/reports"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if o.reportCacheMB != 0 {
		t.Errorf("report-cache = %d, want 0", o.reportCacheMB)
	}
	if o.reportCacheDir != "/tmp/reports" {
		t.Errorf("report-cache-dir = %q", o.reportCacheDir)
	}

	// The budget must round-trip into the repcache package: 0 disables
	// memoization (every Do computes), positive budgets enable it,
	// negative is unbounded.
	defer func() {
		repcache.Reset()
		repcache.SetBudget(repcache.DefaultBudgetBytes)
	}()
	repcache.Reset()
	applyReportCacheBudget(0)
	calls := 0
	compute := func() (cpu.Report, error) { calls++; return cpu.Report{}, nil }
	repcache.Do("paperbench-test", compute)
	repcache.Do("paperbench-test", compute)
	if calls != 2 {
		t.Errorf("-report-cache 0: %d computes, want 2 (memoization disabled)", calls)
	}
	applyReportCacheBudget(64)
	calls = 0
	repcache.Do("paperbench-test", compute)
	repcache.Do("paperbench-test", compute)
	if calls != 1 {
		t.Errorf("-report-cache 64: %d computes, want 1", calls)
	}
}

func TestFormatReportCacheStats(t *testing.T) {
	info := repcache.Snapshot{
		Hits: 9, Misses: 3, Deduped: 2, Reports: 3,
		DiskHits: 1, DiskMisses: 2, DiskErrors: 1,
	}
	got := formatReportCacheStats(info, false)
	if !strings.Contains(got, "9 hits") || !strings.Contains(got, "3 simulated") ||
		!strings.Contains(got, "2 deduped") {
		t.Errorf("memory line = %q", got)
	}
	if strings.Contains(got, "disk") {
		t.Errorf("disk line present without -report-cache-dir: %q", got)
	}
	got = formatReportCacheStats(info, true)
	if !strings.Contains(got, "report disk cache: 1 loaded, 2 simulated, 1 write errors") {
		t.Errorf("disk line = %q", got)
	}
}

// The -technique and -pagesize flags route through the facade's shared
// parsers; these tests pin the alias set the CLI documents.

func TestParseTechnique(t *testing.T) {
	for in, want := range map[string]string{
		"native": "native", "B": "native", "nested": "nested", "n": "nested",
		"Shadow": "shadow", "agile": "agile", "A": "agile",
	} {
		got, err := agilepaging.ParseTechnique(in)
		if err != nil {
			t.Errorf("ParseTechnique(%q): %v", in, err)
			continue
		}
		if got.String() != want {
			t.Errorf("ParseTechnique(%q) = %v, want %s", in, got, want)
		}
	}
	if _, err := agilepaging.ParseTechnique("zen"); err == nil {
		t.Error("bad technique accepted")
	}
}

func TestParsePageSize(t *testing.T) {
	for in, want := range map[string]string{
		"4K": "4K", "4kb": "4K", "2M": "2M", "2mb": "2M", "1g": "1G",
	} {
		got, err := agilepaging.ParsePageSize(in)
		if err != nil {
			t.Errorf("ParsePageSize(%q): %v", in, err)
			continue
		}
		if got.String() != want {
			t.Errorf("ParsePageSize(%q) = %v", in, got)
		}
	}
	if _, err := agilepaging.ParsePageSize("8M"); err == nil {
		t.Error("bad page size accepted")
	}
}

// TestParseArgsCellFlagsNeedRun pins that a flag configuring the -run cell
// is an error without -run, instead of being silently ignored by a table.
func TestParseArgsCellFlagsNeedRun(t *testing.T) {
	var errBuf bytes.Buffer
	values := map[string]string{
		"technique": "shadow", "pagesize": "2M", "warmup": "-1", "compare": "true",
		"json": "true", "no-mmu-caches": "true", "hw-ad": "true", "ctx-cache": "4",
	}
	for _, name := range cellFlags {
		arg := "-" + name + "=" + values[name]
		if _, err := parseArgs([]string{"-figure", "5", arg}, &errBuf); err == nil {
			t.Errorf("-figure 5 %s accepted", arg)
		}
		if _, err := parseArgs([]string{"-run", "dedup", arg}, &errBuf); err != nil {
			t.Errorf("-run dedup %s: %v", arg, err)
		}
	}
}

func TestParseArgsRejectsNonPositiveAccesses(t *testing.T) {
	var errBuf bytes.Buffer
	for _, args := range [][]string{
		{"-figure", "5", "-workloads", "dedup", "-accesses", "0"},
		{"-run", "dedup", "-accesses", "-5"},
	} {
		if _, err := parseArgs(args, &errBuf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, err := parseArgs([]string{"-run", "dedup", "-accesses", "1"}, &errBuf); err != nil {
		t.Errorf("-accesses 1: %v", err)
	}
}

// TestParseArgsRunCell pins the one Config -run builds from the cell
// flags, and the flags -compare and -json refuse.
func TestParseArgsRunCell(t *testing.T) {
	var errBuf bytes.Buffer
	o, err := parseArgs([]string{"-run", "mcf", "-technique", "shadow", "-pagesize", "2M",
		"-warmup", "-1", "-hw-ad", "-ctx-cache", "4", "-no-mmu-caches", "-accesses", "20000", "-seed", "7"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	want := agilepaging.Config{
		Workload: "mcf", Technique: agilepaging.Shadow, PageSize: agilepaging.Page2M,
		Accesses: 20000, Warmup: -1, Seed: 7,
		DisableMMUCaches: true, HardwareAD: true, CtxSwitchCacheEntries: 4,
	}
	if o.cell != want {
		t.Errorf("cell = %+v, want %+v", o.cell, want)
	}
	o, err = parseArgs([]string{"-run", "dedup", "-shsp"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !o.cell.SHSPBaseline {
		t.Error("-run -shsp did not select the SHSP baseline")
	}
	for _, args := range [][]string{
		{"-run", "mcf", "-compare", "-technique", "shadow"},
		{"-run", "mcf", "-compare", "-shsp"},
		{"-run", "mcf", "-compare", "-json"},
		{"-run", "mcf", "-compare", "-metrics", "m.csv"},
		{"-run", "mcf", "-json", "-walk-trace", "w.json"},
		{"-run", "mcf", "-shsp", "-technique", "nested"},
		{"-run", "mcf", "-technique", "zen"},
	} {
		if _, err := parseArgs(args, &errBuf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
