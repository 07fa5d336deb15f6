package repcache

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"agilepaging/internal/cpu"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
	"agilepaging/internal/workload"
)

// sampleReport builds a report with enough distinct state to catch a field
// that fails to round-trip. IdealCycles deliberately exceeds 2^53 — the
// precision cliff a float64 (JSON) encoding would fall off.
func sampleReport(i int) cpu.Report {
	var rep cpu.Report
	rep.Workload = fmt.Sprintf("sample-%d", i)
	rep.PageSize = pagetable.Size4K
	rep.Machine.Accesses = uint64(1_000_000 + i)
	rep.Machine.TLBMisses = uint64(5_000 + i)
	rep.IdealCycles = (1 << 54) + uint64(i)
	rep.WalkCycles = uint64(77_777 + i)
	rep.VMMCycles = uint64(3_333 + i)
	rep.RefsP50 = 4
	rep.RefsP95 = 24
	rep.RefsMax = 35 + i
	return rep
}

func sampleConfig() cpu.Config {
	return cpu.Config{Technique: 1, PageSize: pagetable.Size4K, MemBytes: 1 << 30}
}

func sampleProfile() workload.Profile {
	return workload.Profile{Name: "t", FootprintBytes: 1 << 24, Processes: 1, Threads: 1}
}

// reset restores pristine default cache state for a test and registers the
// same restoration as cleanup so tests never leak state into each other.
func reset(t *testing.T) {
	t.Helper()
	restore := func() {
		Reset()
		SetBudget(DefaultBudgetBytes)
		setDir(t, "")
	}
	restore()
	t.Cleanup(restore)
}

func TestKeyForDistinguishesInputs(t *testing.T) {
	cfg, prof := sampleConfig(), sampleProfile()
	base := KeyFor(cfg, prof, 1000, 500, 42)

	perturb := map[string]string{}
	add := func(name, key string) {
		if key == base {
			t.Errorf("%s: key did not change", name)
		}
		if prev, ok := perturb[key]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		perturb[key] = name
	}

	c := cfg
	c.Technique = 2
	add("technique", KeyFor(c, prof, 1000, 500, 42))
	c = cfg
	c.PageSize = pagetable.Size2M
	add("page size", KeyFor(c, prof, 1000, 500, 42))
	c = cfg
	c.HardwareAD = !c.HardwareAD
	add("hardware A/D", KeyFor(c, prof, 1000, 500, 42))
	c = cfg
	c.TrapCosts.Cycles[0] += 100
	add("trap cost", KeyFor(c, prof, 1000, 500, 42))
	p := prof
	p.ZipfS = 1.25
	add("profile zipf", KeyFor(cfg, p, 1000, 500, 42))
	p = prof
	p.Name = "other"
	add("profile name", KeyFor(cfg, p, 1000, 500, 42))
	add("accesses", KeyFor(cfg, prof, 2000, 500, 42))
	add("warmup", KeyFor(cfg, prof, 1000, 0, 42))
	add("seed", KeyFor(cfg, prof, 1000, 500, 43))
}

func TestKeyForNormalizes(t *testing.T) {
	cfg, prof := sampleConfig(), sampleProfile()
	base := KeyFor(cfg, prof, 1000, 500, 42)

	// Zero Cores/Processes/Threads normalize to 1: the machines and streams
	// built from either form are identical, so the cells must share a key.
	c := cfg
	c.Cores = 0
	cz := cfg
	cz.Cores = 1
	if KeyFor(c, prof, 1000, 500, 42) != KeyFor(cz, prof, 1000, 500, 42) {
		t.Error("Cores 0 and 1 should share a key")
	}
	p := prof
	p.Processes, p.Threads = 0, 0
	if KeyFor(cfg, p, 1000, 500, 42) != base {
		t.Error("Processes/Threads 0 and 1 should share a key")
	}
}

// TestKeyForOpsCoversEveryOpField perturbs each field of one op in turn
// (walking the struct by reflection, so a field added to workload.Op
// without being encoded fails here) and requires a distinct key each time.
func TestKeyForOpsCoversEveryOpField(t *testing.T) {
	cfg := sampleConfig()
	ops := []workload.Op{
		{Kind: workload.OpCreateProcess},
		{Kind: workload.OpMmap, PID: 1, Core: 1, VA: 0x4000_0000, Len: 1 << 20, Size: pagetable.Size4K, N: 3},
		{Kind: workload.OpAccess, VA: 0x4000_1000},
	}
	base := KeyForOps(cfg, "ops", ops)
	seen := map[string]string{base: "base"}
	typ := reflect.TypeOf(workload.Op{})
	for i := 0; i < typ.NumField(); i++ {
		mod := append([]workload.Op(nil), ops...)
		f := reflect.ValueOf(&mod[1]).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("field %s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
		}
		key := KeyForOps(cfg, "ops", mod)
		if prev, ok := seen[key]; ok {
			t.Errorf("changing %s gives the key of %s", typ.Field(i).Name, prev)
		}
		seen[key] = typ.Field(i).Name
	}
	if KeyForOps(cfg, "ops", ops[:2]) == base {
		t.Error("dropping an op did not change the key")
	}
	if KeyForOps(cfg, "other", ops) == base {
		t.Error("the cell name did not change the key")
	}
	c := cfg
	c.HardwareAD = !c.HardwareAD
	if KeyForOps(c, "ops", ops) == base {
		t.Error("the machine configuration did not change the key")
	}
	if KeyForOps(cfg, "ops", append([]workload.Op(nil), ops...)) != base {
		t.Error("equal op lists keyed differently")
	}
}

// TestDoOpsMemoizes runs one op cell twice: the first simulates, the second
// is a hit, and both equal a direct replay on a fresh machine.
func TestDoOpsMemoizes(t *testing.T) {
	reset(t)
	cfg := cpu.DefaultConfig(walker.ModeShadow, pagetable.Size4K)
	ops := []workload.Op{
		{Kind: workload.OpCreateProcess},
		{Kind: workload.OpCtxSwitch},
		{Kind: workload.OpMmap, VA: 0x4000_0000, Len: 64 << 12, Size: pagetable.Size4K},
	}
	for p := uint64(0); p < 64; p++ {
		ops = append(ops, workload.Op{Kind: workload.OpAccess, VA: 0x4000_0000 + p<<12, Write: p%3 == 0})
	}
	m, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunOps(ops, 0); err != nil {
		t.Fatal(err)
	}
	want := m.Report("cell")
	for i := 0; i < 2; i++ {
		got, err := DoOps(cfg, "cell", ops)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: DoOps report differs from a direct replay", i)
		}
	}
	if hits, misses, _ := Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestDoHitMissStats(t *testing.T) {
	reset(t)
	var computes atomic.Int64
	compute := func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(1), nil
	}

	first, err := Do("k1", compute)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Do("k1", compute)
	if err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached report differs from computed report")
	}
	if _, err := Do("k2", compute); err != nil {
		t.Fatal(err)
	}
	hits, misses, deduped := Stats()
	if hits != 1 || misses != 2 || deduped != 0 {
		t.Fatalf("stats = %d hits / %d misses / %d deduped, want 1/2/0", hits, misses, deduped)
	}
	if info := Info(); info.Reports != 2 || info.Bytes <= 0 {
		t.Fatalf("footprint = %d reports / %d bytes", info.Reports, info.Bytes)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	reset(t)
	fail := errors.New("boom")
	var computes atomic.Int64
	_, err := Do("k", func() (cpu.Report, error) {
		computes.Add(1)
		return cpu.Report{}, fail
	})
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v, want %v", err, fail)
	}
	rep, err := Do("k", func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(7), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep != sampleReport(7) {
		t.Fatal("retry after error returned wrong report")
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2 (error must not be cached)", n)
	}
}

func TestBudgetZeroDisables(t *testing.T) {
	reset(t)
	SetBudget(0)
	var computes atomic.Int64
	for i := 0; i < 3; i++ {
		if _, err := Do("k", func() (cpu.Report, error) {
			computes.Add(1)
			return sampleReport(0), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := computes.Load(); n != 3 {
		t.Fatalf("compute ran %d times with cache disabled, want 3", n)
	}
	if info := Info(); info.Reports != 0 || info.Hits != 0 {
		t.Fatalf("disabled cache stored %d reports, %d hits", info.Reports, info.Hits)
	}
}

func TestEvictionLRU(t *testing.T) {
	reset(t)
	perEntry := reportBaseBytes + entryOverhead + 64 // generous per-entry estimate
	SetBudget(3 * perEntry)

	store := func(key string, i int) {
		t.Helper()
		if _, err := Do(key, func() (cpu.Report, error) { return sampleReport(i), nil }); err != nil {
			t.Fatal(err)
		}
	}
	store("a", 1)
	store("b", 2)
	store("c", 3)
	store("a", 1) // touch a: b is now least recently used
	store("d", 4) // must evict b
	var computes atomic.Int64
	store("d", 4)
	if _, err := Do("b", func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(2), nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatal("b should have been evicted as LRU and recomputed")
	}
	if info := Info(); info.Bytes > 3*perEntry {
		t.Fatalf("cache holds %d bytes over budget %d", info.Bytes, 3*perEntry)
	}
}

func TestResetClearsEverything(t *testing.T) {
	reset(t)
	if _, err := Do("k", func() (cpu.Report, error) { return sampleReport(0), nil }); err != nil {
		t.Fatal(err)
	}
	Reset()
	if info := Info(); info != (Snapshot{}) {
		t.Fatalf("after Reset, Info() = %+v, want zero", info)
	}
	var computes atomic.Int64
	if _, err := Do("k", func() (cpu.Report, error) {
		computes.Add(1)
		return sampleReport(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatal("Reset did not drop the stored report")
	}
}

// TestConcurrentSingleflight is the singleflight contract under -race: many
// goroutines asking for the same small key set run exactly one simulation
// per key and all observe identical reports.
func TestConcurrentSingleflight(t *testing.T) {
	reset(t)
	const goroutines, keys = 32, 4
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	results := make([][keys]cpu.Report, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				rep, err := Do(fmt.Sprintf("key-%d", k), func() (cpu.Report, error) {
					computes[k].Add(1)
					return sampleReport(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				results[g][k] = rep
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
		for g := 0; g < goroutines; g++ {
			if results[g][k] != sampleReport(k) {
				t.Errorf("goroutine %d key %d got wrong report", g, k)
			}
		}
	}
	info := Info()
	if info.Misses != keys {
		t.Errorf("misses = %d, want %d", info.Misses, keys)
	}
	if info.Hits+info.Deduped != goroutines*keys-keys {
		t.Errorf("hits+deduped = %d, want %d", info.Hits+info.Deduped, goroutines*keys-keys)
	}
}
