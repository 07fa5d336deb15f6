package agilepaging

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"agilepaging/internal/repcache"
)

const testAccesses = 30_000

func TestRunBasic(t *testing.T) {
	res, err := Run(Config{
		Workload: "mcf", Technique: Shadow, PageSize: Page4K,
		Accesses: testAccesses, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses == 0 || res.TLBMisses == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.AvgRefsPerMiss < 1 || res.AvgRefsPerMiss > 4 {
		t.Errorf("shadow avg refs/miss = %.2f", res.AvgRefsPerMiss)
	}
	if res.TotalOverhead != res.WalkOverhead+res.VMMOverhead {
		t.Error("overhead decomposition inconsistent")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Workload: "unknown"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Config{Workload: "mcf", Accesses: -5}); err == nil {
		t.Error("negative accesses accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := Config{Workload: "astar", Technique: Agile, PageSize: Page4K, Accesses: testAccesses, Seed: 3}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestCompareOrderingAndShape(t *testing.T) {
	rs, _, err := Compare(context.Background(), RunAllOptions{},
		Config{Workload: "dedup", PageSize: Page4K, Accesses: testAccesses, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, tech := range Techniques() {
		if rs[i].Technique != tech {
			t.Errorf("result %d technique = %v, want %v", i, rs[i].Technique, tech)
		}
	}
	native, nested, shadow, agile := rs[0], rs[1], rs[2], rs[3]
	if native.VMExits != 0 || nested.VMExits != 0 {
		t.Error("native/nested must not exit to a VMM")
	}
	if shadow.VMExits == 0 {
		t.Error("shadow dedup should exit to the VMM")
	}
	if agile.VMExits >= shadow.VMExits {
		t.Errorf("agile exits %d not below shadow %d", agile.VMExits, shadow.VMExits)
	}
}

func TestRunAllMatchesSerialRuns(t *testing.T) {
	cfgs := []Config{
		{Workload: "dedup", Technique: Shadow, PageSize: Page4K, Accesses: testAccesses, Seed: 5},
		{Workload: "mcf", Technique: Agile, PageSize: Page2M, Accesses: testAccesses, Seed: 5},
		{Workload: "astar", Technique: Nested, PageSize: Page4K, Accesses: testAccesses, Seed: 5},
	}
	got, _, err := RunAll(context.Background(), RunAllOptions{}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("results = %d, want %d", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("RunAll[%d] differs from serial Run:\n%+v\n%+v", i, got[i], want)
		}
	}
}

func TestRunAllValidation(t *testing.T) {
	_, _, err := RunAll(context.Background(), RunAllOptions{}, []Config{
		{Workload: "dedup", Technique: Shadow},
		{Workload: ""},
		{Workload: "mcf", Accesses: -5},
	})
	if err == nil {
		t.Fatal("invalid configs accepted")
	}
	msg := err.Error()
	for _, want := range []string{"job 1", "empty workload", "job 2", "negative accesses"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	// Valid empty list is a no-op, not an error.
	if rs, _, err := RunAll(context.Background(), RunAllOptions{}, nil); err != nil || len(rs) != 0 {
		t.Errorf("RunAll(nil) = %v, %v", rs, err)
	}
}

func TestRunAllUnknownWorkloadNamesJob(t *testing.T) {
	// Unknown workloads pass validation (the registry owns that check) but
	// must fail with the job key attached for attribution.
	_, _, err := RunAll(context.Background(), RunAllOptions{}, []Config{
		{Workload: "dedup", Technique: Native, Accesses: 2000},
		{Workload: "nope", Technique: Native, Accesses: 2000},
	})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "job 1") || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q does not attribute the failing job", err)
	}
}

func TestRunAllWithCollectAll(t *testing.T) {
	cfgs := []Config{
		{Workload: "dedup", Technique: Shadow, PageSize: Page4K, Accesses: testAccesses, Seed: 5},
		{Workload: "nosuchworkload", Technique: Native, Accesses: 2000},
		{Workload: "mcf", Technique: Agile, PageSize: Page2M, Accesses: testAccesses, Seed: 5},
	}
	results, completed, err := RunAll(context.Background(), RunAllOptions{CollectAll: true}, cfgs)
	if err == nil {
		t.Fatal("bad cell not reported")
	}
	if !strings.Contains(err.Error(), "nosuchworkload") {
		t.Errorf("error %q does not name the failed cell", err)
	}
	if want := []bool{true, false, true}; !reflect.DeepEqual(completed, want) {
		t.Fatalf("completed = %v, want %v", completed, want)
	}
	// Healthy cells survive the bad one and match serial Run exactly.
	for _, i := range []int{0, 2} {
		want, err := Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Errorf("results[%d] differs from serial Run:\n%+v\n%+v", i, results[i], want)
		}
	}
	if (results[1] != Result{}) {
		t.Errorf("failed slot holds a result: %+v", results[1])
	}

	// The default fail-fast policy reports the failure too, just without
	// the guarantee that the other cells ran.
	if _, _, err := RunAll(context.Background(), RunAllOptions{}, cfgs); err == nil {
		t.Error("fail-fast run did not report the bad cell")
	}
}

func TestCompareWithShape(t *testing.T) {
	results, completed, err := Compare(context.Background(), RunAllOptions{Workers: 2},
		Config{Workload: "dedup", PageSize: Page4K, Accesses: testAccesses, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || len(completed) != 4 {
		t.Fatalf("shape = %d results, %d completed", len(results), len(completed))
	}
	for i, ok := range completed {
		if !ok {
			t.Errorf("cell %d not completed on a clean run", i)
		}
		if results[i].Technique != Techniques()[i] {
			t.Errorf("cell %d technique = %v", i, results[i].Technique)
		}
	}
}

// TestCompareHonoursKnobs pins that Compare runs the whole Config under
// each technique: the §IV knobs and MMU-cache switch reach every slot, so
// the comparison equals one Run per technique on the same Config.
func TestCompareHonoursKnobs(t *testing.T) {
	cfg := Config{
		Workload: "dedup", PageSize: Page4K, Accesses: 8000, Warmup: -1, Seed: 5,
		HardwareAD: true, DisableMMUCaches: true, CtxSwitchCacheEntries: 8,
	}
	got, _, err := Compare(context.Background(), RunAllOptions{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tech := range Techniques() {
		one := cfg
		one.Technique = tech
		want, err := Run(one)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("Compare[%s] differs from Run on the same Config:\n%+v\n%+v", tech, got[i], want)
		}
	}
}

func TestTechniqueAndPageSizeStrings(t *testing.T) {
	names := map[Technique]string{Native: "native", Nested: "nested", Shadow: "shadow", Agile: "agile"}
	for tech, want := range names {
		if tech.String() != want {
			t.Errorf("%d.String() = %s", int(tech), tech.String())
		}
	}
	if Page4K.String() != "4K" || Page2M.String() != "2M" {
		t.Error("page size strings")
	}
	if len(Workloads()) != 8 {
		t.Errorf("workloads = %v", Workloads())
	}
	if !strings.Contains(strings.Join(Workloads(), ","), "dedup") {
		t.Error("dedup missing")
	}
}

func TestScenarioCOWSnapshot(t *testing.T) {
	build := func() *Scenario {
		s := NewScenario()
		base := uint64(0x4000_0000)
		s.Map(0, base, 64<<12, Page4K).Populate(0, base)
		s.TouchRange(0, base, 64<<12, Page4K) // build translation state
		s.Snapshot(0, base)                   // mark COW
		s.WriteRange(0, base, 64<<12, Page4K) // break every page
		return s
	}
	shadow, err := build().Run(ScenarioConfig{Technique: Shadow, PageSize: Page4K})
	if err != nil {
		t.Fatal(err)
	}
	agile, err := build().Run(ScenarioConfig{Technique: Agile, PageSize: Page4K})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := build().Run(ScenarioConfig{Technique: Nested, PageSize: Page4K})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's COW example: >= 2 VM exits per page under shadow paging;
	// none under nested; agile adapts away most of them.
	if shadow.VMExits < 2*64 {
		t.Errorf("shadow snapshot exits = %d, want >= 128", shadow.VMExits)
	}
	if nested.VMExits != 0 {
		t.Errorf("nested snapshot exits = %d", nested.VMExits)
	}
	if agile.VMExits*2 > shadow.VMExits {
		t.Errorf("agile exits %d not well below shadow %d", agile.VMExits, shadow.VMExits)
	}
	if agile.SwitchesToNested == 0 {
		t.Error("agile never adapted")
	}
}

func TestScenarioMultiProcess(t *testing.T) {
	s := NewScenario()
	s.AddProcess(1)
	s.Map(0, 0x1000_0000, 8<<12, Page4K).Populate(0, 0x1000_0000)
	s.Map(1, 0x2000_0000, 8<<12, Page4K).Populate(1, 0x2000_0000)
	for i := 0; i < 10; i++ {
		s.Switch(0).Touch(0, 0x1000_0000)
		s.Switch(1).Touch(1, 0x2000_0000)
	}
	res, err := s.Run(ScenarioConfig{Technique: Shadow, PageSize: Page4K})
	if err != nil {
		t.Fatal(err)
	}
	if res.VMExits < 20 {
		t.Errorf("context switching under shadow should exit: %d", res.VMExits)
	}
	// The §IV context-switch cache removes those exits.
	s2 := NewScenario()
	s2.AddProcess(1)
	s2.Map(0, 0x1000_0000, 8<<12, Page4K).Populate(0, 0x1000_0000)
	s2.Map(1, 0x2000_0000, 8<<12, Page4K).Populate(1, 0x2000_0000)
	for i := 0; i < 10; i++ {
		s2.Switch(0).Touch(0, 0x1000_0000)
		s2.Switch(1).Touch(1, 0x2000_0000)
	}
	cached, err := s2.Run(ScenarioConfig{Technique: Shadow, PageSize: Page4K, CtxSwitchCacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cached.VMExits >= res.VMExits {
		t.Errorf("ctx cache did not help: %d vs %d", cached.VMExits, res.VMExits)
	}
}

func TestScenarioLen(t *testing.T) {
	s := NewScenario()
	if s.Len() != 2 {
		t.Errorf("fresh scenario has %d ops", s.Len())
	}
	s.Reclaim(0, 4).Unmap(0, 0x1000)
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestScenarioTHPPromotion(t *testing.T) {
	base := uint64(0x4000_0000)
	build := func() *Scenario {
		s := NewScenario()
		s.Map(0, base, 2<<20, Page4K).Populate(0, base)
		s.TouchRange(0, base, 2<<20, Page4K) // build translation state
		s.Promote(0, base)                   // THP collapse: 512 unmaps + 1 2M map
		s.TouchRange(0, base, 2<<20, Page4K)
		return s
	}
	shadow, err := build().Run(ScenarioConfig{Technique: Shadow, PageSize: Page4K})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := build().Run(ScenarioConfig{Technique: Nested, PageSize: Page4K})
	if err != nil {
		t.Fatal(err)
	}
	if nested.VMExits != 0 {
		t.Errorf("nested THP promotion exited %d times", nested.VMExits)
	}
	// Shadow pays for the page-table rewrite: hundreds of exits.
	if shadow.VMExits < 256 {
		t.Errorf("shadow THP promotion exits = %d, want many", shadow.VMExits)
	}
}

func TestScenario1GPages(t *testing.T) {
	base := uint64(1 << 30) // 1G-aligned
	s := NewScenario()
	s.Map(0, base, 1<<30, Page1G).Populate(0, base)
	for i := uint64(0); i < 16; i++ {
		s.Touch(0, base+i<<20)
	}
	res, err := s.Run(ScenarioConfig{Technique: Shadow, PageSize: Page1G, DisableMMUCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 16 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	// A 1G shadow walk costs 2 references.
	if res.AvgRefsPerMiss > 2.01 {
		t.Errorf("1G shadow avg refs/miss = %.2f, want 2", res.AvgRefsPerMiss)
	}
	if Page1G.String() != "1G" {
		t.Error("Page1G string")
	}
}

func TestSHSPBaselineConfig(t *testing.T) {
	res, err := Run(Config{
		Workload: "mcf", Technique: Agile, PageSize: Page4K,
		Accesses: 120_000, Warmup: 120_000, SHSPBaseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// SHSP on a static workload converges to whole-process shadow paging.
	if res.SwitchesToShadow == 0 {
		t.Error("SHSP never switched the process to shadow")
	}
	if res.AvgRefsPerMiss > 2 { // with PWC, shadow misses average ~1 ref
		t.Errorf("avg refs/miss = %.2f, expected shadow-like", res.AvgRefsPerMiss)
	}
}

func TestScenarioSMPShootdown(t *testing.T) {
	base := uint64(0x4000_0000)
	s := NewScenario()
	s.Map(0, base, 4<<12, Page4K).Populate(0, base)
	s.SwitchOn(1, 0) // install the process on a second core too
	s.TouchOn(0, 0, base)
	s.TouchOn(1, 0, base)
	s.Snapshot(0, base) // COW marking shoots down both cores
	s.WriteOn(1, 0, base)
	res, err := s.Run(ScenarioConfig{Technique: Nested, PageSize: Page4K, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 3 {
		t.Errorf("accesses = %d", res.Accesses)
	}
	if res.GuestFaults == 0 {
		t.Error("COW break should fault")
	}
}

func TestScenarioInstructionFetch(t *testing.T) {
	code := uint64(0x0040_0000)
	s := NewScenario()
	s.Map(0, code, 16<<12, Page4K).Populate(0, code)
	for i := uint64(0); i < 16; i++ {
		s.Fetch(0, code+i<<12)
	}
	res, err := s.Run(ScenarioConfig{Technique: Shadow, PageSize: Page4K})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 16 || res.TLBMisses == 0 {
		t.Fatalf("fetch scenario: %+v", res)
	}
}

func TestResultJSONEncodesNames(t *testing.T) {
	res := Result{Workload: "mcf", Technique: Agile, PageSize: Page2M}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Technique":"agile"`) ||
		!strings.Contains(string(data), `"PageSize":"2M"`) {
		t.Errorf("json = %s", data)
	}
}

// TestRunAllDeduplicatesIdenticalConfigs verifies a config list with
// repeated cells runs each unique cell once: duplicates come back
// bit-identical, and the cache records exactly one simulation per cell.
func TestRunAllDeduplicatesIdenticalConfigs(t *testing.T) {
	repcache.Reset()
	cfgs := []Config{
		{Workload: "dedup", Technique: Shadow, PageSize: Page4K, Accesses: 4000, Seed: 5},
		{Workload: "mcf", Technique: Agile, PageSize: Page4K, Accesses: 4000, Seed: 5},
		{Workload: "dedup", Technique: Shadow, PageSize: Page4K, Accesses: 4000, Seed: 5}, // dup of 0
		{Workload: "dedup", Technique: Shadow, PageSize: Page4K, Accesses: 4000, Seed: 6}, // distinct seed
		{Workload: "mcf", Technique: Agile, PageSize: Page4K, Accesses: 4000, Seed: 5},    // dup of 1
	}
	got, _, err := RunAll(context.Background(), RunAllOptions{}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != got[0] || got[4] != got[1] {
		t.Error("duplicate configs returned different results")
	}
	if got[3] == got[0] {
		t.Error("configs differing only in Seed were aliased")
	}
	_, misses, _ := repcache.Stats()
	if misses != 3 {
		t.Errorf("simulated %d unique cells, want 3", misses)
	}
	// Spelled defaults share cells with explicit defaults: Seed 0 means 42.
	repcache.Reset()
	pair := []Config{
		{Workload: "astar", Technique: Nested, PageSize: Page4K, Accesses: 4000},
		{Workload: "astar", Technique: Nested, PageSize: Page4K, Accesses: 4000, Seed: 42},
	}
	res, _, err := RunAll(context.Background(), RunAllOptions{}, pair)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != res[1] {
		t.Error("default-seed spellings returned different results")
	}
	if _, misses, _ := repcache.Stats(); misses != 1 {
		t.Errorf("default-seed spellings cost %d simulations, want 1", misses)
	}
}
