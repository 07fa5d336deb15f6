package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"agilepaging/internal/sweep"
	"agilepaging/internal/walker"
)

// The golden-equivalence test pins the simulator's observable outputs —
// every counter and derived overhead of Figure 5, Table II, and Table VI —
// to values captured before the PR 2 hot-path optimizations. Optimizations
// must be observably pure: same seeds in, bit-identical counters out. Run
// with -update only when a PR intentionally changes simulated behaviour.
var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

const (
	goldenAccesses = 30_000
	goldenSeed     = 42
	goldenFile     = "testdata/golden_pr2.json"
)

// goldenFigure5Row records one Figure 5 bar. Overheads are stored as
// math.Float64bits so JSON round-tripping cannot lose precision: equality
// means bit identity, not approximate equality.
type goldenFigure5Row struct {
	Workload  string
	PageSize  string
	Technique string

	WalkOvBits uint64
	VMMOvBits  uint64

	Accesses        uint64
	Writes          uint64
	TLBMisses       uint64
	WalkRefs        uint64
	GuestPageFaults uint64
	WriteProtFaults uint64
	CtxSwitches     uint64

	IdealCycles uint64
	WalkCycles  uint64
	VMMCycles   uint64

	TLBLookups uint64
	TLBL1Hits  uint64
	TLBL2Hits  uint64

	WalkerWalks    uint64
	WalkerRefs     uint64
	ByNestedLevels [5]uint64
	FullNested     uint64

	RefsP50 int
	RefsP95 int
	RefsMax int
}

// goldenTableIIRow records one Table II walk with its full reference trace.
type goldenTableIIRow struct {
	Degree       string
	NestedLevels int
	Refs         int
	Accesses     []walker.Access
}

// goldenTableVIRow records one Table VI row, fractions as Float64bits.
type goldenTableVIRow struct {
	Workload      string
	FractionsBits [6]uint64
	AvgRefsBits   uint64
}

type goldenData struct {
	Accesses int
	Seed     int64
	Figure5  []goldenFigure5Row
	Headline [4]uint64 // geomean bits: best4K, native4K, best2M, native2M
	TableII  []goldenTableIIRow
	TableVI  []goldenTableVIRow
}

// captureGolden runs the three experiments and converts their results.
func captureGolden(t *testing.T) goldenData {
	t.Helper()
	g := goldenData{Accesses: goldenAccesses, Seed: goldenSeed}

	f5, err := Figure5Sweep(context.Background(), sweep.Config{}, nil, goldenAccesses, goldenSeed)
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	for _, r := range f5.Rows {
		rep := r.Report
		g.Figure5 = append(g.Figure5, goldenFigure5Row{
			Workload:        r.Workload,
			PageSize:        r.PageSize.String(),
			Technique:       r.Technique.String(),
			WalkOvBits:      math.Float64bits(r.WalkOv),
			VMMOvBits:       math.Float64bits(r.VMMOv),
			Accesses:        rep.Machine.Accesses,
			Writes:          rep.Machine.Writes,
			TLBMisses:       rep.Machine.TLBMisses,
			WalkRefs:        rep.Machine.WalkRefs,
			GuestPageFaults: rep.Machine.GuestPageFaults,
			WriteProtFaults: rep.Machine.WriteProtFaults,
			CtxSwitches:     rep.Machine.CtxSwitches,
			IdealCycles:     rep.IdealCycles,
			WalkCycles:      rep.WalkCycles,
			VMMCycles:       rep.VMMCycles,
			TLBLookups:      rep.TLB.Lookups,
			TLBL1Hits:       rep.TLB.L1Hits,
			TLBL2Hits:       rep.TLB.L2Hits,
			WalkerWalks:     rep.Walker.Walks,
			WalkerRefs:      rep.Walker.Refs,
			ByNestedLevels:  rep.Walker.ByNestedLevels,
			FullNested:      rep.Walker.FullNested,
			RefsP50:         rep.RefsP50,
			RefsP95:         rep.RefsP95,
			RefsMax:         rep.RefsMax,
		})
	}
	h := Headline(f5)
	g.Headline = [4]uint64{
		math.Float64bits(h.GeoAgileVsBest4K),
		math.Float64bits(h.GeoAgileVsNative4K),
		math.Float64bits(h.GeoAgileVsBest2M),
		math.Float64bits(h.GeoAgileVsNative2M),
	}

	t2, err := TableIISweep(context.Background(), sweep.Config{})
	if err != nil {
		t.Fatalf("TableII: %v", err)
	}
	for _, r := range t2 {
		g.TableII = append(g.TableII, goldenTableIIRow{
			Degree:       r.Degree,
			NestedLevels: r.NestedLevels,
			Refs:         r.Refs,
			Accesses:     r.Accesses,
		})
	}

	t6, err := TableVISweep(context.Background(), sweep.Config{}, nil, goldenAccesses, goldenSeed)
	if err != nil {
		t.Fatalf("TableVI: %v", err)
	}
	for _, r := range t6 {
		row := goldenTableVIRow{Workload: r.Workload, AvgRefsBits: math.Float64bits(r.AvgRefs)}
		for i, f := range r.Fractions {
			row.FractionsBits[i] = math.Float64bits(f)
		}
		g.TableVI = append(g.TableVI, row)
	}
	return g
}

// TestGoldenEquivalence verifies that Figure 5, Table II, and Table VI are
// bit-identical to the pre-optimization implementation: same seeds, same
// counters, same floating-point overheads to the last bit.
func TestGoldenEquivalence(t *testing.T) {
	got := captureGolden(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d figure5 rows)", goldenFile, len(got.Figure5))
		return
	}

	buf, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	var want goldenData
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenFile, err)
	}

	if got.Accesses != want.Accesses || got.Seed != want.Seed {
		t.Fatalf("golden parameters changed: got %d/%d, want %d/%d",
			got.Accesses, got.Seed, want.Accesses, want.Seed)
	}
	if len(got.Figure5) != len(want.Figure5) {
		t.Fatalf("Figure5 rows = %d, want %d", len(got.Figure5), len(want.Figure5))
	}
	for i := range want.Figure5 {
		if !reflect.DeepEqual(got.Figure5[i], want.Figure5[i]) {
			t.Errorf("Figure5 row %s/%s/%s diverged:\n got  %+v\n want %+v",
				want.Figure5[i].Workload, want.Figure5[i].PageSize, want.Figure5[i].Technique,
				got.Figure5[i], want.Figure5[i])
		}
	}
	if got.Headline != want.Headline {
		t.Errorf("Headline geomeans diverged: got %v, want %v", got.Headline, want.Headline)
	}
	if !reflect.DeepEqual(got.TableII, want.TableII) {
		t.Errorf("TableII diverged:\n got  %+v\n want %+v", got.TableII, want.TableII)
	}
	if !reflect.DeepEqual(got.TableVI, want.TableVI) {
		t.Errorf("TableVI diverged:\n got  %+v\n want %+v", got.TableVI, want.TableVI)
	}
}
