package experiments

import (
	"fmt"
	"testing"

	"agilepaging/internal/workload"
)

// TestMicrobenchBuildersPresize pins that every op-list builder sizes its
// slice exactly, and that Table I's walk list, built on every Table I run
// (cached or not), costs one allocation.
func TestMicrobenchBuildersPresize(t *testing.T) {
	builds := map[string]func() []workload.Op{
		"ptUpdateOps":      func() []workload.Op { return ptUpdateOps(64, 32) },
		"readThenWriteOps": func() []workload.Op { return readThenWriteOps(512) },
		"ctxSwitchOps":     func() []workload.Op { return ctxSwitchOps(2000) },
	}
	for _, p := range [][4]int{
		{1024, 30_000, 1500, 16}, // Table I
		{16, 100, 7, 3},          // accesses not a multiple of churnEvery
		{16, 10, 0, 4},           // no churn
		{16, 0, 5, 2},            // no accesses
		{4, 5, 1, 1},             // churn before every access
	} {
		builds[fmt.Sprintf("mixedOps%v", p)] = func() []workload.Op { return mixedOps(p[0], p[1], p[2], p[3]) }
	}
	for name, build := range builds {
		if ops := build(); len(ops) != cap(ops) {
			t.Errorf("%s: len %d, cap %d; want the slice sized exactly", name, len(ops), cap(ops))
		}
	}
	if n := testing.AllocsPerRun(10, func() { mixedOps(1024, 30_000, 1500, 16) }); n != 1 {
		t.Errorf("mixedOps made %v allocations, want 1", n)
	}
}
