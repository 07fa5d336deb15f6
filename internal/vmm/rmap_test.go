package vmm

import (
	"slices"
	"testing"

	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
)

// TestHostPageChangedZapsReverseMappedLeaves pins what a host-side change
// to a guest page does to shadow state: every shadow leaf filled through
// that gPA since the last change is zapped and its gVA invalidated, across
// all processes of the VM. No workload reaches this path (only the dedup
// and host-COW API do), so the benchmark digests cannot guard it.
//
// It also pins the reverse map's two quirks. A leaf zapped by a guest
// remap and refilled elsewhere leaves its old record behind, so a later
// change to the old gPA zaps the refilled leaf. A gVA filled twice is
// recorded twice, so a change invalidates it twice.
func TestHostPageChangedZapsReverseMappedLeaves(t *testing.T) {
	vm, mmu := newTestVM(t, walker.ModeShadow)
	const (
		vaA1 = uint64(0x10_0000)
		vaA2 = uint64(0x11_0000)
		vaB1 = uint64(0x20_0000)
		vaB3 = uint64(0x21_0000)
	)
	const flags = pagetable.FlagWrite | pagetable.FlagUser
	// setup builds two processes over four guest pages: vaA1 and vaB1
	// share g[0], vaA2 maps g[1], vaB3 maps g[2], and g[3] is spare.
	setup := func() (a, b *Context, g [4]uint64) {
		t.Helper()
		var err error
		if a, err = vm.NewProcess(1); err != nil {
			t.Fatal(err)
		}
		if b, err = vm.NewProcess(2); err != nil {
			t.Fatal(err)
		}
		for i := range g {
			if g[i], err = vm.AllocGPA(pagetable.Size4K); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range []struct {
			ctx *Context
			va  uint64
			gpa uint64
		}{{a, vaA1, g[0]}, {a, vaA2, g[1]}, {b, vaB1, g[0]}, {b, vaB3, g[2]}} {
			if err := m.ctx.GPT().Map(m.va, m.gpa, pagetable.Size4K, flags); err != nil {
				t.Fatal(err)
			}
		}
		return a, b, g
	}
	fill := func(ctx *Context, va uint64) {
		t.Helper()
		if out, err := ctx.HandleShadowFault(va, false); err != nil || out != OutcomeRetry {
			t.Fatalf("shadow fill of %#x: %v, %v", va, out, err)
		}
	}
	// hostChange runs change and checks the shadow leaves it zapped and the
	// gVAs it invalidated, in any order.
	hostChange := func(name string, change func() error, wantZapped uint64, wantInvalidated ...uint64) {
		t.Helper()
		mmu.invalidates = nil
		before := vm.Stats().ShadowEntriesZapped
		if err := change(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := vm.Stats().ShadowEntriesZapped - before; got != wantZapped {
			t.Errorf("%s: zapped %d shadow entries, want %d", name, got, wantZapped)
		}
		got := slices.Clone(mmu.invalidates)
		slices.Sort(got)
		slices.Sort(wantInvalidated)
		if !slices.Equal(got, wantInvalidated) {
			t.Errorf("%s: invalidated gVAs %#x, want %#x", name, got, wantInvalidated)
		}
	}

	a, b, g := setup()
	for _, f := range []struct {
		ctx *Context
		va  uint64
	}{{a, vaA1}, {a, vaA2}, {b, vaB1}, {b, vaB3}} {
		fill(f.ctx, f.va)
	}
	// A guest remap zaps vaA2 and the refill goes through g[3], leaving a
	// stale record of vaA2 under g[1].
	if err := a.GPT().Remap(vaA2, g[3], pagetable.Size4K, flags); err != nil {
		t.Fatal(err)
	}
	fill(a, vaA2)
	// A guest A-bit clear zaps vaB3 and the refill records it again under
	// g[2].
	if err := b.GPT().ClearFlags(vaB3, pagetable.FlagAccessed); err != nil {
		t.Fatal(err)
	}
	fill(b, vaB3)

	hostChange("write-protect g1 (stale record)", func() error { return vm.WriteProtectHostPage(g[1]) },
		1, vaA2)
	hostChange("dedup g0 and g2", func() error { return vm.DedupPages(g[0], g[2]) },
		3, vaA1, vaB1, vaB3, vaB3)
	// The dedup emptied g[2]'s records; refill vaB3 (read-only now) so the
	// host-COW break of the guest write has one to zap. The write itself
	// invalidates vaB3 once more.
	fill(b, vaB3)
	hostChange("host COW of g2", func() error {
		resolved, err := b.HandleWriteProtect(vaB3)
		if err == nil && !resolved {
			t.Error("host COW write not resolved")
		}
		return err
	}, 1, vaB3, vaB3)

	// After a reset, nothing recorded before it survives: g[3] backed vaA2
	// only before the reset, so changing it must leave the refilled vaA2
	// alone.
	memOf(vm).Reset()
	if err := vm.Reset(vm.Config()); err != nil {
		t.Fatal(err)
	}
	a, _, g2 := setup()
	if g2 != g {
		t.Fatalf("guest pages after reset %#x, want the pre-reset %#x", g2, g)
	}
	fill(a, vaA2)
	hostChange("write-protect g3 after reset", func() error { return vm.WriteProtectHostPage(g[3]) },
		0)
	hostChange("write-protect g1 after reset", func() error { return vm.WriteProtectHostPage(g[1]) },
		1, vaA2)
}
