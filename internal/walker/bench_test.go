package walker

import (
	"testing"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/ptwc"
)

// benchResult defeats dead-code elimination of the walk loops.
var benchResult Result

// BenchmarkWalk4K measures a full cold 1D walk of a 4K mapping (4 memory
// references, paper Table II row 1) with no MMU caches.
func BenchmarkWalk4K(b *testing.B) {
	mem := memsim.New(64 << 20)
	pt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		b.Fatal(err)
	}
	if err := pt.Map(0x7f00_0000_1000, 0xabc000, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		b.Fatal(err)
	}
	w := New(mem, nil, nil)
	regs := Regs{Mode: ModeNative, Root: pt.Root(), ASID: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := w.Walk(regs, 0x7f00_0000_1234, false, &benchResult); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkWalk2M measures a cold 1D walk terminating at a 2M leaf (3
// references).
func BenchmarkWalk2M(b *testing.B) {
	mem := memsim.New(64 << 20)
	pt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		b.Fatal(err)
	}
	if err := pt.Map(0x4020_0000, 0x8020_0000, pagetable.Size2M, pagetable.FlagWrite); err != nil {
		b.Fatal(err)
	}
	w := New(mem, nil, nil)
	regs := Regs{Mode: ModeNative, Root: pt.Root(), ASID: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := w.Walk(regs, 0x4020_0000+0x12345, false, &benchResult); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkWalkNested measures the full 2D nested walk (24 references,
// paper §II-A) with no MMU caches — the worst-case state machine.
func BenchmarkWalkNested(b *testing.B) {
	v := newVM(b)
	gva := uint64(0x7f00_0000_0000)
	v.mapGuest(gva, pagetable.Size4K)
	w := New(v.mem, nil, nil)
	regs := v.regs(ModeNested)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := w.Walk(regs, gva|0x42, false, &benchResult); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkWalkAgile measures the agile state machine with the leaf level
// switched to nested (8 references, paper Table II "switched at 4th
// level") with no MMU caches.
func BenchmarkWalkAgile(b *testing.B) {
	v := newVM(b)
	gva := uint64(0x7f12_3456_7000)
	v.mapGuest(gva, pagetable.Size4K)
	v.plantSwitch(gva, 1)
	w := New(v.mem, nil, nil)
	regs := v.regs(ModeAgile)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := w.Walk(regs, gva|0x99, false, &benchResult); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkWalkPWCHit measures the common warm case: a shadow walk resumed
// from a skip-3 PWC hit (1 reference).
func BenchmarkWalkPWCHit(b *testing.B) {
	v := newVM(b)
	gva := uint64(0x7f00_0000_1000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	v.shadowFill(gva, hpa, pagetable.Size4K)
	w := New(v.mem, ptwc.New(ptwc.DefaultConfig()), nil)
	regs := v.regs(ModeShadow)
	if f := w.Walk(regs, gva, false, new(Result)); f != nil {
		b.Fatal(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := w.Walk(regs, gva, false, &benchResult); f != nil {
			b.Fatal(f)
		}
	}
}

// TestWalkPWCHitZeroAllocs guards the zero-allocation property of the walk
// hot path: a completed walk (here a PWC-accelerated shadow walk, the most
// common warm case) must not allocate. If this fails, a change re-introduced
// a per-walk heap allocation — see DESIGN.md "Performance engineering".
func TestWalkPWCHitZeroAllocs(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x7f00_0000_1000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	v.shadowFill(gva, hpa, pagetable.Size4K)
	w := New(v.mem, ptwc.New(ptwc.DefaultConfig()), nil)
	regs := v.regs(ModeShadow)
	if f := w.Walk(regs, gva, false, new(Result)); f != nil {
		t.Fatal(f)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if f := w.Walk(regs, gva, false, &benchResult); f != nil {
			t.Fatal(f)
		}
	})
	if allocs != 0 {
		t.Errorf("PWC-hit walk allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWalkColdZeroAllocs extends the guard to full cold walks of every
// state machine: with recording off, no walk may allocate.
func TestWalkColdZeroAllocs(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x7f12_3456_7000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	v.shadowFill(gva, hpa, pagetable.Size4K)
	w := New(v.mem, nil, nil)
	for _, mode := range []Mode{ModeShadow, ModeNested, ModeAgile} {
		regs := v.regs(mode)
		allocs := testing.AllocsPerRun(200, func() {
			if f := w.Walk(regs, gva, false, &benchResult); f != nil {
				t.Fatal(f)
			}
		})
		if allocs != 0 {
			t.Errorf("%v walk allocates %.1f objects/op, want 0", mode, allocs)
		}
	}
}

// TestWalkFaultZeroAllocs extends the guard to faulting walks: the fault
// is returned from walker scratch, so a not-present walk in any mode, and
// a host fault, allocate nothing.
func TestWalkFaultZeroAllocs(t *testing.T) {
	v := newVM(t)
	hole := uint64(0x9000)
	if err := v.gpt.Map(hole, 0x7777_7000, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	w := New(v.mem, nil, nil)
	cases := []struct {
		name string
		regs Regs
		va   uint64
		want FaultKind
	}{
		{"native", Regs{Mode: ModeNative, Root: v.spt.Root(), ASID: 1}, 0xdead_0000, FaultNotPresent},
		{"shadow", v.regs(ModeShadow), 0xdead_0000, FaultNotPresent},
		{"nested", v.regs(ModeNested), 0xdead_0000, FaultGuest},
		{"agile", v.regs(ModeAgile), 0xdead_0000, FaultNotPresent},
		{"nested host hole", v.regs(ModeNested), hole, FaultHost},
	}
	for _, c := range cases {
		var kind FaultKind = -1
		allocs := testing.AllocsPerRun(200, func() {
			if f := w.Walk(c.regs, c.va, true, &benchResult); f != nil {
				kind = f.Kind
			}
		})
		if kind != c.want {
			t.Fatalf("%s walk of %#x: fault kind %v, want %v", c.name, c.va, kind, c.want)
		}
		if allocs != 0 {
			t.Errorf("%s faulting walk allocates %.1f objects/op, want 0", c.name, allocs)
		}
	}
}
