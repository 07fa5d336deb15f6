package tlb

import (
	"testing"

	"agilepaging/internal/pagetable"
)

// benchHit defeats dead-code elimination.
var benchHit bool

// BenchmarkTLBLookup measures an L1 hit — the single most executed
// operation of the whole simulator (once per simulated access).
func BenchmarkTLBLookup(b *testing.B) {
	h := NewHierarchy(SandyBridgeConfig())
	va := uint64(0x7f00_0000_1000)
	h.Insert(1, va, pagetable.Size4K, 0xabc000, pagetable.FlagPresent|pagetable.FlagWrite, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok := h.Lookup(1, va|0x234, false)
		benchHit = ok
	}
	if !benchHit {
		b.Fatal("lookup missed")
	}
}

// BenchmarkTLBLookupMiss measures a full-hierarchy miss (every array
// probed, no hit) — the fixed probe cost preceding each page walk. An empty
// array is not probed, so each data-side array first gets a line of
// another address space.
func BenchmarkTLBLookupMiss(b *testing.B) {
	h := NewHierarchy(SandyBridgeConfig())
	for _, size := range []pagetable.Size{pagetable.Size4K, pagetable.Size2M, pagetable.Size1G} {
		h.Insert(2, 0, size, 0, pagetable.FlagPresent, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok := h.Lookup(1, uint64(i)<<12, false)
		benchHit = ok
	}
}

// BenchmarkTLBInsert measures the post-walk fill path (L1 + L2).
func BenchmarkTLBInsert(b *testing.B) {
	h := NewHierarchy(SandyBridgeConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := uint64(i&1023) << 12
		h.Insert(1, va, pagetable.Size4K, va|1<<30, pagetable.FlagPresent, false)
	}
}

// BenchmarkTLBInvalidatePage measures the shootdown path, which PR 2 made
// allocation-free.
func BenchmarkTLBInvalidatePage(b *testing.B) {
	h := NewHierarchy(SandyBridgeConfig())
	va := uint64(0x7f00_0000_1000)
	h.Insert(1, va, pagetable.Size4K, 0xabc000, pagetable.FlagPresent, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.InvalidatePage(1, va)
	}
}
