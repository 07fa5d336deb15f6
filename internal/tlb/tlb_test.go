package tlb

import (
	"math/rand"
	"testing"

	"agilepaging/internal/pagetable"
)

func newSB() *Hierarchy { return NewHierarchy(SandyBridgeConfig()) }

func TestMissThenHit(t *testing.T) {
	h := newSB()
	if _, ok := h.Lookup(1, 0x1234, false); ok {
		t.Fatal("hit in empty TLB")
	}
	h.Insert(1, 0x1000, pagetable.Size4K, 0xabcd000, pagetable.FlagWrite, false)
	r, ok := h.Lookup(1, 0x1234, false)
	if !ok {
		t.Fatal("miss after insert")
	}
	if r.PA != 0xabcd234 {
		t.Errorf("PA = %#x, want 0xabcd234", r.PA)
	}
	if r.Size != pagetable.Size4K || r.Level != 1 {
		t.Errorf("size/level = %v/%d", r.Size, r.Level)
	}
	s := h.Stats()
	if s.Lookups != 2 || s.Misses != 1 || s.L1Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestASIDSeparation(t *testing.T) {
	h := newSB()
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, false)
	if _, ok := h.Lookup(2, 0x1000, false); ok {
		t.Error("cross-ASID hit")
	}
	if _, ok := h.Lookup(1, 0x1000, false); !ok {
		t.Error("same-ASID miss")
	}
}

func TestGlobalEntriesCrossASID(t *testing.T) {
	h := newSB()
	h.Insert(1, 0xffff000, pagetable.Size4K, 0x2000, pagetable.FlagGlobal, false)
	if _, ok := h.Lookup(2, 0xffff000, false); !ok {
		t.Error("global entry should hit from any ASID")
	}
	h.FlushASID(2)
	if _, ok := h.Lookup(1, 0xffff000, false); !ok {
		t.Error("global entry should survive FlushASID")
	}
	h.FlushAll()
	if _, ok := h.Lookup(1, 0xffff000, false); ok {
		t.Error("global entry should not survive FlushAll")
	}
}

func TestLargePageHit(t *testing.T) {
	h := newSB()
	h.Insert(1, 0x40000000, pagetable.Size2M, 0x80000000, 0, false)
	r, ok := h.Lookup(1, 0x40000000+0x12345, false)
	if !ok {
		t.Fatal("2M miss")
	}
	if r.PA != 0x80012345 {
		t.Errorf("PA = %#x", r.PA)
	}
	if r.Size != pagetable.Size2M {
		t.Errorf("size = %v", r.Size)
	}
	h.Insert(1, 0x80000000, pagetable.Size1G, 0x100000000, 0, false)
	r, ok = h.Lookup(1, 0x80000000+0x3fffffff&^0x3, false)
	if !ok || r.Size != pagetable.Size1G {
		t.Errorf("1G lookup: ok=%v r=%+v", ok, r)
	}
}

func TestL2RefillsL1(t *testing.T) {
	h := newSB()
	// Fill the 4-way L1D set for vpn class of 0x1000 with conflicting VPNs,
	// then verify the displaced entry hits in L2 and refills L1.
	sets := 64 / 4
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, false)
	for i := 1; i <= 4; i++ {
		va := uint64(0x1000) + uint64(i*sets)*4096
		h.Insert(1, va, pagetable.Size4K, 0x3000, 0, false)
	}
	r, ok := h.Lookup(1, 0x1000, false)
	if !ok {
		t.Fatal("expected L2 hit after L1 eviction")
	}
	if r.Level != 2 {
		t.Fatalf("hit level = %d, want 2", r.Level)
	}
	r, ok = h.Lookup(1, 0x1000, false)
	if !ok || r.Level != 1 {
		t.Errorf("after refill: ok=%v level=%d, want L1 hit", ok, r.Level)
	}
}

func TestInstructionSideSeparate(t *testing.T) {
	h := newSB()
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, true)
	// I-side insert fills L2 too, so a data lookup hits at L2, not L1.
	r, ok := h.Lookup(1, 0x1000, false)
	if !ok {
		t.Fatal("data lookup should hit unified L2")
	}
	if r.Level != 1+1 {
		t.Errorf("data hit level = %d, want 2", r.Level)
	}
	r, ok = h.Lookup(1, 0x1000, true)
	if !ok || r.Level != 1 {
		t.Errorf("fetch hit: ok=%v level=%d, want L1", ok, r.Level)
	}
}

func TestInvalidatePage(t *testing.T) {
	h := newSB()
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, false)
	h.Insert(1, 0x200000, pagetable.Size2M, 0x400000, 0, false)
	h.InvalidatePage(1, 0x1000)
	if _, ok := h.Lookup(1, 0x1000, false); ok {
		t.Error("4K entry survived INVLPG")
	}
	if _, ok := h.Lookup(1, 0x200000, false); !ok {
		t.Error("unrelated 2M entry dropped")
	}
	h.InvalidatePage(1, 0x200000+0x1999)
	if _, ok := h.Lookup(1, 0x200000, false); ok {
		t.Error("2M entry survived INVLPG of interior address")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := newSetAssoc(pagetable.Size4K, 4, 4) // one set, 4 ways
	for i := uint64(0); i < 4; i++ {
		c.insert(1, i*4096, i*4096+0x100000, 0)
	}
	// Touch entries 0..2 so entry 3 is LRU.
	for i := uint64(0); i < 3; i++ {
		if _, _, ok := c.lookup(1, i*4096); !ok {
			t.Fatalf("entry %d missing", i)
		}
	}
	c.insert(1, 5*4096, 0x500000, 0)
	if _, _, ok := c.lookup(1, 3*4096); ok {
		t.Error("LRU entry 3 should have been evicted")
	}
	for i := uint64(0); i < 3; i++ {
		if _, _, ok := c.lookup(1, i*4096); !ok {
			t.Errorf("recently used entry %d evicted", i)
		}
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	c := newSetAssoc(pagetable.Size4K, 4, 4)
	c.insert(1, 0x1000, 0x2000, 0)
	c.insert(1, 0x1000, 0x9000, pagetable.FlagDirty) // update in place
	if c.occupancy() != 1 {
		t.Fatalf("occupancy = %d after duplicate insert, want 1", c.occupancy())
	}
	pa, flags, ok := c.lookup(1, 0x1000)
	if !ok || pa != 0x9000 || flags&pagetable.FlagDirty == 0 {
		t.Errorf("refreshed entry: pa=%#x flags=%v ok=%v", pa, flags, ok)
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := SandyBridgeConfig().Scaled(4)
	if cfg.L1D4K.Entries != 16 || cfg.L24K.Entries != 128 {
		t.Errorf("scaled config = %+v", cfg)
	}
	// Large-page arrays scale by factor/4: unchanged at factor 4.
	if cfg.L1D2M.Entries != 32 || cfg.L1D1G.Entries != 4 {
		t.Errorf("large-page scaling = %+v / %+v", cfg.L1D2M, cfg.L1D1G)
	}
	cfg8 := SandyBridgeConfig().Scaled(8)
	if cfg8.L1D4K.Entries != 8 || cfg8.L1D2M.Entries != 16 || cfg8.L1D1G.Entries != 2 {
		t.Errorf("factor-8 scaling = %+v", cfg8)
	}
	if got := SandyBridgeConfig().Scaled(1); got != SandyBridgeConfig() {
		t.Error("Scaled(1) should be identity")
	}
	h := NewHierarchy(cfg)
	h.Insert(1, 0, pagetable.Size4K, 0, 0, false)
	if _, ok := h.Lookup(1, 0, false); !ok {
		t.Error("scaled hierarchy broken")
	}
}

func TestAbsentArrayNeverHits(t *testing.T) {
	cfg := Config{L1D4K: ArrayConfig{Entries: 8, Ways: 2}} // everything else absent
	h := NewHierarchy(cfg)
	// With no 2M array, the 2M mapping splinters into the 4K array: it
	// covers the 4K page of va and nothing else of the 2M page.
	h.Insert(1, 0x203456, pagetable.Size2M, 0x400000, 0, false)
	if r, ok := h.Lookup(1, 0x203456, false); !ok || r.Size != pagetable.Size4K || r.PA != 0x403456 {
		t.Errorf("lookup of the splintered page = %+v, %v; want a 4K hit at 0x403456", r, ok)
	}
	if _, ok := h.Lookup(1, 0x200000, false); ok {
		t.Error("hit in absent 2M array")
	}
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, false)
	if _, ok := h.Lookup(1, 0x1000, false); !ok {
		t.Error("present 4K array should hit")
	}
}

func TestMissRatioAndReset(t *testing.T) {
	h := newSB()
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, false)
	h.Lookup(1, 0x1000, false)
	h.Lookup(1, 0x5000, false)
	if got := h.Stats().MissRatio(); got != 0.5 {
		t.Errorf("MissRatio = %v, want 0.5", got)
	}
	h.ResetStats()
	if h.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
	if (Stats{}).MissRatio() != 0 {
		t.Error("MissRatio of zero stats should be 0")
	}
}

// TestCoherenceProperty: after any interleaving of inserts/invalidates, a
// lookup never returns a translation that was invalidated after its last
// insert.
func TestCoherenceProperty(t *testing.T) {
	h := newSB()
	rng := rand.New(rand.NewSource(42))
	live := map[uint64]uint64{} // va -> pa of most recent insert, deleted on invalidate
	for i := 0; i < 5000; i++ {
		va := uint64(rng.Intn(256)) * 4096
		switch rng.Intn(3) {
		case 0:
			pa := uint64(rng.Intn(1<<20)) * 4096
			h.Insert(1, va, pagetable.Size4K, pa, 0, false)
			live[va] = pa
		case 1:
			h.InvalidatePage(1, va)
			delete(live, va)
		case 2:
			r, ok := h.Lookup(1, va, false)
			if !ok {
				continue
			}
			want, stillLive := live[va]
			if !stillLive {
				t.Fatalf("lookup(%#x) hit a stale/invalidated entry", va)
			}
			if r.PA != want {
				t.Fatalf("lookup(%#x) = %#x, want %#x", va, r.PA, want)
			}
		}
	}
}

func TestOccupancyAndString(t *testing.T) {
	h := newSB()
	if l1, l2 := h.Occupancy(); l1 != 0 || l2 != 0 {
		t.Errorf("empty occupancy = %d/%d", l1, l2)
	}
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, false)
	l1, l2 := h.Occupancy()
	if l1 != 1 || l2 != 1 {
		t.Errorf("occupancy = %d/%d, want 1/1", l1, l2)
	}
	if h.String() == "" {
		t.Error("empty String")
	}
}

// TestScaledNormalizesAbsentArrays pins the Scaled contract for extreme
// factors: an array whose entry count scales to zero must come back as the
// canonical zero ArrayConfig (Ways included, not a stale associativity), and
// surviving arrays keep at least one way. Factor 64 drives every Sandy
// Bridge array through one of the two regimes.
func TestScaledNormalizesAbsentArrays(t *testing.T) {
	c := SandyBridgeConfig().Scaled(64)
	// factor 64 → large-page factor 16.
	want := Config{
		L1D4K: ArrayConfig{Entries: 1, Ways: 1}, // 64/64
		L1D2M: ArrayConfig{Entries: 2, Ways: 2}, // 32/16
		L1D1G: ArrayConfig{},                    // 4/16 → absent
		L1I4K: ArrayConfig{Entries: 2, Ways: 2}, // 128/64
		L1I2M: ArrayConfig{},                    // 8/16 → absent
		L24K:  ArrayConfig{Entries: 8, Ways: 4}, // 512/64
		L22M:  ArrayConfig{},                    // absent stays absent
	}
	if c != want {
		t.Errorf("SandyBridgeConfig().Scaled(64) = %+v, want %+v", c, want)
	}
	// A hierarchy built from the scaled config must treat the zeroed
	// arrays as absent rather than materializing degenerate caches.
	h := NewHierarchy(c)
	if h.d1[pagetable.Size1G] != nil || h.i1[pagetable.Size2M] != nil || h.l2[pagetable.Size2M] != nil {
		t.Error("arrays scaled to zero entries were materialized")
	}
	if _, ok := h.Lookup(1, 1<<30, false); ok {
		t.Error("lookup hit in an empty scaled hierarchy")
	}
}

func TestGenerationCounter(t *testing.T) {
	h := newSB()
	if h.Gen() != 0 {
		t.Fatalf("fresh hierarchy gen = %d, want 0", h.Gen())
	}
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, false)
	h.Lookup(1, 0x1000, false)
	h.Lookup(1, 0x9999000, false) // miss
	h.NoteRepeatL1Hit()
	if h.Gen() != 0 {
		t.Errorf("gen = %d after inserts/lookups, want 0 (only invalidations advance it)", h.Gen())
	}
	h.InvalidatePage(1, 0x1000)
	if h.Gen() != 1 {
		t.Errorf("gen = %d after InvalidatePage, want 1", h.Gen())
	}
	h.FlushASID(1)
	if h.Gen() != 2 {
		t.Errorf("gen = %d after FlushASID, want 2", h.Gen())
	}
	h.FlushAll()
	if h.Gen() != 3 {
		t.Errorf("gen = %d after FlushAll, want 3", h.Gen())
	}
}

func TestNoteRepeatL1HitStats(t *testing.T) {
	h := newSB()
	h.Insert(1, 0x1000, pagetable.Size4K, 0x2000, 0, false)
	if _, ok := h.Lookup(1, 0x1000, false); !ok {
		t.Fatal("miss after insert")
	}
	before := h.Stats()
	h.NoteRepeatL1Hit()
	after := h.Stats()
	if after.Lookups != before.Lookups+1 || after.L1Hits != before.L1Hits+1 {
		t.Errorf("NoteRepeatL1Hit: stats %+v -> %+v, want exactly one Lookup and one L1Hit more", before, after)
	}
	if after.Misses != before.Misses || after.L2Hits != before.L2Hits {
		t.Errorf("NoteRepeatL1Hit touched miss/L2 counters: %+v -> %+v", before, after)
	}
	// The memoized entry must still be resident and unchanged afterwards.
	if r, ok := h.Lookup(1, 0x1000, false); !ok || r.Level != 1 {
		t.Errorf("entry not an L1 hit after NoteRepeatL1Hit: ok=%v r=%+v", ok, r)
	}
}
