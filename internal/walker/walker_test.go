package walker

import (
	"errors"
	"math/rand"
	"testing"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/ptwc"
)

// vmFixture wires up a minimal virtual machine by hand: a host page table,
// a guest page table living in guest-physical space, and a shadow table.
// The VMM package builds these for real; here we build them directly so the
// walker is tested in isolation.
type vmFixture struct {
	t    testing.TB
	mem  *memsim.Memory
	hpt  *pagetable.Table // gPA ⇒ hPA
	gpt  *pagetable.Table // gVA ⇒ gPA
	spt  *pagetable.Table // gVA ⇒ hPA
	gs   *guestSpace
	gpaB uint64 // bump allocator for data gPAs
}

// guestSpace implements pagetable.Space for the guest page table: table
// pages are allocated at fresh guest-physical addresses, backed by host
// frames, and entered into the host page table.
type guestSpace struct {
	mem  *memsim.Memory
	hpt  *pagetable.Table
	next uint64
	back map[uint64]memsim.Frame
}

func (g *guestSpace) FrameFor(pa uint64) (memsim.Frame, bool) {
	f, ok := g.back[pa&^uint64(0xfff)]
	return f, ok
}

func (g *guestSpace) AllocTablePage() (uint64, error) {
	f, err := g.mem.AllocTable()
	if err != nil {
		return 0, err
	}
	gpa := g.next
	g.next += 4096
	g.back[gpa] = f
	if err := g.hpt.Map(gpa, f.Addr(), pagetable.Size4K, pagetable.FlagWrite); err != nil {
		return 0, err
	}
	return gpa, nil
}

func (g *guestSpace) FreeTablePage(pa uint64) error {
	f, ok := g.back[pa]
	if !ok {
		return errors.New("unknown guest table page")
	}
	delete(g.back, pa)
	_ = g.hpt.Unmap(pa, pagetable.Size4K)
	return g.mem.FreeFrame(f)
}

func newVM(t testing.TB) *vmFixture {
	t.Helper()
	mem := memsim.New(256 << 20)
	hpt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	gs := &guestSpace{mem: mem, hpt: hpt, next: 0x1000_0000, back: map[uint64]memsim.Frame{}}
	gpt, err := pagetable.New(mem, gs)
	if err != nil {
		t.Fatal(err)
	}
	spt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	return &vmFixture{t: t, mem: mem, hpt: hpt, gpt: gpt, spt: spt, gs: gs, gpaB: 0x2000_0000}
}

// mapGuest installs gva⇒gpa⇒hpa at the given size in gPT and hPT and
// returns (gpa, hpa).
func (v *vmFixture) mapGuest(gva uint64, size pagetable.Size) (gpa, hpa uint64) {
	v.t.Helper()
	n := int(size.Bytes() / 4096)
	f, err := v.mem.AllocContiguousAligned(n, n)
	if err != nil {
		v.t.Fatal(err)
	}
	hpa = f.Addr()
	gpa = (v.gpaB + size.Bytes() - 1) &^ size.Mask()
	v.gpaB = gpa + size.Bytes()
	if err := v.gpt.Map(gva, gpa, size, pagetable.FlagWrite|pagetable.FlagUser); err != nil {
		v.t.Fatal(err)
	}
	if err := v.hpt.Map(gpa, hpa, size, pagetable.FlagWrite); err != nil {
		v.t.Fatal(err)
	}
	return gpa, hpa
}

// shadowFill installs the full shadow mapping gva⇒hpa.
func (v *vmFixture) shadowFill(gva, hpa uint64, size pagetable.Size) {
	v.t.Helper()
	if err := v.spt.Map(gva, hpa, size, pagetable.FlagWrite|pagetable.FlagUser); err != nil {
		v.t.Fatal(err)
	}
}

// guestTableHPA returns the host-physical address of the guest table page
// at the given level (0=root) along gva's walk path.
func (v *vmFixture) guestTableHPA(gva uint64, level int) uint64 {
	v.t.Helper()
	gpa := v.gpt.Root()
	for l := 0; l < level; l++ {
		e, err := v.gpt.EntryAt(gva, l)
		if err != nil {
			v.t.Fatal(err)
		}
		gpa = e.Addr()
	}
	r, err := v.hpt.Lookup(gpa)
	if err != nil {
		v.t.Fatal(err)
	}
	return r.PA
}

// plantSwitch builds a partial shadow table for gva that walks
// 3-d levels in shadow mode then switches: d trailing guest levels run
// nested. d must be 1..3 here (d=4 is the RootSwitch register case).
func (v *vmFixture) plantSwitch(gva uint64, d int) {
	v.t.Helper()
	switchLevel := 3 - d // sPT level whose entry carries the switching bit
	if _, err := v.spt.EnsurePath(gva, switchLevel); err != nil {
		v.t.Fatal(err)
	}
	target := v.guestTableHPA(gva, switchLevel+1)
	e := pagetable.MakeEntry(target, pagetable.FlagPresent|pagetable.FlagSwitch)
	if err := v.spt.SetEntryAt(gva, switchLevel, e); err != nil {
		v.t.Fatal(err)
	}
}

func (v *vmFixture) regs(mode Mode) Regs {
	return Regs{
		Mode:    mode,
		Root:    v.spt.Root(),
		GPTRoot: v.gpt.Root(),
		HPTRoot: v.hpt.Root(),
		ASID:    1,
		VMID:    1,
	}
}

func TestNativeWalkRefs(t *testing.T) {
	mem := memsim.New(64 << 20)
	pt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x7f00_0000_1000, 0xabc000, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	w := New(mem, nil, nil)
	r, f := w.Walk(Regs{Mode: ModeNative, Root: pt.Root(), ASID: 1}, 0x7f00_0000_1234, false)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if r.Refs != 4 {
		t.Errorf("native refs = %d, want 4 (paper Table II)", r.Refs)
	}
	if r.HPA != 0xabc234 {
		t.Errorf("HPA = %#x", r.HPA)
	}
	if r.NestedLevels != 0 || r.LeafShadow {
		t.Errorf("classification: %+v", r)
	}
}

func TestNativeWalk2M(t *testing.T) {
	mem := memsim.New(64 << 20)
	pt, _ := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err := pt.Map(0x4020_0000, 0x8020_0000, pagetable.Size2M, 0); err != nil {
		t.Fatal(err)
	}
	w := New(mem, nil, nil)
	r, f := w.Walk(Regs{Mode: ModeNative, Root: pt.Root()}, 0x4020_0000+0x12345, false)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if r.Refs != 3 {
		t.Errorf("2M native refs = %d, want 3", r.Refs)
	}
	if r.Size != pagetable.Size2M || r.HPA != 0x8020_0000+0x12345 {
		t.Errorf("result = %+v", r)
	}
}

func TestNestedWalk24Refs(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x7f00_0000_0000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	w := New(v.mem, nil, nil)
	r, f := w.Walk(v.regs(ModeNested), gva|0x42, true)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if r.Refs != 24 {
		t.Errorf("nested refs = %d, want 24 (paper §II-A)", r.Refs)
	}
	if r.HPA != hpa|0x42 {
		t.Errorf("HPA = %#x, want %#x", r.HPA, hpa|0x42)
	}
	if r.NestedLevels != 4 || !r.GptrTranslated {
		t.Errorf("classification: nestedLevels=%d gptr=%v", r.NestedLevels, r.GptrTranslated)
	}
	// Hardware must have set guest A and D bits (write access).
	gr, err := v.gpt.Lookup(gva)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Entry.Accessed() || !gr.Entry.Dirty() {
		t.Errorf("guest A/D not set by nested walker: %v", gr.Entry)
	}
}

func TestNestedWalkReadDoesNotSetDirty(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x1000)
	v.mapGuest(gva, pagetable.Size4K)
	w := New(v.mem, nil, nil)
	if _, f := w.Walk(v.regs(ModeNested), gva, false); f != nil {
		t.Fatalf("fault: %v", f)
	}
	gr, _ := v.gpt.Lookup(gva)
	if !gr.Entry.Accessed() || gr.Entry.Dirty() {
		t.Errorf("A/D after read = %v", gr.Entry)
	}
}

func TestShadowWalkRefs(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x5555_5000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	v.shadowFill(gva, hpa, pagetable.Size4K)
	w := New(v.mem, nil, nil)
	r, f := w.Walk(v.regs(ModeShadow), gva|0x7, false)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if r.Refs != 4 {
		t.Errorf("shadow refs = %d, want 4", r.Refs)
	}
	if r.HPA != hpa|0x7 || !r.LeafShadow {
		t.Errorf("result = %+v", r)
	}
}

// TestAgileWalkDegreesOfNesting reproduces the reference counts of paper
// Table II / Table VI: shadow=4, then 8, 12, 16, 20 for switches with 1..4
// trailing nested levels, and 24 for full nested.
func TestAgileWalkDegreesOfNesting(t *testing.T) {
	wantRefs := map[int]int{1: 8, 2: 12, 3: 16, 4: 20}
	for d := 1; d <= 3; d++ {
		v := newVM(t)
		gva := uint64(0x7f12_3456_7000)
		_, hpa := v.mapGuest(gva, pagetable.Size4K)
		v.plantSwitch(gva, d)
		w := New(v.mem, nil, nil)
		r, f := w.Walk(v.regs(ModeAgile), gva|0x99, false)
		if f != nil {
			t.Fatalf("d=%d fault: %v", d, f)
		}
		if r.Refs != wantRefs[d] {
			t.Errorf("d=%d refs = %d, want %d", d, r.Refs, wantRefs[d])
		}
		if r.HPA != hpa|0x99 {
			t.Errorf("d=%d HPA = %#x, want %#x", d, r.HPA, hpa|0x99)
		}
		if r.NestedLevels != d || r.LeafShadow || r.GptrTranslated {
			t.Errorf("d=%d classification: %+v", d, r)
		}
	}

	// d=4: RootSwitch — walk starts nested at the guest root, 20 refs.
	v := newVM(t)
	gva := uint64(0x7f12_3456_7000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	regs := v.regs(ModeAgile)
	regs.RootSwitch = true
	regs.Root = v.guestTableHPA(gva, 0)
	w := New(v.mem, nil, nil)
	r, f := w.Walk(regs, gva, false)
	if f != nil {
		t.Fatalf("d=4 fault: %v", f)
	}
	if r.Refs != 20 || r.NestedLevels != 4 || r.GptrTranslated {
		t.Errorf("d=4: refs=%d nested=%d gptr=%v, want 20/4/false", r.Refs, r.NestedLevels, r.GptrTranslated)
	}
	if r.HPA != hpa {
		t.Errorf("d=4 HPA = %#x", r.HPA)
	}

	// Full nested through the agile state machine (sptr==gptr in Fig. 4).
	regs = v.regs(ModeAgile)
	regs.FullNested = true
	r, f = w.Walk(regs, gva, false)
	if f != nil {
		t.Fatalf("full-nested fault: %v", f)
	}
	if r.Refs != 24 || !r.GptrTranslated {
		t.Errorf("full nested refs = %d gptr=%v, want 24/true", r.Refs, r.GptrTranslated)
	}
}

func TestAgileFullShadow(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x1234_5000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	v.shadowFill(gva, hpa, pagetable.Size4K)
	w := New(v.mem, nil, nil)
	r, f := w.Walk(v.regs(ModeAgile), gva, false)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if r.Refs != 4 || r.NestedLevels != 0 || !r.LeafShadow {
		t.Errorf("full-shadow agile walk: %+v", r)
	}
}

func TestWalkFaults(t *testing.T) {
	v := newVM(t)
	w := New(v.mem, nil, nil)

	// Unmapped gVA under shadow: not-present fault at the root.
	_, f := w.Walk(v.regs(ModeShadow), 0xdead_0000, false)
	if f == nil || f.Kind != FaultNotPresent || f.Level != 0 {
		t.Errorf("shadow fault = %+v", f)
	}
	if f.Refs != 1 {
		t.Errorf("shadow fault refs = %d, want 1", f.Refs)
	}

	// A faulting store reports the write under the 1D walks too (the sPT
	// doubles as a native table: both hold host-physical pointers).
	_, f = w.Walk(v.regs(ModeShadow), 0xdead_0000, true)
	if f == nil || f.Kind != FaultNotPresent || !f.Write {
		t.Errorf("shadow store fault = %+v, want a not-present write", f)
	}
	_, f = w.Walk(Regs{Mode: ModeNative, Root: v.spt.Root(), ASID: 1}, 0xdead_0000, true)
	if f == nil || f.Kind != FaultNotPresent || !f.Write {
		t.Errorf("native store fault = %+v, want a not-present write", f)
	}

	// Unmapped gVA under nested: guest fault after gptr translation.
	_, f = w.Walk(v.regs(ModeNested), 0xdead_0000, false)
	if f == nil || f.Kind != FaultGuest || f.Level != 0 {
		t.Errorf("nested fault = %+v", f)
	}
	if f.Refs != 5 { // 4 for gptr + 1 guest root read
		t.Errorf("nested fault refs = %d, want 5", f.Refs)
	}

	// Mapped in gPT but hole in hPT: host fault carrying the gPA.
	gva := uint64(0x9000)
	gpa := uint64(0x7777_7000)
	if err := v.gpt.Map(gva, gpa, pagetable.Size4K, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	_, f = w.Walk(v.regs(ModeNested), gva, true)
	if f == nil || f.Kind != FaultHost || f.GPA != gpa {
		t.Errorf("host fault = %+v", f)
	}
	if f.Error() == "" {
		t.Error("fault Error() empty")
	}
}

func TestPWCAcceleratesWalks(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x7f00_0000_1000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	v.shadowFill(gva, hpa, pagetable.Size4K)
	w := New(v.mem, ptwc.New(ptwc.DefaultConfig()), nil)
	r1, f := w.Walk(v.regs(ModeShadow), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	if r1.Refs != 4 {
		t.Fatalf("cold shadow refs = %d", r1.Refs)
	}
	r2, f := w.Walk(v.regs(ModeShadow), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	if r2.Refs != 1 {
		t.Errorf("warm shadow refs = %d, want 1 (skip-3 PWC hit)", r2.Refs)
	}
}

func TestNTLBAcceleratesNestedWalks(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x7f00_0000_1000)
	v.mapGuest(gva, pagetable.Size4K)
	w := New(v.mem, ptwc.New(ptwc.DefaultConfig()), ptwc.NewNestedTLB(64, 4))
	r1, f := w.Walk(v.regs(ModeNested), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	if r1.Refs != 24 {
		t.Fatalf("cold nested refs = %d", r1.Refs)
	}
	// Warm: PWC resumes at the guest leaf table and the leaf gPA hits the
	// nested TLB: 1 reference.
	r2, f := w.Walk(v.regs(ModeNested), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	if r2.Refs != 1 {
		t.Errorf("warm nested refs = %d, want 1", r2.Refs)
	}
	// A neighbouring page in the same leaf table reuses the PWC pointer but
	// must host-translate its own leaf gPA: 1 + 4 refs.
	gva2 := gva + 0x1000
	v.mapGuest(gva2, pagetable.Size4K)
	r3, f := w.Walk(v.regs(ModeNested), gva2, false)
	if f != nil {
		t.Fatal(f)
	}
	if r3.Refs != 5 {
		t.Errorf("neighbour nested refs = %d, want 5", r3.Refs)
	}
}

func TestAgilePWCResumesInCorrectMode(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x7f12_3456_7000)
	v.mapGuest(gva, pagetable.Size4K)
	v.plantSwitch(gva, 1) // leaf level nested
	w := New(v.mem, ptwc.New(ptwc.DefaultConfig()), ptwc.NewNestedTLB(64, 4))
	r1, f := w.Walk(v.regs(ModeAgile), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	if r1.Refs != 8 {
		t.Fatalf("cold agile refs = %d, want 8", r1.Refs)
	}
	r2, f := w.Walk(v.regs(ModeAgile), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	// PWC hit at the guest leaf table (nested bit set) + NTLB hit for the
	// data page: 1 reference.
	if r2.Refs != 1 {
		t.Errorf("warm agile refs = %d, want 1", r2.Refs)
	}
	if r2.NestedLevels != 1 {
		t.Errorf("warm agile resumed in wrong mode: %+v", r2)
	}
}

// TestPWCResumeRule pins which PWC lines each start state resumes from: a
// walk takes a hit if it may switch, or if the line's nested bit equals its
// start mode. Native and shadow walks ignore nested lines; nested walks
// (including agile's FullNested) ignore 1D lines and still pay gptr; agile
// walks resume from either kind.
func TestPWCResumeRule(t *testing.T) {
	type want struct {
		refs, nestedLevels int
		gptr, leafShadow   bool
	}
	var (
		cold1D     = want{refs: 4}
		coldShadow = want{refs: 4, leafShadow: true}
		coldNested = want{refs: 24, nestedLevels: 4, gptr: true}
		warm1D     = want{refs: 1}
		warmShadow = want{refs: 1, leafShadow: true}
		// Resumed at the guest leaf table: 1 guest read + 4 host refs for
		// the leaf gPA (no nested TLB), and no gptr translation.
		warmNested = want{refs: 5, nestedLevels: 1}
	)
	rows := []struct {
		name                     string
		regs                     func(v *vmFixture) Regs
		cold, line1D, lineNested want
	}{
		{"native", func(v *vmFixture) Regs { return Regs{Mode: ModeNative, Root: v.spt.Root(), ASID: 1} },
			cold1D, warm1D, cold1D},
		{"shadow", func(v *vmFixture) Regs { return v.regs(ModeShadow) },
			coldShadow, warmShadow, coldShadow},
		{"nested", func(v *vmFixture) Regs { return v.regs(ModeNested) },
			coldNested, coldNested, warmNested},
		{"agile-full-nested", func(v *vmFixture) Regs {
			r := v.regs(ModeAgile)
			r.FullNested = true
			return r
		}, coldNested, coldNested, warmNested},
		{"agile", func(v *vmFixture) Regs { return v.regs(ModeAgile) },
			coldShadow, warmShadow, warmNested},
	}
	for _, row := range rows {
		for _, line := range []string{"cold", "1D", "nested"} {
			t.Run(row.name+"/"+line, func(t *testing.T) {
				v := newVM(t)
				gva := uint64(0x7f12_3456_7000)
				_, hpa := v.mapGuest(gva, pagetable.Size4K)
				v.shadowFill(gva, hpa, pagetable.Size4K)
				pwc := ptwc.New(ptwc.DefaultConfig())
				w := New(v.mem, pwc, nil)
				regs := row.regs(v)
				exp := row.cold
				switch line {
				case "1D":
					leaf, err := v.spt.EntryAt(gva, 2)
					if err != nil {
						t.Fatal(err)
					}
					pwc.Insert(regs.ASID, gva, 3, leaf.Addr(), false)
					exp = row.line1D
				case "nested":
					pwc.Insert(regs.ASID, gva, 3, v.guestTableHPA(gva, 3), true)
					exp = row.lineNested
				}
				r, f := w.Walk(regs, gva|0x42, false)
				if f != nil {
					t.Fatalf("fault: %v", f)
				}
				got := want{r.Refs, r.NestedLevels, r.GptrTranslated, r.LeafShadow}
				if got != exp {
					t.Errorf("walk = %+v, want %+v", got, exp)
				}
				if r.HPA != hpa|0x42 {
					t.Errorf("HPA = %#x, want %#x", r.HPA, hpa|0x42)
				}
			})
		}
	}
}

func TestNestedWalk2MGuestAndHost(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x4000_0000)
	_, hpa := v.mapGuest(gva, pagetable.Size2M)
	w := New(v.mem, nil, nil)
	r, f := w.Walk(v.regs(ModeNested), gva|0x12345, false)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	// gptr: 4 host refs (guest root is a 4K page in hPT); guest levels
	// 0,1 interior: each 1 + 4; guest level 2 leaf (2M): 1 + 3 host refs
	// (host maps the data as a 2M page).
	want := 4 + (1 + 4) + (1 + 4) + (1 + 3)
	if r.Refs != want {
		t.Errorf("2M nested refs = %d, want %d", r.Refs, want)
	}
	if r.Size != pagetable.Size2M || r.HPA != hpa|0x12345 {
		t.Errorf("result = %+v", r)
	}
}

func TestRecordingNestedTrace(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x7f00_0000_0000)
	v.mapGuest(gva, pagetable.Size4K)
	w := New(v.mem, nil, nil)
	w.SetRecording(true)
	r, f := w.Walk(v.regs(ModeNested), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	if len(r.Accesses) != 24 {
		t.Fatalf("recorded %d accesses, want 24", len(r.Accesses))
	}
	// Chronology of Figure 1(b): 4 hPT refs (gptr), then per guest level:
	// 1 gPT ref + 4 hPT refs.
	for i := 0; i < 4; i++ {
		if r.Accesses[i].Table != TableHost || r.Accesses[i].Level != i {
			t.Errorf("access %d = %+v, want hPT level %d", i, r.Accesses[i], i)
		}
	}
	for g := 0; g < 4; g++ {
		base := 4 + g*5
		if r.Accesses[base].Table != TableGuest || r.Accesses[base].Level != g {
			t.Errorf("access %d = %+v, want gPT level %d", base, r.Accesses[base], g)
		}
		for i := 1; i <= 4; i++ {
			if r.Accesses[base+i].Table != TableHost {
				t.Errorf("access %d = %+v, want hPT", base+i, r.Accesses[base+i])
			}
		}
	}
}

func TestRecordingAgileTrace(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x7f12_3456_7000)
	v.mapGuest(gva, pagetable.Size4K)
	v.plantSwitch(gva, 1)
	w := New(v.mem, nil, nil)
	w.SetRecording(true)
	r, f := w.Walk(v.regs(ModeAgile), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	// Figure 3(b): 3 sPT refs, 1 gPT leaf ref, 4 hPT refs.
	if len(r.Accesses) != 8 {
		t.Fatalf("recorded %d accesses, want 8", len(r.Accesses))
	}
	wantKinds := []TableKind{TableShadow, TableShadow, TableShadow, TableGuest, TableHost, TableHost, TableHost, TableHost}
	for i, k := range wantKinds {
		if r.Accesses[i].Table != k {
			t.Errorf("access %d = %v, want %v", i, r.Accesses[i].Table, k)
		}
	}
}

func TestHostWritabilityMergedIntoFlags(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x6000)
	gpa, _ := v.mapGuest(gva, pagetable.Size4K)
	// VMM write-protects the host page (content-based sharing, paper §V).
	if err := v.hpt.ClearFlags(gpa, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	w := New(v.mem, nil, nil)
	r, f := w.Walk(v.regs(ModeNested), gva, false)
	if f != nil {
		t.Fatal(f)
	}
	if r.Flags.Writable() {
		t.Error("host read-only page surfaced as writable")
	}
	// Guest dirty bit must not be set by a read of a host-RO page.
	gr, _ := v.gpt.Lookup(gva)
	if gr.Entry.Dirty() {
		t.Error("dirty set despite host write protection")
	}
}

func TestWalkerStats(t *testing.T) {
	v := newVM(t)
	gva := uint64(0x1000)
	_, hpa := v.mapGuest(gva, pagetable.Size4K)
	v.shadowFill(gva, hpa, pagetable.Size4K)
	w := New(v.mem, nil, nil)
	w.Walk(v.regs(ModeShadow), gva, false)
	w.Walk(v.regs(ModeNested), gva, false)
	w.Walk(v.regs(ModeShadow), 0xdead000, false) // faults
	s := w.Stats()
	if s.Walks != 2 {
		t.Errorf("Walks = %d, want 2 (faulting walk not counted)", s.Walks)
	}
	if s.Refs != 28 {
		t.Errorf("Refs = %d, want 28", s.Refs)
	}
	if s.Faults[FaultNotPresent] != 1 {
		t.Errorf("Faults = %v", s.Faults)
	}
	if s.ByNestedLevels[0] != 1 || s.ByNestedLevels[4] != 1 || s.FullNested != 1 {
		t.Errorf("classification counters = %+v", s)
	}
	w.ResetStats()
	if w.Stats().Walks != 0 {
		t.Error("ResetStats")
	}
}

func TestModeAndKindStrings(t *testing.T) {
	for m, want := range map[Mode]string{ModeNative: "native", ModeNested: "nested", ModeShadow: "shadow", ModeAgile: "agile"} {
		if m.String() != want {
			t.Errorf("%d.String() = %s", int(m), m.String())
		}
	}
	for k, want := range map[TableKind]string{TableNative: "PT", TableShadow: "sPT", TableGuest: "gPT", TableHost: "hPT"} {
		if k.String() != want {
			t.Errorf("TableKind %d = %s, want %s", int(k), k.String(), want)
		}
	}
	for f, want := range map[FaultKind]string{FaultNotPresent: "not-present", FaultGuest: "guest-not-present", FaultHost: "host-not-present"} {
		if f.String() != want {
			t.Errorf("FaultKind %d = %s, want %s", int(f), f.String(), want)
		}
	}
}

func TestNativeWalk1G(t *testing.T) {
	mem := memsim.New(64 << 20)
	pt, _ := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err := pt.Map(0x40000000, 0x80000000, pagetable.Size1G, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	w := New(mem, nil, nil)
	r, f := w.Walk(Regs{Mode: ModeNative, Root: pt.Root()}, 0x40000000+0x1234567, true)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if r.Refs != 2 {
		t.Errorf("1G native refs = %d, want 2 (levels 0 and 1)", r.Refs)
	}
	if r.Size != pagetable.Size1G || r.HPA != 0x80000000+0x1234567 {
		t.Errorf("result = %+v", r)
	}
	// Hardware set A and D on the 1G leaf.
	res, _ := pt.Lookup(0x40000000)
	if !res.Entry.Accessed() || !res.Entry.Dirty() {
		t.Errorf("1G leaf A/D = %v", res.Entry)
	}
}

func TestShadowWalk1G(t *testing.T) {
	mem := memsim.New(64 << 20)
	spt, _ := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err := spt.Map(0x40000000, 0x80000000, pagetable.Size1G, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	w := New(mem, nil, nil)
	r, f := w.Walk(Regs{Mode: ModeShadow, Root: spt.Root()}, 0x40000000, false)
	if f != nil {
		t.Fatalf("fault: %v", f)
	}
	if r.Refs != 2 || r.Size != pagetable.Size1G || !r.LeafShadow {
		t.Errorf("1G shadow walk = %+v", r)
	}
}

func TestNestedWalk1GGuestAndHost(t *testing.T) {
	// 1G guest page backed by a 1G host page: guest walk terminates at
	// level 1, and each host translation also terminates at level 1.
	mem := memsim.New(16 << 30)
	hpt, err := pagetable.New(mem, pagetable.HostSpace{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	gs := &guestSpace{mem: mem, hpt: hpt, next: 0x4000_0000_0000, back: map[uint64]memsim.Frame{}}
	gpt, err := pagetable.New(mem, gs)
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x40000000)
	gpa := uint64(1 << 30) // 1G-aligned guest-physical
	frames := int(pagetable.Size1G.Bytes() / memsim.FrameSize)
	f1, err := mem.AllocContiguousAligned(frames, frames)
	if err != nil {
		t.Fatal(err)
	}
	if err := gpt.Map(gva, gpa, pagetable.Size1G, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := hpt.Map(gpa, f1.Addr(), pagetable.Size1G, pagetable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	w := New(mem, nil, nil)
	regs := Regs{Mode: ModeNested, GPTRoot: gpt.Root(), HPTRoot: hpt.Root(), VMID: 1}
	r, fault := w.Walk(regs, gva|0x7654321, false)
	if fault != nil {
		t.Fatalf("fault: %v", fault)
	}
	// gptr: 4 host refs (guest root is a 4K page); guest level 0: 1 + 4;
	// guest level 1 leaf (1G): 1 + 2 host refs (host 1G leaf at level 1).
	want := 4 + (1 + 4) + (1 + 2)
	if r.Refs != want {
		t.Errorf("1G nested refs = %d, want %d", r.Refs, want)
	}
	if r.Size != pagetable.Size1G || r.HPA != f1.Addr()|0x7654321 {
		t.Errorf("result = %+v", r)
	}
}

// TestWalkMatchesSoftwareLookupProperty: across hundreds of random sparse
// mappings at random sizes, every hardware walk (all techniques, with and
// without MMU caches) must agree with the software page-table walks.
func TestWalkMatchesSoftwareLookupProperty(t *testing.T) {
	v := newVM(t)
	rng := rand.New(rand.NewSource(31))
	type mapping struct {
		gva  uint64
		size pagetable.Size
	}
	var maps []mapping
	overlaps := func(gva uint64, size pagetable.Size) bool {
		for _, m := range maps {
			lo, hi := m.gva, m.gva+m.size.Bytes()
			if gva < hi && gva+size.Bytes() > lo {
				return true
			}
		}
		return false
	}
	for len(maps) < 150 {
		size := pagetable.Size4K
		if rng.Intn(4) == 0 {
			size = pagetable.Size2M
		}
		gva := (rng.Uint64() % (1 << 40)) &^ size.Mask()
		if overlaps(gva, size) {
			continue
		}
		if err := v.gpt.Map(gva, 0, size, pagetable.FlagWrite); err != nil {
			v.gpt.Unmap(gva, size) // best effort; skip conflicts
			continue
		}
		v.gpt.Unmap(gva, size)
		gpa, _ := v.mapGuest(gva, size)
		_ = gpa
		maps = append(maps, mapping{gva, size})
	}
	// Build full shadow state for every mapping.
	for _, m := range maps {
		r, err := v.gpt.Lookup(m.gva)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := v.hpt.Lookup(r.PA)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.spt.Map(m.gva, pagetable.PageBase(hr.PA, m.size), m.size, pagetable.FlagWrite); err != nil {
			t.Fatal(err)
		}
	}
	for _, withCaches := range []bool{false, true} {
		var w *Walker
		if withCaches {
			w = New(v.mem, ptwc.New(ptwc.DefaultConfig()), ptwc.NewNestedTLB(32, 4))
		} else {
			w = New(v.mem, nil, nil)
		}
		for _, m := range maps {
			off := rng.Uint64() & m.size.Mask()
			gva := m.gva + off
			gr, err := v.gpt.Lookup(gva)
			if err != nil {
				t.Fatal(err)
			}
			hr, err := v.hpt.Lookup(gr.PA)
			if err != nil {
				t.Fatal(err)
			}
			want := hr.PA
			for _, mode := range []Mode{ModeNested, ModeShadow, ModeAgile} {
				r, fault := w.Walk(v.regs(mode), gva, false)
				if fault != nil {
					t.Fatalf("%v walk(%#x) faulted: %v", mode, gva, fault)
				}
				if r.HPA != want {
					t.Fatalf("%v walk(%#x) = %#x, software oracle %#x (caches=%v)",
						mode, gva, r.HPA, want, withCaches)
				}
			}
		}
	}
}
