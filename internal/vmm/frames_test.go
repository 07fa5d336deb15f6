package vmm

import (
	"math/rand"
	"testing"

	"agilepaging/internal/memsim"
	"agilepaging/internal/pagetable"
	"agilepaging/internal/walker"
)

// TestFrameTableMatchesHostTable: the frame table that guest page-table
// reads resolve host frames through must agree with the host table at
// every guest page, whatever changes the host leaves. Two VMs over one
// host memory run a random mix of guest allocations and frees (4K and 2M),
// intra- and inter-VM dedup, host copy-on-write breaks, host write
// protection and whole-machine resets, with 4K and with 2M host pages.
// After every step, each guest page up to the allocator's high-water mark
// and every page the table covers must map to the frame of the host
// table's translation of it, or be unrecorded where the host table has no
// mapping.
func TestFrameTableMatchesHostTable(t *testing.T) {
	for _, hps := range []pagetable.Size{pagetable.Size4K, pagetable.Size2M} {
		mem := memsim.New(512 << 20)
		cfg := DefaultConfig(walker.ModeAgile)
		cfg.RAMBytes = 8 << 20
		cfg.HostPageSize = hps
		var vms [2]*VM
		for i := range vms {
			vm, err := New(mem, NopMMU{}, uint16(i+1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			vms[i] = vm
		}
		var live [2][]uint64 // allocated 4K guest pages per VM
		pick := func(rng *rand.Rand, i int) (uint64, bool) {
			if len(live[i]) == 0 {
				return 0, false
			}
			return live[i][rng.Intn(len(live[i]))], true
		}
		check := func(step int) {
			t.Helper()
			for i, vm := range vms {
				end := max(vm.gpaNext, uint64(len(vm.frames))<<memsim.FrameShift)
				for gpa := uint64(0); gpa < end; gpa += memsim.FrameSize {
					var got memsim.Frame
					if g := gpa >> memsim.FrameShift; g < uint64(len(vm.frames)) {
						got = memsim.Frame(vm.frames[g])
					}
					want := memsim.Frame(0)
					if hpa, _, ok := vm.translateGPA(gpa); ok {
						want = memsim.FrameOf(hpa)
					}
					if got != want {
						t.Fatalf("%v host pages, step %d, vm %d: frame table maps gpa %#x to frame %#x, host table to %#x",
							hps, step, i, gpa, got, want)
					}
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(hps) + 1))
		for step := 0; step < 2000; step++ {
			i := rng.Intn(2)
			vm := vms[i]
			switch op := rng.Intn(20); {
			case op < 6:
				if gpa, err := vm.AllocGPA(pagetable.Size4K); err == nil {
					live[i] = append(live[i], gpa)
				}
			case op < 7:
				if rng.Intn(4) == 0 {
					_, _ = vm.AllocGPA(pagetable.Size2M)
				}
			case op < 9:
				if len(live[i]) > 0 {
					k := rng.Intn(len(live[i]))
					vm.FreeGPA(live[i][k], pagetable.Size4K)
					live[i] = append(live[i][:k], live[i][k+1:]...)
				}
			case op < 12:
				a, okA := pick(rng, i)
				b, okB := pick(rng, i)
				if okA && okB {
					_ = vm.DedupPages(a, b)
				}
			case op < 14:
				a, okA := pick(rng, 0)
				b, okB := pick(rng, 1)
				if okA && okB {
					_ = DedupAcrossVMs(vms[0], a, vms[1], b)
				}
			case op < 17:
				if gpa, ok := pick(rng, i); ok {
					_ = vm.HandleHostFault(gpa, true)
				}
			case op < 19:
				if gpa, ok := pick(rng, i); ok {
					_ = vm.WriteProtectHostPage(gpa)
				}
			default:
				if rng.Intn(10) == 0 {
					mem.Reset()
					for _, vm := range vms {
						if err := vm.Reset(cfg); err != nil {
							t.Fatal(err)
						}
					}
					live = [2][]uint64{}
				}
			}
			check(step)
		}
	}
}
