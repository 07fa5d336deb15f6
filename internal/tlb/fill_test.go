package tlb

import (
	"testing"

	"agilepaging/internal/pagetable"
)

// FuzzFillMatchesReprobe checks the fill-is-hit rule behind the simulator's
// miss path. Two hierarchies run one op sequence. After a lookup misses,
// both insert the walk's translation; one then re-probes with Lookup, the
// other takes Insert's Result and accounts it with NoteRepeatL1Hit, as
// cpu.Machine does, re-probing only when Insert reports that no L1 array
// took the line. Every Lookup result, hit level and Stats snapshot must be
// identical at every step, so neither the skipped probe's clock ticks nor
// its LRU touch can ever change a later victim choice. The sequence mixes
// 4K, 2M and 1G fills on both sides under four ASIDs with INVLPGs (which
// empty the small large-page arrays), ASID and global flushes and resets;
// the leading byte picks a geometry, one of which lacks the 1G data and 2M
// instruction arrays. Each array's valid-line count is checked against its
// lines after every op.
func FuzzFillMatchesReprobe(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x01, 0x00, 0x00, 0x01, 0x00, 0x40, 0x02, 0x08, 0x80, 0x03, 0x10})
	// Fill a 1G page, INVLPG it (the 1G array empties), probe it, refill.
	f.Add([]byte{0, 0x80, 0x05, 0x00, 0x84, 0x05, 0x00, 0x80, 0x05, 0x00, 0x80, 0x05, 0x00, 0x00, 0x05, 0x00})
	// Instruction-side 1G and 2M fills, which splinter in every geometry.
	f.Add([]byte{2, 0xa0, 0x07, 0x01, 0xa0, 0x07, 0x01, 0x60, 0x09, 0x02, 0x20, 0x09, 0x02, 0xa0, 0x17, 0x11})
	// Conflicting 4K fills, ASID flush, global fill, full flush, reset.
	f.Add([]byte{1, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x20, 0x00, 0x00, 0x30, 0x00, 0x05, 0x00, 0x00,
		0x00, 0x00, 0x80, 0x06, 0x00, 0x00, 0x00, 0x00, 0x80, 0x07, 0x00, 0x08, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := SandyBridgeConfig().Scaled([]int{1, 8, 64}[int(data[0])%3])
		reprobe, fused := NewHierarchy(cfg), NewHierarchy(cfg)
		for i := 1; i+3 <= len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			asid := uint16(1 + op>>3&3)
			fetch := op>>5&1 == 1
			size := pagetable.Size(op >> 6 % 3)
			va := uint64(a&0x1f)<<12 | uint64(a>>5)<<21 | uint64(b&1)<<30 | uint64(b>>4)<<3
			switch op & 7 {
			case 4:
				reprobe.InvalidatePage(asid, va)
				fused.InvalidatePage(asid, va)
			case 5:
				reprobe.FlushASID(asid)
				fused.FlushASID(asid)
			case 6:
				reprobe.FlushAll()
				fused.FlushAll()
			case 7:
				if b&7 == 0 {
					reprobe.Reset()
					fused.Reset()
					break
				}
				fallthrough
			default:
				r1, ok1 := reprobe.Lookup(asid, va, fetch)
				r2, ok2 := fused.Lookup(asid, va, fetch)
				if ok1 != ok2 || r1 != r2 {
					t.Fatalf("op %d: lookup(%d, %#x, fetch=%v) = %+v/%v vs %+v/%v", i, asid, va, fetch, r1, ok1, r2, ok2)
				}
				if ok1 {
					break
				}
				paBase := uint64(asid)<<36 | 1<<35 | pagetable.PageBase(va, size)
				flags := pagetable.FlagPresent
				if b&2 != 0 {
					flags |= pagetable.FlagWrite
				}
				if b&4 != 0 {
					flags |= pagetable.FlagGlobal
				}
				reprobe.Insert(asid, va, size, paBase, flags, fetch)
				r1, ok1 = reprobe.Lookup(asid, va, fetch)
				r2, ok2 = fused.Insert(asid, va, size, paBase, flags, fetch)
				if ok2 {
					fused.NoteRepeatL1Hit()
				} else {
					r2, ok2 = fused.Lookup(asid, va, fetch)
				}
				if ok1 != ok2 || r1 != r2 {
					t.Fatalf("op %d: fill of %v at %#x (fetch=%v): re-probe %+v/%v, fused %+v/%v", i, size, va, fetch, r1, ok1, r2, ok2)
				}
				if ok1 && r1.PA != paBase|va&size.Mask() {
					t.Fatalf("op %d: fill of %v at %#x translates to %#x, want %#x", i, size, va, r1.PA, paBase|va&size.Mask())
				}
			}
			if s1, s2 := reprobe.Stats(), fused.Stats(); s1 != s2 {
				t.Fatalf("op %d: stats diverge: re-probe %+v, fused %+v", i, s1, s2)
			}
			for _, h := range []*Hierarchy{reprobe, fused} {
				for _, c := range h.all {
					n := 0
					for _, l := range c.lines {
						if l.valid {
							n++
						}
					}
					if n != c.nvalid {
						t.Fatalf("op %d: %v array counts %d valid lines, holds %d", i, c.size, c.nvalid, n)
					}
				}
			}
		}
	})
}
