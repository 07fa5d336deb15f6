package pagetable

import (
	"fmt"
	"strings"
)

// Size identifies a translation page size.
type Size int

// Page sizes supported by the x86-64-style table (paper §V, "Large Page
// Support").
const (
	Size4K Size = iota
	Size2M
	Size1G
)

// Translation geometry. Levels are numbered from the root: level 0 is the
// top (PML4 in x86 terms, "L4" in the paper's Table II), level 3 is the
// leaf PTE level ("L1" in the paper). A 4K mapping terminates at level 3,
// a 2M mapping at level 2 (PS set), a 1G mapping at level 1 (PS set).
const (
	// NumLevels is the number of radix levels in the table.
	NumLevels = 4
	// IndexBits is the number of virtual-address bits consumed per level.
	IndexBits = 9
	// VABits is the number of translated virtual-address bits.
	VABits = 48
)

// Bytes returns the page size in bytes. It and Mask stay small enough to
// inline: the simulator masks addresses several times per TLB miss.
func (s Size) Bytes() uint64 {
	if uint(s) > uint(Size1G) {
		invalidSize(s)
	}
	return 1 << (12 + IndexBits*uint(s))
}

//go:noinline
func invalidSize(s Size) {
	panic(fmt.Sprintf("pagetable: invalid size %d", int(s)))
}

// LeafLevel returns the table level (0 = root) at which a mapping of this
// size terminates.
func (s Size) LeafLevel() int {
	switch s {
	case Size4K:
		return 3
	case Size2M:
		return 2
	case Size1G:
		return 1
	}
	panic(fmt.Sprintf("pagetable: invalid size %d", int(s)))
}

// Mask returns the mask selecting the page-offset bits for this size.
func (s Size) Mask() uint64 { return s.Bytes() - 1 }

// String returns the conventional name of the size.
func (s Size) String() string {
	switch s {
	case Size4K:
		return "4K"
	case Size2M:
		return "2M"
	case Size1G:
		return "1G"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// ParseSize parses a page-size name as written by Size.String, case
// insensitively, with the "KB"/"MB"/"GB" suffix forms. It is the one
// parser every flag and JSON decoder in the repository routes through.
func ParseSize(s string) (Size, error) {
	switch strings.ToUpper(s) {
	case "4K", "4KB":
		return Size4K, nil
	case "2M", "2MB":
		return Size2M, nil
	case "1G", "1GB":
		return Size1G, nil
	}
	return 0, fmt.Errorf("unknown page size %q (4K|2M|1G)", s)
}

// IndexAt extracts the radix index for the given level (0 = root) from a
// virtual address. Level 0 uses VA bits 47:39, level 3 bits 20:12.
func IndexAt(va uint64, level int) int {
	return int((va >> (39 - uint(level)*9)) & 0x1FF)
}

// PageBase returns va rounded down to a page boundary of size s.
func PageBase(va uint64, s Size) uint64 { return va &^ s.Mask() }

// SizeAtLevel returns the page size mapped by a leaf entry at the given
// level, and whether a leaf at that level is architecturally permitted.
func SizeAtLevel(level int) (Size, bool) {
	switch level {
	case 3:
		return Size4K, true
	case 2:
		return Size2M, true
	case 1:
		return Size1G, true
	}
	return Size4K, false
}
