package heatmap

import "testing"

// FuzzCellIndex checks the paper's address filter + target-cell
// calculation against its specification for arbitrary region triples
// and addresses: accept exactly the addresses in [base, base+size),
// and map every accepted address to the cell whose range contains it.
func FuzzCellIndex(f *testing.F) {
	// In-region, both boundaries, one-below-base, one-past-end, and the
	// top of the address space.
	f.Add(uint64(0x1000), uint64(0x800), uint64(0x100), uint64(0x1234))
	f.Add(uint64(0x1000), uint64(0x800), uint64(0x100), uint64(0x1000))
	f.Add(uint64(0x1000), uint64(0x800), uint64(0x100), uint64(0x17ff))
	f.Add(uint64(0x1000), uint64(0x800), uint64(0x100), uint64(0x1800))
	f.Add(uint64(0x1000), uint64(0x800), uint64(0x100), uint64(0xfff))
	f.Add(uint64(0xC0008000), uint64(736*1024), uint64(2048), uint64(0xC0008000))
	// Partial final cell (size not a multiple of gran) at the boundary.
	f.Add(uint64(0x2000), uint64(0x301), uint64(0x100), uint64(0x2300))
	// Region touching the top of the address space.
	f.Add(^uint64(0xfff), uint64(0x1000), uint64(0x200), ^uint64(0))

	f.Fuzz(func(t *testing.T, base, size, gran, addr uint64) {
		d := Def{AddrBase: base, Size: size, Gran: gran}
		if d.Validate() != nil {
			t.Skip("invalid definition")
		}
		idx, ok := d.CellIndex(addr)
		inRegion := addr >= base && addr-base < size // overflow-safe form of addr < base+size
		if ok != inRegion {
			t.Fatalf("CellIndex(%#x) ok=%v, want %v for region [%#x,+%#x)", addr, ok, inRegion, base, size)
		}
		if !ok {
			if idx != 0 {
				t.Fatalf("rejected address returned idx %d", idx)
			}
			return
		}
		if idx < 0 || idx >= d.Cells() {
			t.Fatalf("idx %d outside [0,%d)", idx, d.Cells())
		}
		lo, hi, err := d.CellRange(idx)
		if err != nil {
			t.Fatalf("CellRange(%d): %v", idx, err)
		}
		if addr < lo || addr >= hi {
			t.Fatalf("addr %#x outside its cell %d range [%#x,%#x)", addr, idx, lo, hi)
		}
	})
}
