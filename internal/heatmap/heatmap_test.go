package heatmap

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// paperDef is the configuration from the paper's Fig. 1: Linux kernel
// .text at 0xC0008000, 3,013,284 bytes, δ = 2 KB → 1,472 cells.
var paperDef = Def{AddrBase: 0xC0008000, Size: 3013284, Gran: 2048}

func TestPaperFig1Parameters(t *testing.T) {
	if err := paperDef.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := paperDef.Cells(); got != 1472 {
		t.Errorf("Cells = %d, want 1472 (paper Fig. 1)", got)
	}
	if got := paperDef.ShiftBits(); got != 11 {
		t.Errorf("ShiftBits = %d, want 11", got)
	}
}

func TestDefValidate(t *testing.T) {
	cases := []struct {
		name string
		d    Def
		ok   bool
	}{
		{"paper", paperDef, true},
		{"zero size", Def{AddrBase: 0, Size: 0, Gran: 2048}, false},
		{"non pow2 gran", Def{AddrBase: 0, Size: 4096, Gran: 3000}, false},
		{"zero gran", Def{AddrBase: 0, Size: 4096, Gran: 0}, false},
		{"wraparound", Def{AddrBase: math.MaxUint64 - 10, Size: 100, Gran: 2}, false},
		{"gran 1", Def{AddrBase: 0, Size: 16, Gran: 1}, true},
	}
	for _, c := range cases {
		err := c.d.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", c.name, err)
		}
	}
}

func TestCellIndexPaperFormula(t *testing.T) {
	d := Def{AddrBase: 0x1000, Size: 0x2000, Gran: 0x100}
	cases := []struct {
		addr uint64
		idx  int
		ok   bool
	}{
		{0x1000, 0, true},          // first byte
		{0x10FF, 0, true},          // last byte of cell 0
		{0x1100, 1, true},          // first byte of cell 1
		{0x2FFF, 31, true},         // last byte of region
		{0x3000, 0, false},         // one past the end
		{0x0FFF, 0, false},         // one below base
		{0, 0, false},              // far below
		{math.MaxUint64, 0, false}, // far above
	}
	for _, c := range cases {
		idx, ok := d.CellIndex(c.addr)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("CellIndex(%#x) = (%d, %v), want (%d, %v)", c.addr, idx, ok, c.idx, c.ok)
		}
	}
}

func TestCellIndexMatchesShiftIdentity(t *testing.T) {
	// Property: for in-region addresses, idx == floor(offset/δ) and the
	// address falls inside CellRange(idx).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gran := uint64(1) << (3 + rng.Intn(12))
		d := Def{AddrBase: uint64(rng.Intn(1 << 30)), Size: gran*uint64(1+rng.Intn(100)) + uint64(rng.Intn(int(gran))), Gran: gran}
		if d.Validate() != nil {
			return true // skip invalid combos
		}
		addr := d.AddrBase + uint64(rng.Int63n(int64(d.Size)))
		idx, ok := d.CellIndex(addr)
		if !ok {
			return false
		}
		if idx != int((addr-d.AddrBase)/d.Gran) {
			return false
		}
		lo, hi, err := d.CellRange(idx)
		if err != nil {
			return false
		}
		return addr >= lo && addr < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCellRangePartialLastCell(t *testing.T) {
	d := Def{AddrBase: 0x1000, Size: 0x250, Gran: 0x100} // 3 cells, last partial
	if d.Cells() != 3 {
		t.Fatalf("Cells = %d", d.Cells())
	}
	lo, hi, err := d.CellRange(2)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0x1200 || hi != 0x1250 {
		t.Errorf("CellRange(2) = [%#x, %#x), want [0x1200, 0x1250)", lo, hi)
	}
	if _, _, err := d.CellRange(3); !errors.Is(err, ErrConfig) {
		t.Errorf("out-of-range cell: %v", err)
	}
	if _, _, err := d.CellRange(-1); !errors.Is(err, ErrConfig) {
		t.Errorf("negative cell: %v", err)
	}
}

func TestNewRejectsInvalidDef(t *testing.T) {
	if _, err := New(Def{Size: 10, Gran: 3}); !errors.Is(err, ErrConfig) {
		t.Errorf("New invalid: %v", err)
	}
}

func TestRecordAndTotal(t *testing.T) {
	h, err := New(Def{AddrBase: 0x1000, Size: 0x400, Gran: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Record(0x1000, 5) {
		t.Error("in-region record rejected")
	}
	if !h.Record(0x13FF, 7) {
		t.Error("last-byte record rejected")
	}
	if h.Record(0x1400, 1) {
		t.Error("out-of-region record accepted")
	}
	if h.Counts[0] != 5 || h.Counts[3] != 7 {
		t.Errorf("Counts = %v", h.Counts)
	}
	if h.Total() != 12 {
		t.Errorf("Total = %d", h.Total())
	}
	idx, cnt := h.MaxCell()
	if idx != 3 || cnt != 7 {
		t.Errorf("MaxCell = (%d, %d)", idx, cnt)
	}
}

func TestRecordSaturates(t *testing.T) {
	h, _ := New(Def{AddrBase: 0, Size: 0x100, Gran: 0x100})
	h.Counts[0] = math.MaxUint32 - 1
	h.Record(0, 10)
	if h.Counts[0] != math.MaxUint32 {
		t.Errorf("count = %d, want saturation at MaxUint32", h.Counts[0])
	}
	// Saturated counter stays saturated.
	h.Record(0, 1)
	if h.Counts[0] != math.MaxUint32 {
		t.Errorf("saturated counter moved to %d", h.Counts[0])
	}
}

func TestResetAndClone(t *testing.T) {
	h, _ := New(Def{AddrBase: 0, Size: 0x400, Gran: 0x100})
	h.Record(0x50, 3)
	h.Start, h.End = 100, 200
	c := h.Clone()
	h.Reset()
	if h.Total() != 0 || h.Start != 0 || h.End != 0 {
		t.Error("Reset incomplete")
	}
	if c.Total() != 3 || c.Start != 100 || c.End != 200 {
		t.Error("Clone shares state with original")
	}
	c.Counts[0] = 99
	if h.Counts[0] != 0 {
		t.Error("Clone aliases Counts")
	}
}

func TestVector(t *testing.T) {
	h, _ := New(Def{AddrBase: 0, Size: 0x300, Gran: 0x100})
	h.Record(0x100, 42)
	v := h.Vector()
	if len(v) != 3 || v[1] != 42 || v[0] != 0 {
		t.Errorf("Vector = %v", v)
	}
	v[1] = 0
	if h.Counts[1] != 42 {
		t.Error("Vector aliases counts")
	}
}

func TestL1Distance(t *testing.T) {
	d := Def{AddrBase: 0, Size: 0x200, Gran: 0x100}
	a, _ := New(d)
	b, _ := New(d)
	a.Counts[0], a.Counts[1] = 10, 0
	b.Counts[0], b.Counts[1] = 4, 9
	got, err := a.L1Distance(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Errorf("L1Distance = %d, want 15", got)
	}
	if d2, _ := b.L1Distance(a); d2 != got {
		t.Errorf("L1Distance asymmetric: %d vs %d", d2, got)
	}
	other, _ := New(Def{AddrBase: 0, Size: 0x100, Gran: 0x100})
	if _, err := a.L1Distance(other); !errors.Is(err, ErrConfig) {
		t.Errorf("L1Distance across defs: %v", err)
	}
}

func TestRecordConservationProperty(t *testing.T) {
	// Property: every in-region recorded count appears in Total; every
	// out-of-region record leaves Total unchanged.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Def{AddrBase: 0x8000, Size: 0x4000, Gran: 0x200})
		if err != nil {
			return false
		}
		var want uint64
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(0x10000))
			cnt := uint32(rng.Intn(50))
			in := h.Record(addr, cnt)
			expectIn := addr >= 0x8000 && addr < 0xC000
			if in != expectIn {
				return false
			}
			if in {
				want += uint64(cnt)
			}
		}
		return h.Total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRender(t *testing.T) {
	h, _ := New(Def{AddrBase: 0x1000, Size: 0x1000, Gran: 0x100})
	h.Record(0x1000, 100)
	h.Record(0x1800, 1)
	s := h.Render(8)
	if !strings.Contains(s, "cells=16") {
		t.Errorf("Render header missing cell count:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Header + 2 rows of 8 cells.
	if len(lines) != 3 {
		t.Errorf("Render rows = %d, want 3:\n%s", len(lines), s)
	}
	if !strings.Contains(s, "@") {
		t.Errorf("hottest cell not rendered hot:\n%s", s)
	}
	// Zero map renders without dividing by zero.
	z, _ := New(Def{AddrBase: 0, Size: 0x100, Gran: 0x100})
	if out := z.Render(0); out == "" {
		t.Error("empty render for zero map")
	}
}

// TestPackVectorsRejectsMalformedCounts: a map whose counts differ in
// length from its definition's cell count is ErrConfig, not a panic,
// wherever it sits in the set — also first, and also when every map in
// the set agrees on the wrong length.
func TestPackVectorsRejectsMalformedCounts(t *testing.T) {
	d := Def{AddrBase: 0, Size: 64, Gran: 8}
	a, _ := New(d)
	short := &HeatMap{Def: d, Counts: make([]uint32, d.Cells()-1)}
	if _, err := PackVectors([]*HeatMap{a, short}); !errors.Is(err, ErrConfig) {
		t.Errorf("short second map: %v, want ErrConfig", err)
	}
	long := &HeatMap{Def: d, Counts: make([]uint32, d.Cells()+1)}
	if _, err := PackVectors([]*HeatMap{a, long}); !errors.Is(err, ErrConfig) {
		t.Errorf("long second map: %v, want ErrConfig", err)
	}
	if _, err := PackVectors([]*HeatMap{short, a}); !errors.Is(err, ErrConfig) {
		t.Errorf("short first map: %v, want ErrConfig", err)
	}
	short2 := &HeatMap{Def: d, Counts: make([]uint32, d.Cells()-1)}
	if _, err := PackVectors([]*HeatMap{short, short2}); !errors.Is(err, ErrConfig) {
		t.Errorf("every map short: %v, want ErrConfig", err)
	}
}
