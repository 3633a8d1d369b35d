package heatmap

import (
	"math"
	"math/rand"
	"testing"
)

func testDef(t *testing.T) Def {
	t.Helper()
	return Def{AddrBase: 0x1000, Size: 64 * 64, Gran: 64} // 64 cells
}

func TestSparsifyDenseRoundTrip(t *testing.T) {
	d := testDef(t)
	h, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	h.Start, h.End = 100, 200
	for _, c := range []struct {
		idx   int
		count uint32
	}{{0, 3}, {1, 9}, {5, 1}, {6, 2}, {7, 4}, {63, math.MaxUint32}} {
		h.Counts[c.idx] = c.count
	}

	sp := h.Sparsify(nil)
	if err := sp.Validate(); err != nil {
		t.Fatalf("Sparsify produced invalid runs: %v", err)
	}
	if got, want := len(sp.RunStart), 3; got != want {
		t.Errorf("runs = %d, want %d (cells 0-1, 5-7, 63)", got, want)
	}
	if sp.NNZ() != 6 {
		t.Errorf("NNZ = %d, want 6", sp.NNZ())
	}
	if sp.Start != 100 || sp.End != 200 {
		t.Errorf("interval = [%d,%d], want [100,200]", sp.Start, sp.End)
	}

	back := sp.Dense(nil)
	if back.Def != h.Def || back.Start != h.Start || back.End != h.End {
		t.Errorf("Dense header = %+v [%d,%d]", back.Def, back.Start, back.End)
	}
	for i, c := range h.Counts {
		if back.Counts[i] != c {
			t.Fatalf("cell %d: round-trip %d, want %d", i, back.Counts[i], c)
		}
	}
}

func TestSparsifyReusesBacking(t *testing.T) {
	d := testDef(t)
	h, _ := New(d)
	for i := 0; i < len(h.Counts); i += 3 {
		h.Counts[i] = uint32(i + 1)
	}
	sp := h.Sparsify(nil)
	allocs := testing.AllocsPerRun(100, func() {
		h.Sparsify(sp)
	})
	if allocs != 0 {
		t.Errorf("Sparsify into warm dst allocates %.1f times, want 0", allocs)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparseEdgeShapes(t *testing.T) {
	d := testDef(t)
	h, _ := New(d)

	// All-empty map: zero runs, and Dense of it is all zeros.
	sp := h.Sparsify(nil)
	if len(sp.RunStart) != 0 || sp.NNZ() != 0 {
		t.Fatalf("empty map produced runs %v", sp.RunStart)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	back := sp.Dense(nil)
	for i, c := range back.Counts {
		if c != 0 {
			t.Fatalf("cell %d nonzero after empty round-trip", i)
		}
	}

	// Fully-occupied map: exactly one run spanning the region.
	for i := range h.Counts {
		h.Counts[i] = 1
	}
	sp = h.Sparsify(sp)
	if len(sp.RunStart) != 1 || int(sp.RunLen[0]) != d.Cells() {
		t.Fatalf("full map runs = %v/%v, want one full-span run", sp.RunStart, sp.RunLen)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparseValidateRejects(t *testing.T) {
	d := testDef(t)
	mk := func(mut func(*Sparse)) *Sparse {
		h, _ := New(d)
		h.Counts[2], h.Counts[3], h.Counts[9] = 1, 2, 3
		sp := h.Sparsify(nil)
		mut(sp)
		return sp
	}
	cases := map[string]*Sparse{
		"zero count":      mk(func(s *Sparse) { s.Counts[0] = 0 }),
		"length mismatch": mk(func(s *Sparse) { s.RunLen = s.RunLen[:1] }),
		"overlapping":     mk(func(s *Sparse) { s.RunStart[1] = s.RunStart[0] }),
		"adjacent runs":   mk(func(s *Sparse) { s.RunStart[1] = s.RunStart[0] + s.RunLen[0] }),
		"negative length": mk(func(s *Sparse) { s.RunLen[0] = -1 }),
		"past region":     mk(func(s *Sparse) { s.RunStart[1] = int32(d.Cells()) }),
		"count shortfall": mk(func(s *Sparse) { s.Counts = s.Counts[:2] }),
	}
	for name, sp := range cases {
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid sparse map", name)
		}
	}
}

// FuzzSparseRoundTrip drives random dense maps through
// Sparsify → Validate → Dense and demands an exact count round-trip.
func FuzzSparseRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(30))
	f.Add(int64(2), uint8(1), uint8(0))
	f.Add(int64(3), uint8(255), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, ncells, density uint8) {
		cells := int(ncells)%256 + 1
		d := Def{AddrBase: 0, Size: uint64(cells) * 8, Gran: 8}
		h, err := New(d)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range h.Counts {
			if density > 0 && rng.Intn(256) < int(density) {
				h.Counts[i] = uint32(rng.Int63())
			}
		}
		sp := h.Sparsify(nil)
		if err := sp.Validate(); err != nil {
			t.Fatalf("invalid sparse form: %v", err)
		}
		back := sp.Dense(nil)
		for i, c := range h.Counts {
			if back.Counts[i] != c {
				t.Fatalf("cell %d: round-trip %d, want %d", i, back.Counts[i], c)
			}
		}
	})
}
