package pca

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
)

// randomModel returns a model over l cells with lp random basis columns
// and a random mean.
func randomModel(rng *rand.Rand, l, lp int) *Model {
	comps := mat.New(l, lp)
	mean := make([]float64, l)
	for i := 0; i < l; i++ {
		mean[i] = rng.NormFloat64()
		for j := 0; j < lp; j++ {
			comps.Set(i, j, rng.NormFloat64())
		}
	}
	return &Model{Mean: mean, Components: comps, Values: make([]float64, lp)}
}

// projectRef is the projection as one add chain per basis row over all
// L cells in ascending order, each term the cell value times the basis
// entry: the mat.Dot sweep the cell lists must reproduce bit for bit.
func projectRef(m *Model, v []float64) []float64 {
	l, lp := m.Dim()
	w := make([]float64, lp)
	for j := range w {
		s := 0.0
		for i := 0; i < l; i++ {
			s += v[i] * m.Components.At(i, j)
		}
		w[j] = s - mat.Dot(m.Components.ColCopy(j), m.Mean)
	}
	return w
}

// occupancyVector returns a length-l vector with exactly occ cells
// drawn as occupied. family 0 draws counts on +0 cells; family 1 draws
// NaN, ±Inf, subnormals and wide magnitudes on cells that are −0 or +0
// at random; family 2 draws subnormals only, on ±0 cells. A drawn value
// may itself be ±0, leaving its cell empty.
func occupancyVector(rng *rand.Rand, l, occ, family int) []float64 {
	v := make([]float64, l)
	if family != 0 {
		for i := range v {
			if rng.Intn(2) == 0 {
				v[i] = math.Copysign(0, -1)
			}
		}
	}
	for _, i := range rng.Perm(l)[:occ] {
		switch family {
		case 0:
			v[i] = float64(1 + rng.Intn(1<<20))
		case 1:
			v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e-310, 1e300, -1e-300, 0, math.Copysign(0, -1), 3.5}[rng.Intn(10)]
		default:
			v[i] = math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1)))
			if rng.Intn(2) == 0 {
				v[i] = -v[i]
			}
		}
	}
	return v
}

// sameProjection reports whether got equals want bit for bit; two NaNs
// match whatever their payloads, which depend on the operand order of
// an add with two NaN operands.
func sameProjection(got, want []float64) bool {
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) && !(math.IsNaN(got[j]) && math.IsNaN(want[j])) {
			return false
		}
	}
	return true
}

// checkProjectRoutes projects v through ProjectInto, through
// ProjectCellsInto with its occupied cells, and through
// ProjectCellsInto with every cell listed, and demands each match the
// single-chain reference and the dense MulVecInto sweep. It reports
// whether ProjectInto swept v densely rather than through a list.
func checkProjectRoutes(t *testing.T, name string, m *Model, v []float64) (dense bool) {
	t.Helper()
	_, lp := m.Dim()
	want := projectRef(m, v)
	sweep := make([]float64, lp)
	m.Prepare()
	if err := m.compT.MulVecInto(sweep, v); err != nil {
		t.Fatal(err)
	}
	for j := range sweep {
		sweep[j] -= m.meanOff[j]
	}
	if !sameProjection(sweep, want) {
		t.Fatalf("%s: MulVecInto sweep %v, reference %v", name, sweep, want)
	}
	var occupiedCells, all []int32
	for i, x := range v {
		if !mat.IsZero(x) {
			occupiedCells = append(occupiedCells, int32(i))
		}
		all = append(all, int32(i))
	}
	got := make([]float64, lp)
	if err := m.ProjectInto(got, v); err != nil {
		t.Fatal(err)
	}
	if !sameProjection(got, want) {
		t.Fatalf("%s: ProjectInto %v, reference %v", name, got, want)
	}
	for _, cells := range [][]int32{occupiedCells, all} {
		if err := m.ProjectCellsInto(got, v, cells); err != nil {
			t.Fatal(err)
		}
		if !sameProjection(got, want) {
			t.Fatalf("%s: ProjectCellsInto over %d cells %v, reference %v", name, len(cells), got, want)
		}
	}
	var vals [listCap]float64
	var cells [listCap]int32
	return ListOccupied(vals[:], cells[:], v) < 0
}

// TestProjectMatchesDense pins ProjectInto and ProjectCellsInto to the
// dense sweep at every occupancy from 0 to L, for every row grouping up
// to L' = 9: count vectors, vectors laden with NaN, ±Inf, −0 and
// subnormals, and vectors whose every term is subnormal. ProjectInto
// must take both of its routes.
func TestProjectMatchesDense(t *testing.T) {
	const l = 200
	rng := rand.New(rand.NewSource(61))
	for lp := 1; lp <= 9; lp++ {
		m := randomModel(rng, l, lp)
		routes := map[bool]int{}
		for occ := 0; occ <= l; occ++ {
			for family := 0; family < 3; family++ {
				name := fmt.Sprintf("L'=%d occupancy %d family %d", lp, occ, family)
				routes[checkProjectRoutes(t, name, m, occupancyVector(rng, l, occ, family))]++
			}
		}
		if routes[false] == 0 || routes[true] == 0 {
			t.Fatalf("L'=%d: %d vectors projected by cell list, %d densely; want both", lp, routes[false], routes[true])
		}
	}
	// A vector 20% occupied over L = 3,000 stays under the give-up rule
	// but fills the stack list, and is swept densely.
	m := randomModel(rng, 3000, 4)
	if !checkProjectRoutes(t, "L=3000 occupancy 600", m, occupancyVector(rng, 3000, 600, 0)) {
		t.Fatal("a list past listCap was not swept densely")
	}
}

// TestProjectNonFiniteBasisSweepsDensely checks that a basis with a NaN
// or ±Inf entry keeps the dense sweep: an infinite entry on a cell the
// vector leaves at ±0 makes that row's projection NaN (0·∞), which a
// cell list would have skipped.
func TestProjectNonFiniteBasisSweepsDensely(t *testing.T) {
	const l, lp = 120, 5
	rng := rand.New(rand.NewSource(62))
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		m := randomModel(rng, l, lp)
		m.Components.Set(7, 2, bad)
		v := occupancyVector(rng, l, 10, 0)
		v[7] = 0
		got := make([]float64, lp)
		if err := m.ProjectInto(got, v); err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(got[2]) {
			t.Fatalf("basis entry %v: ProjectInto row 2 = %v, want NaN from the dense sweep", bad, got[2])
		}
		checkProjectRoutes(t, fmt.Sprintf("basis entry %v", bad), m, v)
	}
}

// TestProjectCellsIntoRejectsBadLists checks the list contract: cells
// out of range or not strictly ascending are an error, as are wrong
// lengths.
func TestProjectCellsIntoRejectsBadLists(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(63)), 10, 3)
	v := make([]float64, 10)
	dst := make([]float64, 3)
	for _, cells := range [][]int32{{3, 3}, {4, 2}, {-1}, {10}} {
		if err := m.ProjectCellsInto(dst, v, cells); !errors.Is(err, ErrTraining) {
			t.Fatalf("cells %v: err %v, want ErrTraining", cells, err)
		}
	}
	if err := m.ProjectCellsInto(dst, v[:9], nil); !errors.Is(err, ErrTraining) {
		t.Fatalf("short vector: err %v", err)
	}
	if err := m.ProjectCellsInto(dst[:2], v, nil); !errors.Is(err, ErrTraining) {
		t.Fatalf("short dst: err %v", err)
	}
}

// TestProjectAllocationFree pins both projection entries at 0
// allocs/op once the projection cache is built.
func TestProjectAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	m := randomModel(rng, 1472, 9)
	v := occupancyVector(rng, 1472, 46, 0)
	var cells []int32
	for i, x := range v {
		if !mat.IsZero(x) {
			cells = append(cells, int32(i))
		}
	}
	dst := make([]float64, 9)
	if err := m.ProjectInto(dst, v); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() { _ = m.ProjectInto(dst, v) }); a != 0 {
		t.Fatalf("ProjectInto allocated %.1f/op", a)
	}
	if a := testing.AllocsPerRun(50, func() { _ = m.ProjectCellsInto(dst, v, cells) }); a != 0 {
		t.Fatalf("ProjectCellsInto allocated %.1f/op", a)
	}
}
