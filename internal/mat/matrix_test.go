package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randSym(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// randSPD returns a random symmetric positive-definite matrix B Bᵀ + εI.
func randSPD(rng *rand.Rand, n int) *Matrix {
	b := New(n, n)
	for i := range b.data {
		b.data[i] = rng.NormFloat64()
	}
	m, err := Mul(b, b.T())
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+0.5)
	}
	return m
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("got %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %g, want 6", m.At(2, 1))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Errorf("ragged rows: err = %v, want ErrShape", err)
	}
	if _, err := FromRows(nil); !errors.Is(err, ErrShape) {
		t.Errorf("nil rows: err = %v, want ErrShape", err)
	}
}

func TestIdentityAndTrace(t *testing.T) {
	id := Identity(4)
	if tr := trace(id); tr != 4 {
		t.Errorf("trace(I4) = %g, want 4", tr)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I4[%d][%d] = %g, want %g", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b, _ := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, a); !errors.Is(err, ErrShape) {
		t.Errorf("mismatched Mul: err = %v, want ErrShape", err)
	}
}

func TestMulVecAndTMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", y)
	}
	z, err := a.T().MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Errorf("AᵀMulVec = %v, want [5 7 9]", z)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec mismatch: err = %v", err)
	}
}

func TestTransposeProperty(t *testing.T) {
	// Property: (Aᵀ)ᵀ == A for random shapes and data.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := New(r, c)
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		tt := a.T().T()
		for i := range a.data {
			if tt.data[i] != a.data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowColAccessors(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r := a.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Errorf("Row = %v", r)
	}
	r[0] = 99
	if a.At(1, 0) != 99 {
		t.Error("Row is not a view of the matrix")
	}
	c := a.ColCopy(2)
	if c[0] != 3 || c[1] != 6 {
		t.Errorf("ColCopy = %v", c)
	}
	c[0] = 42
	if a.At(0, 2) != 3 {
		t.Error("ColCopy aliases the matrix")
	}
}

func TestIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randSym(rng, 5)
	if !s.IsSymmetric(0) {
		t.Error("randSym not symmetric")
	}
	s.Set(0, 1, s.At(0, 1)+1)
	if s.IsSymmetric(1e-9) {
		t.Error("perturbed matrix still symmetric")
	}
	if New(2, 3).IsSymmetric(1) {
		t.Error("non-square reported symmetric")
	}
}

func TestStringForms(t *testing.T) {
	small, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := small.String(); got == "" {
		t.Error("empty String for small matrix")
	}
	big := New(20, 20)
	if got := big.String(); got == "" {
		t.Error("empty String for big matrix")
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{3, 4}
	if Norm2(a) != 5 {
		t.Errorf("Norm2 = %g, want 5", Norm2(a))
	}
	if Norm2([]float64{0, 0}) != 0 {
		t.Error("Norm2 of zero vector")
	}
	if Dot(a, []float64{1, 2}) != 11 {
		t.Errorf("Dot = %g", Dot(a, []float64{1, 2}))
	}
	y := []float64{1, 1}
	Axpy(2, a, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	v := []float64{3, 4}
	if n := Normalize(v); n != 5 || !almostEq(Norm2(v), 1, 1e-12) {
		t.Errorf("Normalize: n=%g, |v|=%g", n, Norm2(v))
	}
	z := []float64{0, 0}
	if n := Normalize(z); n != 0 {
		t.Errorf("Normalize zero: %g", n)
	}
	if DistEuclid([]float64{0, 0}, []float64{3, 4}) != 5 {
		t.Error("DistEuclid")
	}
}

func TestVectorPanicsOnMismatch(t *testing.T) {
	cases := []func(){
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { Axpy(1, []float64{1}, []float64{1, 2}) },
		func() { DistEuclid([]float64{1}, []float64{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNorm2ExtremeValues(t *testing.T) {
	// Scaled accumulation must not overflow for huge components.
	v := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt(2)
	if got := Norm2(v); !almostEq(got/want, 1, 1e-12) {
		t.Errorf("Norm2 overflowed: got %g, want %g", got, want)
	}
}
