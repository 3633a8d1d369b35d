package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 5, 9, 20} {
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.L()
		llt, err := Mul(l, l.T())
		if err != nil {
			t.Fatal(err)
		}
		diff := sub(llt, a)
		if diff.MaxAbs() > 1e-8*(1+a.MaxAbs()) {
			t.Errorf("n=%d: ||LLᵀ-A|| = %g", n, diff.MaxAbs())
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// diag(4, 9): det = 36, logdet = log 36.
	a, _ := FromRows([][]float64{{4, 0}, {0, 9}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ch.LogDet(), math.Log(36), 1e-12) {
		t.Errorf("LogDet = %g, want %g", ch.LogDet(), math.Log(36))
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	bad, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(bad); !errors.Is(err, ErrSingular) {
		t.Errorf("non-SPD: err = %v, want ErrSingular", err)
	}
	if _, err := NewCholesky(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: err = %v, want ErrShape", err)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 7}})
	es, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 3, -1}
	for i, w := range want {
		if !almostEq(es.Values[i], w, 1e-10) {
			t.Errorf("value[%d] = %g, want %g", i, es.Values[i], w)
		}
	}
}

func TestEigenSymProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 3, 5, 10, 25} {
		a := randSym(rng, n)
		es, err := EigenSym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Decreasing order.
		for i := 1; i < n; i++ {
			if es.Values[i] > es.Values[i-1]+1e-10 {
				t.Errorf("n=%d: values not decreasing at %d", n, i)
			}
		}
		// A v = λ v for each pair.
		for j := 0; j < n; j++ {
			v := es.Vectors.ColCopy(j)
			av, _ := a.MulVec(v)
			for i := 0; i < n; i++ {
				if !almostEq(av[i], es.Values[j]*v[i], 1e-7*(1+a.MaxAbs())) {
					t.Errorf("n=%d: residual (Av-λv)[%d] for pair %d = %g", n, i, j, av[i]-es.Values[j]*v[i])
				}
			}
		}
		// Orthonormal columns.
		vtv, _ := Mul(es.Vectors.T(), es.Vectors)
		diff := sub(vtv, Identity(n))
		if diff.MaxAbs() > 1e-9 {
			t.Errorf("n=%d: VᵀV deviates from I by %g", n, diff.MaxAbs())
		}
		// Trace preservation: sum of eigenvalues == trace(A).
		tr := trace(a)
		sum := 0.0
		for _, v := range es.Values {
			sum += v
		}
		if !almostEq(sum, tr, 1e-8*(1+math.Abs(tr))) {
			t.Errorf("n=%d: Σλ = %g, trace = %g", n, sum, tr)
		}
	}
}

func TestEigenSymRejects(t *testing.T) {
	if _, err := EigenSym(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: %v", err)
	}
	ns, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := EigenSym(ns); !errors.Is(err, ErrShape) {
		t.Errorf("non-symmetric: %v", err)
	}
}

func TestEigenSymQuickProperty(t *testing.T) {
	// Property: for random symmetric matrices the spectral reconstruction
	// V diag(λ) Vᵀ recovers A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randSym(rng, n)
		es, err := EigenSym(a)
		if err != nil {
			return false
		}
		d := New(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, es.Values[i])
		}
		vd, _ := Mul(es.Vectors, d)
		rec, _ := Mul(vd, es.Vectors.T())
		diff := sub(rec, a)
		return diff.MaxAbs() <= 1e-7*(1+a.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEigenSymTopKMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, k := 40, 5
	// PSD matrix so subspace iteration's assumptions hold.
	a := randSPD(rng, n)
	full, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	top, err := EigenSymTopK(DenseOp{M: a}, k, TopKOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !almostEq(top.Values[i], full.Values[i], 1e-6*(1+full.Values[0])) {
			t.Errorf("value[%d] = %g, full = %g", i, top.Values[i], full.Values[i])
		}
		// Vectors match up to sign.
		dot := math.Abs(Dot(top.Vectors.ColCopy(i), full.Vectors.ColCopy(i)))
		if !almostEq(dot, 1, 1e-5) {
			t.Errorf("vector %d misaligned: |dot| = %g", i, dot)
		}
	}
}

func TestEigenSymTopKGramOp(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n, cols, k := 30, 50, 4
	phi := New(n, cols)
	for i := range phi.data {
		phi.data[i] = rng.NormFloat64()
	}
	// Dense covariance (1/cols) Φ Φᵀ for reference.
	cov, _ := Mul(phi, phi.T())
	scale(cov, 1/float64(cols))

	full, err := EigenSym(cov)
	if err != nil {
		t.Fatal(err)
	}
	top, err := EigenSymTopK(NewGramOp(phi), k, TopKOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !almostEq(top.Values[i], full.Values[i], 1e-6*(1+full.Values[0])) {
			t.Errorf("value[%d] = %g, want %g", i, top.Values[i], full.Values[i])
		}
	}
}

func TestEigenSymTopKRejectsBadK(t *testing.T) {
	a := Identity(4)
	if _, err := EigenSymTopK(DenseOp{M: a}, 0, TopKOptions{}); !errors.Is(err, ErrShape) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := EigenSymTopK(DenseOp{M: a}, 5, TopKOptions{}); !errors.Is(err, ErrShape) {
		t.Errorf("k>n: %v", err)
	}
}

func TestEigenSymTopKLowRank(t *testing.T) {
	// Rank-2 operator: subspace iteration must survive the rank
	// deficiency thanks to re-randomized Gram-Schmidt.
	n := 20
	u1 := make([]float64, n)
	u2 := make([]float64, n)
	for i := 0; i < n; i++ {
		u1[i] = math.Sin(float64(i + 1))
		u2[i] = math.Cos(float64(2*i + 1))
	}
	Normalize(u1)
	// Orthogonalize u2 against u1.
	Axpy(-Dot(u1, u2), u1, u2)
	Normalize(u2)
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 5*u1[i]*u1[j]+2*u2[i]*u2[j])
		}
	}
	es, err := EigenSymTopK(DenseOp{M: a}, 3, TopKOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(es.Values[0], 5, 1e-8) || !almostEq(es.Values[1], 2, 1e-8) {
		t.Errorf("leading values = %v, want [5 2 ~0]", es.Values)
	}
	if math.Abs(es.Values[2]) > 1e-8 {
		t.Errorf("third value = %g, want ~0", es.Values[2])
	}
}

func TestGramOpMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	phi := New(12, 7)
	for i := range phi.data {
		phi.data[i] = rng.NormFloat64()
	}
	cov, _ := Mul(phi, phi.T())
	scale(cov, 1.0/7)
	g := NewGramOp(phi)
	if g.Dim() != 12 {
		t.Fatalf("Dim = %d", g.Dim())
	}
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, _ := cov.MulVec(x)
	got := make([]float64, 12)
	g.Apply([][]float64{got}, [][]float64{x})
	for i := range want {
		if !almostEq(got[i], want[i], 1e-10*(1+math.Abs(want[i]))) {
			t.Errorf("GramOp[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestEigenSymTopKParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	phi := New(50, 80)
	for i := range phi.data {
		phi.data[i] = rng.NormFloat64()
	}
	serial, err := EigenSymTopK(NewGramOp(phi), 6, TopKOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EigenSymTopK(NewGramOp(phi), 6, TopKOptions{Seed: 3, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Values {
		if serial.Values[i] != parallel.Values[i] {
			t.Fatalf("value %d: serial %g vs parallel %g", i, serial.Values[i], parallel.Values[i])
		}
	}
	for j := 0; j < 6; j++ {
		a := serial.Vectors.ColCopy(j)
		b := parallel.Vectors.ColCopy(j)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vector %d differs at %d", j, i)
			}
		}
	}
}
