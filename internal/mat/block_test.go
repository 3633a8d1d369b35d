package mat

import (
	"math"
	"math/rand"
	"testing"
)

// refDot, refAxpy, refGramApply and refDenseApply are the one-vector
// operator paths the block kernels replaced, kept as oracles: the block
// code must reproduce them bit for bit.
func refDot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func refAxpy(s float64, x, y []float64) {
	for i, v := range x {
		y[i] += s * v
	}
}

func refGramApply(a *Matrix, dst, src []float64) {
	t := make([]float64, a.Cols())
	for i := 0; i < a.Rows(); i++ {
		if src[i] == 0 {
			continue
		}
		refAxpy(src[i], a.Row(i), t)
	}
	inv := 1 / float64(a.Cols())
	for i := 0; i < a.Rows(); i++ {
		dst[i] = refDot(a.Row(i), t) * inv
	}
}

func refDenseApply(m *Matrix, dst, src []float64) {
	for i := 0; i < m.Rows(); i++ {
		dst[i] = refDot(m.Row(i), src)
	}
}

// sameBits fails unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#016x), want %v (%#016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sparseBlock returns b random vectors of length n in which roughly one
// entry in four is zero — including whole runs of four, and entries
// of -0 — so the Gram operator's per-vector zero-skip takes both its
// all-nonzero and its mixed branch.
func sparseBlock(rng *rand.Rand, b, n int) [][]float64 {
	out := newBlock(b, n)
	for v, x := range out {
		for i := range x {
			switch r := rng.Intn(8); {
			case r == 0:
				x[i] = 0
			case r == 1:
				x[i] = math.Copysign(0, -1)
			default:
				x[i] = rng.NormFloat64()
			}
		}
		if v%3 == 0 && n >= 8 {
			for i := 4; i < 8; i++ {
				x[i] = 0
			}
		}
	}
	return out
}

func TestDot4Axpy4MatchSingleChains(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for n := 0; n <= 9; n++ {
		vs := newBlock(6, n+1)
		for _, v := range vs {
			for i := range v {
				v[i] = rng.NormFloat64() * 1e3
			}
		}
		x, a, b, c, d, y := vs[0][:n], vs[1][:n], vs[2][:n], vs[3][:n], vs[4][:n], vs[5][:n]
		s0, s1, s2, s3 := Dot4(x, a, b, c, d)
		sameBits(t, "Dot4", []float64{s0, s1, s2, s3},
			[]float64{refDot(a, x), refDot(b, x), refDot(c, x), refDot(d, x)})
		want := append([]float64(nil), y...)
		refAxpy(s0, a, want)
		refAxpy(s1, b, want)
		refAxpy(s2, c, want)
		refAxpy(s3, d, want)
		Axpy4(y, s0, s1, s2, s3, a, b, c, d)
		sameBits(t, "Axpy4", y, want)
	}
}

// TestBlockApplyMatchesSingleVector drives both stock operators at
// every block size from 1 to 17 (every remainder of the four-wide
// kernels) and checks each output row bit for bit against the same
// operator applied to a block of one and against the one-vector oracle.
func TestBlockApplyMatchesSingleVector(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	a := gramFixture() // 90 rows: a row remainder of two
	// An infinite entry makes the zero-skip observable: a vector whose
	// source entry for row 7 is zero must skip that row, not fold 0·∞.
	inf := gramFixture()
	inf.Set(7, 5, math.Inf(1))
	dense := randSPD(rng, 45)
	ops := []struct {
		name string
		op   SymOp
		ref  func(dst, src []float64)
	}{
		{"gram", NewGramOp(a), func(dst, src []float64) { refGramApply(a, dst, src) }},
		{"gram-inf", NewGramOp(inf), func(dst, src []float64) { refGramApply(inf, dst, src) }},
		{"dense", DenseOp{M: dense}, func(dst, src []float64) { refDenseApply(dense, dst, src) }},
	}
	for _, o := range ops {
		n := o.op.Dim()
		for b := 1; b <= 17; b++ {
			src := sparseBlock(rng, b, n)
			for v := 0; v < b; v += 2 {
				src[v][7] = 0
			}
			dst := newBlock(b, n)
			o.op.Apply(dst, src)
			one := newBlock(1, n)
			want := make([]float64, n)
			for v := range src {
				o.op.Apply(one, src[v:v+1])
				sameBits(t, o.name+" block-of-one", dst[v], one[0])
				o.ref(want, src[v])
				sameBits(t, o.name+" oracle", dst[v], want)
			}
		}
	}
}

// TestApplyBlockSplitsBitIdentical checks every range split of a block
// — not only the few GOMAXPROCS yields on the host — reproduces the
// unsplit apply.
func TestApplyBlockSplitsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	op := NewGramOp(gramFixture())
	n := op.Dim()
	src := sparseBlock(rng, 17, n)
	base := newBlock(17, n)
	op.Apply(base, src)
	for parts := 1; parts <= 17; parts++ {
		got := newBlock(17, n)
		applyBlock(op, got, src, parts)
		for v := range got {
			sameBits(t, "split", got[v], base[v])
		}
	}
}

// TestMulVecIntoMatchesDot pins the four-row MulVecInto against one Dot
// per row, at every row remainder.
func TestMulVecIntoMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for rows := 1; rows <= 9; rows++ {
		m := New(rows, 13)
		for i := range m.data {
			m.data[i] = rng.NormFloat64()
		}
		x := sparseBlock(rng, 1, 13)[0]
		got := make([]float64, rows)
		if err := m.MulVecInto(got, x); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, rows)
		refDenseApply(m, want, x)
		sameBits(t, "MulVecInto", got, want)
	}
}

// TestBlockApplyAllocationFree pins the steady-state zero-alloc
// contract of the Gram operator's pooled block scratch.
func TestBlockApplyAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	op := NewGramOp(gramFixture())
	src := sparseBlock(rng, 17, op.Dim())
	dst := newBlock(17, op.Dim())
	op.Apply(dst, src)
	if allocs := testing.AllocsPerRun(20, func() { op.Apply(dst, src) }); allocs != 0 {
		t.Fatalf("GramOp.Apply allocated %.1f/op, want 0", allocs)
	}
}
