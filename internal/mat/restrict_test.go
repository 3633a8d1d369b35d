package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullOnly exposes only Dim and Apply, hiding an operator's Restrict so
// EigenSymTopK takes the full path.
type fullOnly struct{ op SymOp }

func (f fullOnly) Dim() int                   { return f.op.Dim() }
func (f fullOnly) Apply(dst, src [][]float64) { f.op.Apply(dst, src) }

// outcome renders one EigenSymTopK result as comparable bits: the hash
// of the pairs, or the error.
func outcome(es *Eigen, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("bits %#016x", eigenBits(es))
}

// sparseGram returns an n×cols data matrix whose rows are zero except
// for the given ones, which hold Gaussian entries (some exactly zero).
func sparseGram(rng *rand.Rand, n, cols int, rows []int) *Matrix {
	a := New(n, cols)
	for _, i := range rows {
		for j := 0; j < cols; j++ {
			if rng.Intn(5) != 0 {
				a.Set(i, j, rng.NormFloat64()*float64(1+i%3))
			}
		}
	}
	return a
}

// lowRankGram returns an n×cols matrix of rank r on the given rows,
// scaled small so that the rounding noise in the null directions stays
// below the Gram–Schmidt collapse threshold.
func lowRankGram(rng *rand.Rand, n, cols, r int, rows []int) *Matrix {
	a := New(n, cols)
	for c := 0; c < r; c++ {
		u := make([]float64, n)
		for _, i := range rows {
			u[i] = rng.NormFloat64()
		}
		for j := 0; j < cols; j++ {
			w := 1e-4 * rng.NormFloat64()
			for _, i := range rows {
				a.Set(i, j, a.At(i, j)+w*u[i])
			}
		}
	}
	return a
}

// TestEigenSymTopKRestrictedMatchesFull is the differential test of the
// support restriction: every case runs once through the operator
// (restricted whenever it qualifies) and once through fullOnly, serial
// and Parallel, and the two must agree bit for bit — or fail with the
// same error.
func TestEigenSymTopKRestrictedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	support := []int{2, 3, 5, 8, 13, 21, 22, 23, 34, 40, 41, 55, 60, 61, 62, 70, 77, 80, 89, 90, 91, 99, 100, 110, 111, 115}
	sparse := sparseGram(rng, 120, 40, support)
	inf := sparseGram(rng, 120, 40, support)
	inf.Set(21, 7, math.Inf(1))
	negInf := sparseGram(rng, 120, 40, support)
	negInf.Set(60, 3, math.Inf(-1))
	huge := sparseGram(rng, 120, 40, support) // finite, but A Aᵀ overflows
	for i := range huge.data {
		huge.data[i] *= 1e160
	}
	offInit := New(120, 4) // warm start with entries on every row, on and off the support
	for i := range offInit.data {
		offInit.data[i] = rng.NormFloat64()
	}
	cases := []struct {
		name string
		op   SymOp
		k    int
		opts TopKOptions
	}{
		{"gram-zero-rows", NewGramOp(gramFixture()), 9, TopKOptions{}},
		{"gram-sparse", NewGramOp(sparse), 9, TopKOptions{}},
		{"gram-sparse-block-equals-support", NewGramOp(sparse), 18, TopKOptions{MaxIter: 20}},
		{"gram-all-zero", NewGramOp(New(30, 6)), 3, TopKOptions{MaxIter: 5}},
		{"gram-inf", NewGramOp(inf), 4, TopKOptions{MaxIter: 5}},
		{"gram-neg-inf", NewGramOp(negInf), 4, TopKOptions{MaxIter: 5}},
		{"gram-overflow", NewGramOp(huge), 4, TopKOptions{MaxIter: 5}},
		{"gram-init-off-support", NewGramOp(sparse), 6, TopKOptions{Init: offInit, MaxIter: 8, Oversample: 5}},
		{"gram-rank-below-block", NewGramOp(lowRankGram(rng, 120, 40, 3, support)), 5, TopKOptions{MaxIter: 10}},
		{"gram-one-column", NewGramOp(sparseGram(rng, 120, 1, support)), 2, TopKOptions{MaxIter: 6}},
	}
	for _, c := range cases {
		for _, parallel := range []bool{false, true} {
			opts := c.opts
			opts.Parallel = parallel
			got := outcome(EigenSymTopK(c.op, c.k, opts))
			want := outcome(EigenSymTopK(fullOnly{c.op}, c.k, opts))
			if got != want {
				t.Errorf("%s parallel=%t: restricted %s, full %s", c.name, parallel, got, want)
			}
		}
	}
}

// TestRestrictedRunCollapsesOnLowRank pins the premise of the
// rank-below-block case above: on its own, the restricted run collapses
// (so only the fallback keeps the bits), while EigenSymTopK succeeds.
func TestRestrictedRunCollapsesOnLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	rows := []int{1, 4, 9, 16, 25, 36, 49, 64, 65, 66, 67, 68, 69, 70, 81, 100, 101, 102, 103, 104}
	op := NewGramOp(lowRankGram(rng, 110, 30, 3, rows))
	const k = 5
	opts := TopKOptions{MaxIter: 10}
	opts.fill(op.Dim(), k)
	b := k + opts.Oversample
	support, sub := op.Restrict()
	if sub == nil || len(support) < b {
		t.Fatalf("support %d for block %d: the restricted run would be skipped", len(support), b)
	}
	q, err := startBlock(op.Dim(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iterate(sub, gatherRows(q, support), k, opts, support, op.Dim()); !errors.Is(err, errRestricted) {
		t.Fatalf("restricted run: err = %v, want errRestricted (a collapse)", err)
	}
	es, err := EigenSymTopK(op, k, TopKOptions{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	full, err := EigenSymTopK(fullOnly{op}, k, TopKOptions{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if eigenBits(es) != eigenBits(full) {
		t.Fatal("fallback run differs from the full run")
	}
}

// TestGramRestrictContract checks GramOp.Restrict against its contract:
// the support is exactly the nonzero rows, and the gathered operator's
// output equals the full output gathered, bit for bit, with +0 off the
// support — for a source block with nonzero entries off the support.
func TestGramRestrictContract(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	rows := []int{0, 7, 8, 9, 30, 31, 59}
	a := sparseGram(rng, 60, 25, rows)
	a.Set(8, 3, math.Copysign(0, -1)) // a -0 entry is still zero
	op := NewGramOp(a)
	support, sub := op.Restrict()
	if len(support) != len(rows) {
		t.Fatalf("support %v, want %v", support, rows)
	}
	for i, r := range rows {
		if support[i] != r {
			t.Fatalf("support %v, want %v", support, rows)
		}
	}
	src := sparseBlock(rng, 6, op.Dim())
	full := newBlock(6, op.Dim())
	op.Apply(full, src)
	got := newBlock(6, len(support))
	sub.Apply(got, gatherRows(src, support))
	for v := range full {
		sameBits(t, "gathered apply", got[v], gatherRows(full[v:v+1], support)[0])
		on := 0
		for i, x := range full[v] {
			if on < len(support) && support[on] == i {
				on++
				continue
			}
			if math.Float64bits(x) != 0 {
				t.Fatalf("vector %d: off-support entry %d = %v, want +0", v, i, x)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		b := sparseGram(rng, 60, 25, rows)
		b.Set(30, 2, bad)
		if s, sub := NewGramOp(b).Restrict(); sub != nil {
			t.Fatalf("entry %v: restricted to %v, want no restriction", bad, s)
		}
	}
	if s, sub := NewGramOp(New(10, 4)).Restrict(); sub != nil || len(s) != 0 {
		t.Fatalf("all-zero matrix: support %v, operator %v", s, sub)
	}
}

// infOnShortBlock is a restricted operator that overflows in the final
// Rayleigh-quotient apply only: EigenSymTopK applies a block shorter
// than the iterated one there (serial runs only).
type infOnShortBlock struct {
	SymOp
	b int
}

func (o infOnShortBlock) Apply(dst, src [][]float64) {
	o.SymOp.Apply(dst, src)
	if len(dst) < o.b {
		dst[0][0] = math.Inf(1)
	}
}

// overflowingGram is a GramOp whose restricted form is infOnShortBlock.
type overflowingGram struct {
	*GramOp
	b int
}

func (o overflowingGram) Restrict() ([]int, SymOp) {
	support, sub := o.GramOp.Restrict()
	return support, infOnShortBlock{sub, o.b}
}

// TestRestrictedRunRejectsNonFiniteRitzValue checks that a restricted run
// whose final Rayleigh quotient overflows hands over to the full run:
// there, off the support, the full run's 0·∞ is NaN, so no restricted
// result can stand in for it.
func TestRestrictedRunRejectsNonFiniteRitzValue(t *testing.T) {
	g := NewGramOp(gramFixture())
	const k = 4
	opts := TopKOptions{MaxIter: 6}
	got := outcome(EigenSymTopK(overflowingGram{g, k + 8}, k, opts))
	want := outcome(EigenSymTopK(fullOnly{g}, k, opts))
	if got != want {
		t.Fatalf("restricted %s, full %s", got, want)
	}
}
