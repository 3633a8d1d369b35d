package mat

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// eigenBits hashes an eigendecomposition's values and vectors as FNV-1a
// over the float bits.
func eigenBits(es *Eigen) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	put(es.Values...)
	for i := 0; i < es.Vectors.Rows(); i++ {
		put(es.Vectors.Row(i)...)
	}
	return h.Sum64()
}

// gramFixture is a 90×70 mean-free-ish data matrix with two all-zero
// rows and scattered zero entries, so the Gram operator's per-vector
// zero-skip sees zero source entries on every iteration.
func gramFixture() *Matrix {
	rng := rand.New(rand.NewSource(71))
	a := New(90, 70)
	for i := range a.data {
		if rng.Intn(7) == 0 {
			continue
		}
		a.data[i] = rng.NormFloat64() * float64(1+i%5)
	}
	for j := 0; j < a.cols; j++ {
		a.Set(3, j, 0)
		a.Set(60, j, 0)
	}
	return a
}

// TestEigenSymTopKGoldenBits pins the exact bits of subspace iteration
// through both stock operators, cold and warm-started (the Init seeds
// exact zeros in rows the operator never touches), serial and Parallel.
func TestEigenSymTopKGoldenBits(t *testing.T) {
	a := gramFixture()
	gram := NewGramOp(a)
	dense := DenseOp{M: randSPD(rand.New(rand.NewSource(72)), 45)}

	init := New(90, 6)
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 90; i++ {
		if i == 3 || i == 60 {
			continue
		}
		for c := 0; c < 6; c++ {
			init.Set(i, c, rng.NormFloat64())
		}
	}
	cases := []struct {
		name   string
		op     SymOp
		k      int
		opts   TopKOptions
		golden uint64
	}{
		{"gram-cold", gram, 9, TopKOptions{}, 0x954fafb6d81f5d89},
		{"gram-warm", gram, 6, TopKOptions{Init: init, MaxIter: 8, Oversample: 5}, 0x6e2faa8e55e9a642},
		{"dense-cold", dense, 5, TopKOptions{Seed: 9}, 0x125012b744a5cddb},
	}
	for _, c := range cases {
		for _, parallel := range []bool{false, true} {
			opts := c.opts
			opts.Parallel = parallel
			es, err := EigenSymTopK(c.op, c.k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := eigenBits(es); got != c.golden {
				t.Errorf("%s parallel=%t: bits %#016x, golden %#016x", c.name, parallel, got, c.golden)
			}
		}
	}
}
