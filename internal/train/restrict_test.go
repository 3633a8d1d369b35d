package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
)

// fullOnly exposes only Dim and Apply, hiding Centered.Restrict so
// mat.EigenSymTopK takes the full path.
type fullOnly struct{ op mat.SymOp }

func (f fullOnly) Dim() int                   { return f.op.Dim() }
func (f fullOnly) Apply(dst, src [][]float64) { f.op.Apply(dst, src) }

// eigenOutcome renders an EigenSymTopK result as comparable bits (FNV-1a
// over the values and vectors), or the error.
func eigenOutcome(es *mat.Eigen, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
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
	return fmt.Sprintf("bits %#016x", h.Sum64())
}

// sparseWindow returns n samples of length l with integer counts on
// each of the given cells with probability 0.75, zero elsewhere.
func sparseWindow(rng *rand.Rand, n, l int, cells []int) [][]float64 {
	set := make([][]float64, n)
	for s := range set {
		set[s] = make([]float64, l)
		for k, c := range cells {
			if rng.Float64() < 0.75 {
				set[s][c] = 1 + math.Round(float64(3+k%11)*(1+rng.Float64()))
			}
		}
	}
	return set
}

// driftedSketch fills a window with fractional samples on 60 cells,
// then slides it fully onto samples that touch only 40 of them. The
// evictions leave rounding residue in the running sums, so the mean is
// nonzero on some of the 20 abandoned cells although no held sample
// touches them; those cells come back as meanOnly.
func driftedSketch(t *testing.T, workers int) (c *Centered, meanOnly []int) {
	t.Helper()
	const l, window = 250, 36
	rng := rand.New(rand.NewSource(301))
	cells := rng.Perm(l)[:60]
	frac := func(support []int) [][]float64 {
		set := make([][]float64, window)
		for s := range set {
			set[s] = make([]float64, l)
			for _, i := range support {
				if rng.Float64() < 0.8 {
					set[s][i] = 3 * rng.Float64()
				}
			}
		}
		return set
	}
	c, err := NewCentered(l, window, workers)
	if err != nil {
		t.Fatal(err)
	}
	push(t, c, frac(cells))
	push(t, c, frac(cells[20:]))
	for _, i := range cells[:20] {
		if !mat.IsZero(c.Mean()[i]) {
			meanOnly = append(meanOnly, i)
		}
	}
	if len(meanOnly) == 0 {
		t.Fatal("no abandoned cell kept a nonzero mean; the fixture does not drift")
	}
	sort.Ints(meanOnly)
	return c, meanOnly
}

// TestCenteredRestrictedEigenMatchesFull is the differential test of the
// sketch's support restriction: subspace iteration on each window, cold
// and warm-started from an Init with entries on every cell, must agree
// bit for bit with the full path the fullOnly wrapper forces — at one
// and two sketch workers, serial and Parallel.
func TestCenteredRestrictedEigenMatchesFull(t *testing.T) {
	const l = 300
	rng := rand.New(rand.NewSource(302))
	cells := rng.Perm(l)[:30]
	init := mat.New(l, 6)
	for i := 0; i < l; i++ {
		for j := 0; j < 6; j++ {
			init.Set(i, j, rng.NormFloat64())
		}
	}
	full := sparseWindow(rng, 64, l, cells)
	ragged := sparseWindow(rng, 29, l, cells)
	for _, workers := range []int{1, 2} {
		sketch := func(samples [][]float64) *Centered {
			c, err := NewCentered(l, 64, workers)
			if err != nil {
				t.Fatal(err)
			}
			push(t, c, samples)
			return c
		}
		drifted, _ := driftedSketch(t, workers)
		cases := []struct {
			name string
			c    *Centered
			k    int
			opts mat.TopKOptions
		}{
			{"sparse", sketch(full), 9, mat.TopKOptions{}},
			{"sparse-ragged-fill", sketch(ragged), 9, mat.TopKOptions{MaxIter: 40}},
			{"sparse-warm", sketch(full), 6, mat.TopKOptions{Init: init, MaxIter: 8}},
			{"empty", sketch(nil), 3, mat.TopKOptions{MaxIter: 4}},
			{"drifted-mean", drifted, 6, mat.TopKOptions{MaxIter: 30}},
		}
		for _, c := range cases {
			for _, parallel := range []bool{false, true} {
				opts := c.opts
				opts.Parallel = parallel
				got := eigenOutcome(mat.EigenSymTopK(c.c, c.k, opts))
				want := eigenOutcome(mat.EigenSymTopK(fullOnly{c.c}, c.k, opts))
				if got != want {
					t.Errorf("%s workers=%d parallel=%t: restricted %s, full %s", c.name, workers, parallel, got, want)
				}
			}
		}
	}
}

// TestCenteredRestrictContract checks Centered.Restrict against the
// mat.Restricter contract on a drifted window: the support is exactly
// the cells some held sample touches plus the cells with a nonzero
// mean, and the gathered operator's output equals the full output
// gathered, bit for bit, with +0 off the support.
func TestCenteredRestrictContract(t *testing.T) {
	c, meanOnly := driftedSketch(t, 1)
	var want []int
	for i := 0; i < c.Dim(); i++ {
		touched := !mat.IsZero(c.Mean()[i])
		for s := 0; s < c.Len(); s++ {
			touched = touched || !mat.IsZero(c.Sample(s)[i])
		}
		if touched {
			want = append(want, i)
		}
	}
	support, sub := c.Restrict()
	if sub == nil || fmt.Sprint(support) != fmt.Sprint(want) {
		t.Fatalf("support %v, want %v", support, want)
	}
	for _, i := range meanOnly {
		if k := sort.SearchInts(support, i); k == len(support) || support[k] != i {
			t.Fatalf("mean-only cell %d missing from the support", i)
		}
	}
	rng := rand.New(rand.NewSource(303))
	src := sketchData(5, c.Dim(), 304)
	dst := sketchData(5, c.Dim(), 305)
	c.Apply(dst, src)
	gsrc := make([][]float64, len(src))
	got := make([][]float64, len(src))
	for v := range src {
		gsrc[v] = make([]float64, len(support))
		got[v] = make([]float64, len(support))
		for k, i := range support {
			gsrc[v][k] = src[v][i]
		}
		got[v][rng.Intn(len(support))] = 7 // Apply must overwrite dst
	}
	sub.Apply(got, gsrc)
	for v := range dst {
		k := 0
		for i, x := range dst[v] {
			if k < len(support) && support[k] == i {
				if math.Float64bits(got[v][k]) != math.Float64bits(x) {
					t.Fatalf("vector %d cell %d: gathered %v, full %v", v, i, got[v][k], x)
				}
				k++
				continue
			}
			if math.Float64bits(x) != 0 {
				t.Fatalf("vector %d: off-support cell %d = %v, want +0", v, i, x)
			}
		}
	}

	empty, err := NewCentered(10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s, sub := empty.Restrict(); sub != nil || len(s) != 0 {
		t.Fatalf("empty window: support %v, operator %v", s, sub)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		v := make([]float64, 10)
		v[3], v[6] = 1, bad
		push(t, empty, [][]float64{v})
		if s, sub := empty.Restrict(); sub != nil {
			t.Fatalf("sample entry %v: restricted to %v, want no restriction", bad, s)
		}
	}
}
