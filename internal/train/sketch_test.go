package train

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
)

// occupied lists the cells of v that are not ±0, ascending: the list
// Centered.Update takes.
func occupied(v []float64) []int32 {
	var cells []int32
	for i, x := range v {
		if !mat.IsZero(x) {
			cells = append(cells, int32(i))
		}
	}
	return cells
}

// push feeds the samples to c one Update at a time.
func push(tb testing.TB, c *Centered, samples [][]float64) {
	tb.Helper()
	for _, v := range samples {
		if err := c.Update(v, occupied(v)); err != nil {
			tb.Fatal(err)
		}
	}
}

func sketchData(n, l int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	set := make([][]float64, n)
	for i := range set {
		v := make([]float64, l)
		for j := range v {
			v[j] = rng.NormFloat64() + float64(j%7)
		}
		set[i] = v
	}
	return set
}

// TestCenteredMatchesBuildOnFirstFill pins the contract that a sketch
// filled once from empty reproduces BuildCentered's mean bit for bit
// (same per-tile sums, same final division) and its total variance to
// rounding.
func TestCenteredMatchesBuildOnFirstFill(t *testing.T) {
	for _, shape := range []struct{ n, l int }{{64, 64}, {100, 700}, {3, 5}} {
		set := sketchData(shape.n, shape.l, 11)
		mean, _, tv := BuildCentered(set, 1)

		c, err := NewCentered(shape.l, shape.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		push(t, c, set)
		for i, v := range mean {
			if math.Float64bits(v) != math.Float64bits(c.Mean()[i]) {
				t.Fatalf("n=%d l=%d: mean[%d] %v vs %v", shape.n, shape.l, i, v, c.Mean()[i])
			}
		}
		if d := math.Abs(tv - c.TotalVar()); d > 1e-9*(1+math.Abs(tv)) {
			t.Fatalf("n=%d l=%d: totalVar %v vs %v", shape.n, shape.l, tv, c.TotalVar())
		}
	}
}

// TestCenteredEviction pushes past the window and checks the running
// sums agree with an exact rebuild over the surviving samples.
func TestCenteredEviction(t *testing.T) {
	const l, window = 33, 40
	set := sketchData(97, l, 5) // 2.4 windows worth, odd remainders
	c, err := NewCentered(l, window, 1)
	if err != nil {
		t.Fatal(err)
	}
	push(t, c, set)
	if c.Len() != window {
		t.Fatalf("Len = %d, want %d", c.Len(), window)
	}
	// The ring must hold exactly the last `window` samples (in some slot
	// order); verify as a multiset via sorted first-coordinates.
	want := map[float64]int{}
	for _, v := range set[len(set)-window:] {
		want[v[0]]++
	}
	for s := 0; s < window; s++ {
		want[c.Sample(s)[0]]--
	}
	for k, n := range want {
		if n != 0 {
			t.Fatalf("ring multiset mismatch at first-coord %v (count %d)", k, n)
		}
	}

	// Incremental sums vs exact rebuild: close to rounding.
	incMean := append([]float64(nil), c.Mean()...)
	incTV := c.TotalVar()
	c.Rebuild()
	for i, v := range c.Mean() {
		if d := math.Abs(v - incMean[i]); d > 1e-9*(1+math.Abs(v)) {
			t.Fatalf("mean[%d] drift %v vs %v", i, incMean[i], v)
		}
	}
	if d := math.Abs(c.TotalVar() - incTV); d > 1e-6*(1+c.TotalVar()) {
		t.Fatalf("totalVar drift %v vs %v", incTV, c.TotalVar())
	}
}

// TestCenteredWorkerBitIdentity pins the determinism contract: the same
// push history, with a Rebuild inside it, yields bit-identical state at
// every worker count.
func TestCenteredWorkerBitIdentity(t *testing.T) {
	const l, window = 1100, 48 // spans three dimension tiles
	set := sketchData(130, l, 3)
	run := func(workers int) *Centered {
		c, err := NewCentered(l, window, workers)
		if err != nil {
			t.Fatal(err)
		}
		push(t, c, set[:70])
		c.Rebuild()
		push(t, c, set[70:])
		return c
	}
	base := run(1)
	src := sketchData(1, l, 8)[0]
	baseDst := make([]float64, l)
	base.Apply([][]float64{baseDst}, [][]float64{src})
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range base.mean {
			if math.Float64bits(base.mean[i]) != math.Float64bits(got.mean[i]) {
				t.Fatalf("workers=%d: mean[%d] differs", workers, i)
			}
			if math.Float64bits(base.sum[i]) != math.Float64bits(got.sum[i]) {
				t.Fatalf("workers=%d: sum[%d] differs", workers, i)
			}
		}
		if math.Float64bits(base.TotalVar()) != math.Float64bits(got.TotalVar()) {
			t.Fatalf("workers=%d: TotalVar differs", workers)
		}
		dst := make([]float64, l)
		got.Apply([][]float64{dst}, [][]float64{src})
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(baseDst[i]) {
				t.Fatalf("workers=%d: Apply[%d] differs", workers, i)
			}
		}
	}
}

// TestCenteredApplyMatchesExplicit checks the implicit operator against
// an explicitly materialized covariance on a small case.
func TestCenteredApplyMatchesExplicit(t *testing.T) {
	const n, l = 30, 12
	set := sketchData(n, l, 2)
	c, err := NewCentered(l, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	push(t, c, set)
	mean := c.Mean()
	cov := mat.New(l, l)
	for _, v := range set {
		for i := 0; i < l; i++ {
			for j := 0; j < l; j++ {
				cov.Set(i, j, cov.At(i, j)+(v[i]-mean[i])*(v[j]-mean[j])/float64(n))
			}
		}
	}
	src := sketchData(1, l, 9)[0]
	got := make([]float64, l)
	c.Apply([][]float64{got}, [][]float64{src})
	for i := 0; i < l; i++ {
		want := 0.0
		for j := 0; j < l; j++ {
			want += cov.At(i, j) * src[j]
		}
		if math.Abs(want-got[i]) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("Apply[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// TestCenteredUpdateAllocationFree pins the zero-alloc contract on the
// incremental-update hot path, at one and two workers over two
// dimension tiles.
func TestCenteredUpdateAllocationFree(t *testing.T) {
	const l, window = 600, 64
	set := sketchData(window+1, l, 4)
	for _, workers := range []int{1, 2} {
		c, err := NewCentered(l, window, workers)
		if err != nil {
			t.Fatal(err)
		}
		push(t, c, set[:window])
		v := set[window]
		cells := occupied(v)
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.Update(v, cells); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("workers=%d: Centered.Update allocated %.1f/op, want 0", workers, allocs)
		}
	}
}

// refCenteredApply is the one-vector covariance apply the block path
// replaced — every dot first, then one Axpy per held sample — kept as
// the bit-identity oracle.
func refCenteredApply(c *Centered, dst, src []float64) {
	for i := range dst {
		dst[i] = 0
	}
	t := make([]float64, c.n)
	for s := 0; s < c.n; s++ {
		t[s] = mat.Dot(c.Sample(s), src)
	}
	for s := 0; s < c.n; s++ {
		mat.Axpy(t[s], c.Sample(s), dst)
	}
	ms := mat.Dot(c.mean, src)
	inv := 1 / float64(c.n)
	for i := range dst {
		dst[i] = dst[i]*inv - c.mean[i]*ms
	}
}

// TestCenteredBlockApplyMatchesSingleVector checks the block apply at
// every block size from 1 to 17 and at window fills with every sample
// remainder of the four-sample sweep: each output row must equal the
// same sketch applied to a block of one, and the one-vector oracle, bit
// for bit.
func TestCenteredBlockApplyMatchesSingleVector(t *testing.T) {
	const l = 37
	for _, fill := range []int{1, 2, 3, 4, 29, 70} {
		c, err := NewCentered(l, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		push(t, c, sketchData(fill, l, int64(fill)))
		for b := 1; b <= 17; b++ {
			src := sketchData(b, l, int64(100+b))
			dst := sketchData(b, l, 7) // stale contents must be overwritten
			c.Apply(dst, src)
			one := [][]float64{make([]float64, l)}
			want := make([]float64, l)
			for v := range src {
				c.Apply(one, src[v:v+1])
				refCenteredApply(c, want, src[v])
				for i := range want {
					if math.Float64bits(dst[v][i]) != math.Float64bits(one[0][i]) {
						t.Fatalf("fill %d block %d: row %d[%d] differs from the block of one", fill, b, v, i)
					}
					if math.Float64bits(dst[v][i]) != math.Float64bits(want[i]) {
						t.Fatalf("fill %d block %d: row %d[%d] = %v, oracle %v", fill, b, v, i, dst[v][i], want[i])
					}
				}
			}
		}
	}
}

// TestCenteredApplyAllocationFree pins the steady-state zero-alloc
// contract of the block apply.
func TestCenteredApplyAllocationFree(t *testing.T) {
	const l, window = 300, 40
	c, err := NewCentered(l, window, 1)
	if err != nil {
		t.Fatal(err)
	}
	push(t, c, sketchData(window, l, 5))
	src, dst := sketchData(17, l, 6), sketchData(17, l, 7)
	if allocs := testing.AllocsPerRun(20, func() { c.Apply(dst, src) }); allocs != 0 {
		t.Fatalf("Centered.Apply allocated %.1f/op, want 0", allocs)
	}
}
