package train

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
)

// denseCentered is the sliding-window sketch as it was before the cell
// lists: every update sweeps all L cells of every batch sample, split
// into the dimension tiles of BuildCentered and dispatched over the
// workers, and Restrict scans the whole ring for the support. It is
// kept as the reference Centered must match bit for bit.
type denseCentered struct {
	l, window, workers int
	n, head            int
	x, sum, mean       []float64
	sumSq              []float64
	batch              [][]float64
}

func newDenseCentered(l, window, workers int) *denseCentered {
	return &denseCentered{
		l: l, window: window, workers: workers,
		x:     make([]float64, window*l),
		sum:   make([]float64, l),
		mean:  make([]float64, l),
		sumSq: make([]float64, chunkCount(l, dimTile)),
	}
}

func (c *denseCentered) sample(s int) []float64 { return c.x[s*c.l : (s+1)*c.l] }

func (c *denseCentered) update(batch [][]float64) {
	if len(batch) == 0 {
		return
	}
	c.batch = batch
	chunksWorker(chunkCount(c.l, dimTile), c.workers, func(idx, _ int) {
		c.updateTile(idx*dimTile, min((idx+1)*dimTile, c.l), idx)
	})
	c.batch = nil
	c.n = min(c.n+len(batch), c.window)
	c.head = (c.head + len(batch)) % c.window
}

// updateTile folds the in-flight batch into dimension band [lo, hi):
// per batch sample in ascending index, the evicted slot's contribution
// leaves the running sums before the entering sample's arrives, then
// the band's mean is re-derived.
func (c *denseCentered) updateTile(lo, hi, idx int) {
	sq := c.sumSq[idx]
	for b, v := range c.batch {
		slot := (c.head + b) % c.window
		row := c.x[slot*c.l : (slot+1)*c.l]
		if c.n+b >= c.window {
			for i := lo; i < hi; i++ {
				old := row[i]
				c.sum[i] -= old
				sq -= old * old
			}
		}
		for i := lo; i < hi; i++ {
			xv := v[i]
			row[i] = xv
			c.sum[i] += xv
			sq += xv * xv
		}
	}
	c.sumSq[idx] = sq
	inv := float64(min(c.n+len(c.batch), c.window))
	for i := lo; i < hi; i++ {
		c.mean[i] = c.sum[i] / inv
	}
}

func (c *denseCentered) rebuild() {
	chunksWorker(chunkCount(c.l, dimTile), c.workers, func(idx, _ int) {
		lo, hi := idx*dimTile, min((idx+1)*dimTile, c.l)
		for i := lo; i < hi; i++ {
			c.sum[i] = 0
		}
		sq := 0.0
		for s := 0; s < c.n; s++ {
			row := c.sample(s)
			for i := lo; i < hi; i++ {
				c.sum[i] += row[i]
				sq += row[i] * row[i]
			}
		}
		c.sumSq[idx] = sq
		for i := lo; i < hi; i++ {
			c.mean[i] = c.sum[i] / float64(c.n)
		}
	})
}

func (c *denseCentered) totalVar() float64 {
	if c.n == 0 {
		return 0
	}
	s := 0.0
	for _, v := range c.sumSq {
		s += v
	}
	tv := s/float64(c.n) - mat.Dot(c.mean, c.mean)
	if tv < 0 {
		tv = 0
	}
	return tv
}

// restrict is the ring-scanning Restrict: mark every nonzero cell of
// the mean and of each held sample, refusing a non-finite entry, then
// gather the ring and the mean onto the marked cells.
func (c *denseCentered) restrict() ([]int, mat.SymOp) {
	touched := make([]bool, c.l)
	if !markTouched(touched, c.mean) {
		return nil, nil
	}
	for s := 0; s < c.n; s++ {
		if !markTouched(touched, c.sample(s)) {
			return nil, nil
		}
	}
	var support []int
	for i, t := range touched {
		if t {
			support = append(support, i)
		}
	}
	if len(support) == 0 || len(support) == c.l {
		return support, nil
	}
	m := len(support)
	sub := &centeredOn{l: m, n: c.n, x: make([]float64, c.n*m), mean: make([]float64, m)}
	for s := 0; s < c.n; s++ {
		row, dst := c.sample(s), sub.x[s*m:(s+1)*m]
		for k, i := range support {
			dst[k] = row[i]
		}
	}
	for k, i := range support {
		sub.mean[k] = c.mean[i]
	}
	return support, sub
}

// markTouched sets touched[i] for every nonzero row[i] and reports
// whether the row is finite.
func markTouched(touched []bool, row []float64) bool {
	for i, v := range row {
		if mat.IsZero(v) {
			continue
		}
		if !mat.IsFinite(v) {
			return false
		}
		touched[i] = true
	}
	return true
}

// sameBits reports whether got and want have the same bits, or are a
// +0 read back for a −0 the dense ring stored. Any two NaNs match: when
// both operands of an add are NaN, which payload the result carries
// depends on the operand order the compiler picks, which Go leaves
// open.
func sameBits(got, want float64, negZeroOK bool) bool {
	if math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want)) {
		return true
	}
	return negZeroOK && math.Float64bits(got) == 0 && math.Float64bits(want) == 1<<63
}

// historyCoverage counts the comparisons that met each hard case.
type historyCoverage struct {
	negZero   int // a −0 entry read back as +0
	meanOnly  int // a support cell no held sample touches
	nonFinite int // a NaN or ±Inf entry held, or in the mean
	evicted   int // an update past a full window
	rebuilt   int // a Rebuild
}

// checkCenteredMatchesDense compares every observable of the sketch
// with the dense reference: each held row (a −0 entry may read back as
// +0) and its cell list, the sums, the mean, the per-tile partials,
// TotalVar, the Apply of the whole window, and Restrict's support and
// its gathered operator's Apply, all bit for bit.
func checkCenteredMatchesDense(t *testing.T, name string, c *Centered, d *denseCentered, rng *rand.Rand, cov *historyCoverage) {
	t.Helper()
	if c.Len() != d.n || c.head != d.head {
		t.Fatalf("%s: Len %d head %d, dense %d and %d", name, c.Len(), c.head, d.n, d.head)
	}
	for s := 0; s < d.n; s++ {
		var want []int32
		for i, x := range d.sample(s) {
			if !sameBits(c.Sample(s)[i], x, false) {
				cov.negZero++
			}
			if !sameBits(c.Sample(s)[i], x, true) {
				t.Fatalf("%s: sample %d cell %d = %v (bits %#x), dense %v (bits %#x)",
					name, s, i, c.Sample(s)[i], math.Float64bits(c.Sample(s)[i]), x, math.Float64bits(x))
			}
			if !mat.IsZero(x) {
				want = append(want, int32(i))
			}
			if !mat.IsFinite(x) {
				cov.nonFinite++
			}
		}
		if !slices.Equal(c.Cells(s), want) {
			t.Fatalf("%s: sample %d lists cells %v, want %v", name, s, c.Cells(s), want)
		}
	}
	for i := range d.sum {
		if !sameBits(c.sum[i], d.sum[i], false) || !sameBits(c.Mean()[i], d.mean[i], false) {
			t.Fatalf("%s: cell %d sum %v mean %v, dense %v and %v", name, i, c.sum[i], c.Mean()[i], d.sum[i], d.mean[i])
		}
	}
	for k := range d.sumSq {
		if !sameBits(c.sumSq[k], d.sumSq[k], false) {
			t.Fatalf("%s: tile %d second moment %v, dense %v", name, k, c.sumSq[k], d.sumSq[k])
		}
	}
	if got, want := c.TotalVar(), d.totalVar(); !sameBits(got, want, false) {
		t.Fatalf("%s: TotalVar %v, dense %v", name, got, want)
	}
	applyMatches(t, name+" Apply", c, d.l, func(dst, src [][]float64) {
		applyCentered(d.x, d.mean, d.l, d.n, dst, src)
	}, rng)

	support, sub := c.Restrict()
	wantSupport, wantSub := d.restrict()
	if !slices.Equal(support, wantSupport) || (support == nil) != (wantSupport == nil) || (sub == nil) != (wantSub == nil) {
		t.Fatalf("%s: Restrict support %v operator %t, dense %v and %t", name, support, sub != nil, wantSupport, wantSub != nil)
	}
	if sub != nil {
		applyMatches(t, name+" restricted Apply", sub, len(support), wantSub.Apply, rng)
	}
	for _, i := range support {
		if c.count[i] == 0 {
			cov.meanOnly++
		}
	}
	for _, m := range d.mean {
		if !mat.IsFinite(m) {
			cov.nonFinite++
		}
	}
}

// applyMatches applies op and the reference apply to the same random
// three-vector block and compares the outputs bit for bit.
func applyMatches(t *testing.T, name string, op mat.SymOp, dim int, ref func(dst, src [][]float64), rng *rand.Rand) {
	t.Helper()
	src := make([][]float64, 3)
	got := make([][]float64, 3)
	want := make([][]float64, 3)
	for v := range src {
		src[v] = make([]float64, dim)
		got[v] = make([]float64, dim)
		want[v] = make([]float64, dim)
		for i := range src[v] {
			src[v][i] = rng.NormFloat64()
		}
	}
	op.Apply(got, src)
	ref(want, src)
	for v := range want {
		for i, x := range want[v] {
			if !sameBits(got[v][i], x, false) {
				t.Fatalf("%s: vector %d cell %d = %v, dense %v", name, v, i, got[v][i], x)
			}
		}
	}
}

// historyL is the sample length of the fuzzed histories: three
// dimension tiles, the last one partial.
const historyL = 1100

// historyCells are the cells a history's samples may touch: both ends
// of every tile and a few interior cells.
var historyCells = []int{0, 1, 2, 100, 257, 510, 511, 512, 513, 700, 900, 1022, 1023, 1024, 1025, 1098, 1099}

// historyValues are the finite entries a history draws from: counts,
// fractions whose evictions leave rounding residue, both zeros,
// subnormals and magnitudes whose squares overflow or whose sums lose
// low bits.
var historyValues = []float64{
	1, 2, 3, 7, 64, 0.1, 0.7, 1.0 / 3, 2.5, -1.25,
	math.Copysign(0, -1), 0, 5e-324, -3e-310, 1e-160, 1e155, 1e300, 1 << 53, 1<<53 + 2, 4294967295,
}

// historySpecials are the non-finite entries, drawn rarely.
var historySpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// historyList lists every cell of historyCells: handed to Update for
// every second sample, it lists the sample's zero cells as well.
var historyList = func() []int32 {
	list := make([]int32, len(historyCells))
	for k, i := range historyCells {
		list[k] = int32(i)
	}
	return list
}()

// runCenteredHistory decodes data into a sketch shape and a history of
// samples and rebuilds, feeds it to Centered one sample per Update and
// to the dense reference one sample per update, and compares them after
// every sample and every rebuild. Byte 0 picks the window (1–9), byte 1
// the worker count (1 or 2); then each step is one op byte — a rebuild
// when op%8 is 7, else a run of 1 + op%5 samples — and each sample a
// cell count byte (0–5 cells) followed by a cell byte and a value byte
// per cell.
func runCenteredHistory(t *testing.T, data []byte, cov *historyCoverage) {
	t.Helper()
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	wb, _ := next()
	kb, _ := next()
	window, workers := 1+int(wb)%9, 1+int(kb)%2
	c, err := NewCentered(historyL, window, workers)
	if err != nil {
		t.Fatal(err)
	}
	d := newDenseCentered(historyL, window, workers)
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint16(append([]byte{wb, kb}, 0, 0)))))
	for step := 0; ; step++ {
		op, ok := next()
		if !ok {
			return
		}
		name := fmt.Sprintf("window %d workers %d step %d", window, workers, step)
		if op%8 == 7 {
			c.Rebuild()
			d.rebuild()
			cov.rebuilt++
			checkCenteredMatchesDense(t, name+" (rebuild)", c, d, rng, cov)
			continue
		}
		for b := 0; b < 1+int(op)%5; b++ {
			v := make([]float64, historyL)
			nc, _ := next()
			for k := 0; k < int(nc)%6; k++ {
				cb, _ := next()
				vb, _ := next()
				x := historyValues[int(vb)%len(historyValues)]
				if vb >= 250 {
					x = historySpecials[int(vb)%len(historySpecials)]
				}
				v[historyCells[int(cb)%len(historyCells)]] = x
			}
			if d.n == window {
				cov.evicted++
			}
			cells := occupied(v)
			if b%2 == 1 {
				cells = historyList
			}
			if err := c.Update(v, cells); err != nil {
				t.Fatal(err)
			}
			d.update([][]float64{v})
			checkCenteredMatchesDense(t, fmt.Sprintf("%s sample %d", name, b), c, d, rng, cov)
		}
	}
}

// randomHistory returns a history for runCenteredHistory with the
// given window and worker bytes and steps random steps, without
// non-finite values unless specials is set.
func randomHistory(rng *rand.Rand, window, workers byte, steps int, specials bool) []byte {
	data := []byte{window, workers}
	for s := 0; s < steps; s++ {
		op := byte(rng.Intn(256))
		data = append(data, op)
		if op%8 == 7 {
			continue
		}
		for b := 0; b < 1+int(op)%5; b++ {
			nc := rng.Intn(6)
			data = append(data, byte(nc))
			for k := 0; k < nc; k++ {
				vb := byte(rng.Intn(len(historyValues)))
				if specials && rng.Intn(40) == 0 {
					vb = 250 + byte(rng.Intn(6))
				}
				data = append(data, byte(rng.Intn(256)), vb)
			}
		}
	}
	return data
}

// TestCenteredMatchesDense is the differential test of the cell-list
// sketch against the dense per-tile update and the ring-scanning
// Restrict: random histories of samples, one per Update, and rebuilds
// at every window from 1 to 9 and at one and two workers, filling
// below, at and past the window, with fractional values whose
// evictions leave a nonzero mean on cells no held sample touches, −0
// and subnormal entries, listed zero cells, and (in every second
// history) NaN and ±Inf entries, after which Restrict must return no
// operator. Each hard case must come up.
func TestCenteredMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var cov historyCoverage
	for window := byte(0); window < 9; window++ {
		for workers := byte(0); workers < 2; workers++ {
			runCenteredHistory(t, randomHistory(rng, window, workers, 40, false), &cov)
			runCenteredHistory(t, randomHistory(rng, window, workers, 40, true), &cov)
		}
	}
	if cov.negZero == 0 || cov.meanOnly == 0 || cov.nonFinite == 0 || cov.evicted == 0 || cov.rebuilt == 0 {
		t.Fatalf("histories miss a case: %+v", cov)
	}
}

// FuzzCenteredMatchesDense drives the same comparison over fuzzed
// histories.
func FuzzCenteredMatchesDense(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	f.Add([]byte{3, 0, 0, 1, 3, 1})
	f.Add(randomHistory(rng, 4, 1, 12, false))
	f.Add(randomHistory(rng, 0, 0, 8, true))
	f.Add(randomHistory(rng, 8, 1, 20, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		runCenteredHistory(t, data, &historyCoverage{})
	})
}
