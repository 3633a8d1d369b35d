package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseStartBlock is the start block as it was built before the warm
// rows' coordinate list: Init is read column by column with At, and
// Gram–Schmidt sweeps every row at full length. It is kept as the
// reference startBlock must match bit for bit.
func denseStartBlock(n, b int, opts TopKOptions) ([][]float64, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	q := newBlock(b, n)
	warm := 0
	if opts.Init != nil {
		if opts.Init.Rows() != n {
			return nil, fmt.Errorf("mat: EigenSymTopK: Init has %d rows, operator dim %d: %w", opts.Init.Rows(), n, ErrShape)
		}
		warm = opts.Init.Cols()
		if warm > b {
			warm = b
		}
		for i := 0; i < warm; i++ {
			for j := range q[i] {
				q[i][j] = opts.Init.At(j, i)
			}
		}
	}
	for _, row := range q[warm:] {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	if err := denseOrthonormalizeRows(q, true); err != nil {
		return nil, err
	}
	return q, nil
}

// denseOrthonormalizeRows is modified Gram–Schmidt at full length on
// every row, replacing a collapsed row by a random one when replace is
// set: the reference for gramSchmidt.
func denseOrthonormalizeRows(q [][]float64, replace bool) error {
	var rng *rand.Rand
	for i, ri := range q {
		for attempt := 0; ; attempt++ {
			for _, rj := range q[:i] {
				Axpy(-Dot(ri, rj), rj, ri)
			}
			if Normalize(ri) > 1e-12 {
				break
			}
			if !replace {
				return errRestricted
			}
			if attempt >= 5 {
				return fmt.Errorf("mat: gramSchmidt: row %d keeps collapsing: %w", i, ErrSingular)
			}
			if rng == nil {
				rng = rand.New(rand.NewSource(42))
			}
			for k := range ri {
				ri[k] = rng.NormFloat64()
			}
		}
	}
	return nil
}

// warmInit returns an n×cols Init whose listed rows hold Gaussian
// entries (about one in six exactly +0) and whose other rows are +0:
// the shape of a previous model fitted on a support.
func warmInit(rng *rand.Rand, n, cols int, rows []int) *Matrix {
	m := New(n, cols)
	for _, i := range rows {
		for c := 0; c < cols; c++ {
			if rng.Intn(6) != 0 {
				m.Set(i, c, rng.NormFloat64())
			}
		}
	}
	return m
}

// checkStartBlock runs startBlock and the dense reference on the same
// arguments and fails unless both return the same error, or rows that
// agree bit for bit over their full length.
func checkStartBlock(t *testing.T, name string, n, b int, opts TopKOptions) {
	t.Helper()
	got, gotErr := startBlock(n, b, opts)
	want, wantErr := denseStartBlock(n, b, opts)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	for r := range want {
		for j := range want[r] {
			if math.Float64bits(got[r][j]) != math.Float64bits(want[r][j]) {
				t.Fatalf("%s: row %d entry %d = %v (%#x), reference %v (%#x)",
					name, r, j, got[r][j], math.Float64bits(got[r][j]), want[r][j], math.Float64bits(want[r][j]))
			}
		}
	}
}

// TestWarmStartBlockMatchesDense is the differential test of the warm
// rows' coordinate list: every start block must equal the dense
// reference's bit for bit, in every full-length row, or fail with the
// same error.
func TestWarmStartBlockMatchesDense(t *testing.T) {
	const n, b = 1472, 17
	rng := rand.New(rand.NewSource(301))
	support := rng.Perm(n)[:60]
	negZero := math.Copysign(0, -1)

	device := warmInit(rng, n, 9, support)

	signed := warmInit(rng, n, 9, support)
	for _, i := range support[:20] { // −0 on rows the other columns occupy
		signed.Set(i, rng.Intn(9), negZero)
	}
	for _, i := range rng.Perm(n)[:12] { // −0 alone on a row
		if signed.At(i, 0) == 0 && signed.At(i, 1) == 0 {
			signed.Set(i, rng.Intn(9), negZero)
		}
	}

	equalCols := warmInit(rng, n, 9, support)
	zeroCol := warmInit(rng, n, 9, support)
	leadZero := warmInit(rng, n, 9, support)
	for _, i := range support {
		equalCols.Set(i, 4, equalCols.At(i, 2))
		zeroCol.Set(i, 6, 0)
		leadZero.Set(i, 0, 0)
	}

	wide := warmInit(rng, n, b+4, support)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	full := warmInit(rng, n, 9, all)
	huge := warmInit(rng, n, 9, support) // finite, but the dot products overflow
	tiny := warmInit(rng, n, 9, support) // subnormal norms collapse every warm row
	for i := range huge.data {
		huge.data[i] *= 1e308
		tiny.data[i] *= 1e-310
	}

	cases := []struct {
		name string
		init *Matrix
	}{
		{"init-nil", nil},
		{"device-60", device},
		{"negative-zero", signed},
		{"equal-columns", equalCols},
		{"zero-column", zeroCol},
		{"zero-first-column", leadZero},
		{"wider-than-block", wide},
		{"full-support", full},
		{"huge", huge},
		{"tiny", tiny},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := warmInit(rng, n, 9, support)
		m.Set(support[7], 3, bad)
		cases = append(cases, struct {
			name string
			init *Matrix
		}{fmt.Sprint(bad), m})
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 7} {
			checkStartBlock(t, fmt.Sprintf("%s seed=%d", c.name, seed), n, b, TopKOptions{Seed: seed, Init: c.init})
		}
	}
}

// FuzzWarmStartBlockMatchesDense drives startBlock against the dense
// reference on fuzzed shapes: the block and Init widths, the share of
// rows the warm columns occupy, and flags that plant −0 entries,
// repeated and zero columns, a NaN or ±Inf, and huge or subnormal
// scales.
func FuzzWarmStartBlockMatchesDense(f *testing.F) {
	f.Add(int64(1), uint16(1472), uint8(17), uint8(9), uint8(10), uint8(0))
	f.Add(int64(2), uint16(200), uint8(17), uint8(9), uint8(40), uint8(1))
	f.Add(int64(3), uint16(90), uint8(11), uint8(6), uint8(60), uint8(2|4))
	f.Add(int64(4), uint16(64), uint8(9), uint8(12), uint8(255), uint8(8))
	f.Add(int64(5), uint16(300), uint8(17), uint8(9), uint8(20), uint8(16|32))
	f.Add(int64(6), uint16(120), uint8(13), uint8(0), uint8(30), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, b, cols, density, flags uint8) {
		dim := 1 + int(n)%1500
		block := 1 + int(b)%min(dim, 24)
		rng := rand.New(rand.NewSource(seed))
		var init *Matrix
		if cols > 0 {
			var rows []int
			for i := 0; i < dim; i++ {
				if rng.Intn(256) < int(density) {
					rows = append(rows, i)
				}
			}
			init = warmInit(rng, dim, 1+int(cols)%(block+4), rows)
			plant(rng, init, rows, flags)
		}
		checkStartBlock(t, "fuzz", dim, block, TopKOptions{Seed: seed, Init: init})
	})
}

// plant applies FuzzWarmStartBlockMatchesDense's flags to init: 1 −0
// entries on and off the occupied rows, 2 the second column a copy of
// the first, 4 a zero column, 8 a NaN, 16 a +Inf, 32 a huge scale, 64 a
// subnormal scale.
func plant(rng *rand.Rand, init *Matrix, rows []int, flags uint8) {
	n, cols := init.Rows(), init.Cols()
	negZero := math.Copysign(0, -1)
	if flags&1 != 0 {
		for k := 0; k < 1+n/20; k++ {
			init.Set(rng.Intn(n), rng.Intn(cols), negZero)
		}
	}
	if flags&2 != 0 && cols > 1 {
		for i := 0; i < n; i++ {
			init.Set(i, 1, init.At(i, 0))
		}
	}
	if flags&4 != 0 {
		c := rng.Intn(cols)
		for i := 0; i < n; i++ {
			init.Set(i, c, 0)
		}
	}
	if len(rows) > 0 {
		if flags&8 != 0 {
			init.Set(rows[rng.Intn(len(rows))], rng.Intn(cols), math.NaN())
		}
		if flags&16 != 0 {
			init.Set(rows[rng.Intn(len(rows))], rng.Intn(cols), math.Inf(1))
		}
	}
	for _, sc := range []struct {
		bit uint8
		by  float64
	}{{32, 1e308}, {64, 1e-310}} {
		if flags&sc.bit != 0 {
			for i := range init.data {
				init.data[i] *= sc.by
			}
		}
	}
}
