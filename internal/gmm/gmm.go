// Package gmm implements Gaussian mixture models with full covariances,
// trained by expectation-maximization — the paper's §4.3 clustering of
// reduced MHMs. Densities are computed in log space through Cholesky
// factors for numerical stability.
//
// Note on the paper: Eq. 2 writes the multivariate normal with Σ instead
// of Σ⁻¹ in the exponent and an inverted normalizing constant; this
// package implements the standard (correct) density.
package gmm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/train"
)

// ErrTraining wraps invalid training inputs or EM failures.
var ErrTraining = errors.New("gmm: invalid training input")

const log2Pi = 1.8378770664093453 // ln(2π)

// Component is one Gaussian of the mixture.
type Component struct {
	// Weight is the mixing parameter λ_j.
	Weight float64
	// Mean is µ_j.
	Mean []float64
	// Cov is Σ_j (D x D, symmetric positive definite).
	Cov *mat.Matrix

	chol   *mat.Cholesky // cached factor of Cov
	logDet float64
}

// prepare caches the Cholesky factor; covariance must be SPD.
func (c *Component) prepare() error {
	ch, err := mat.NewCholesky(c.Cov)
	if err != nil {
		return fmt.Errorf("gmm: component covariance: %w", err)
	}
	c.chol = ch
	c.logDet = ch.LogDet()
	return nil
}

// LogPDF returns ln f(x | µ, Σ).
func (c *Component) LogPDF(x []float64) (float64, error) {
	n := len(c.Mean)
	return c.logPDF(x, make([]float64, n), make([]float64, n))
}

// logPDF is LogPDF with caller-owned buffers for the mean offset and
// the triangular solve.
func (c *Component) logPDF(x, diff, y []float64) (float64, error) {
	if len(x) != len(c.Mean) {
		return 0, fmt.Errorf("gmm: LogPDF: dim %d, want %d: %w", len(x), len(c.Mean), ErrTraining)
	}
	if c.chol == nil {
		if err := c.prepare(); err != nil {
			return 0, err
		}
	}
	for i := range x {
		diff[i] = x[i] - c.Mean[i]
	}
	m2, err := c.chol.MahalanobisSqScratch(diff, y)
	if err != nil {
		return 0, err
	}
	dim := float64(len(x))
	return -0.5 * (dim*log2Pi + c.logDet + m2), nil
}

// Model is a J-component Gaussian mixture.
type Model struct {
	Components []Component
}

// Dim returns the data dimensionality.
func (m *Model) Dim() int {
	if len(m.Components) == 0 {
		return 0
	}
	return len(m.Components[0].Mean)
}

// LogProb returns ln Pr(x) = ln Σ_j λ_j f(x | µ_j, Σ_j), the quantity the
// paper's figures plot (log probability density of an MHM). It is the
// reference for Eq. 2: score.Engine's fused kernel reproduces it bit
// for bit.
//
//mhm:deterministic
func (m *Model) LogProb(x []float64) (float64, error) {
	if len(m.Components) == 0 {
		return 0, fmt.Errorf("gmm: empty model: %w", ErrTraining)
	}
	d := m.Dim()
	diff, y := make([]float64, d), make([]float64, d)
	best := math.Inf(-1)
	terms := make([]float64, 0, len(m.Components))
	for j := range m.Components {
		c := &m.Components[j]
		if c.Weight <= 0 {
			continue
		}
		lp, err := c.logPDF(x, diff, y)
		if err != nil {
			return 0, err
		}
		term := math.Log(c.Weight) + lp
		terms = append(terms, term)
		if term > best {
			best = term
		}
	}
	if len(terms) == 0 || math.IsInf(best, -1) {
		return math.Inf(-1), nil
	}
	// Log-sum-exp.
	sum := 0.0
	for _, t := range terms {
		sum += math.Exp(t - best)
	}
	return best + math.Log(sum), nil
}

// Responsibilities returns the posterior component probabilities for x.
func (m *Model) Responsibilities(x []float64) ([]float64, error) {
	terms := make([]float64, len(m.Components))
	best := math.Inf(-1)
	for j := range m.Components {
		c := &m.Components[j]
		if c.Weight <= 0 {
			terms[j] = math.Inf(-1)
			continue
		}
		lp, err := c.LogPDF(x)
		if err != nil {
			return nil, err
		}
		terms[j] = math.Log(c.Weight) + lp
		if terms[j] > best {
			best = terms[j]
		}
	}
	out := make([]float64, len(terms))
	if math.IsInf(best, -1) {
		// Degenerate: uniform responsibilities.
		for j := range out {
			out[j] = 1 / float64(len(out))
		}
		return out, nil
	}
	sum := 0.0
	for j, t := range terms {
		out[j] = math.Exp(t - best)
		sum += out[j]
	}
	for j := range out {
		out[j] /= sum
	}
	return out, nil
}

// TotalLogLikelihood returns Σ_i ln Pr(x_i).
func (m *Model) TotalLogLikelihood(data [][]float64) (float64, error) {
	total := 0.0
	for i, x := range data {
		lp, err := m.LogProb(x)
		if err != nil {
			return 0, fmt.Errorf("gmm: sample %d: %w", i, err)
		}
		total += lp
	}
	return total, nil
}

// Options tunes Train.
type Options struct {
	// Components is J, the number of Gaussians (the paper uses 5).
	Components int
	// MaxIter bounds EM iterations per restart (default 200).
	MaxIter int
	// Tol stops EM when the total log-likelihood improves by less than
	// Tol (default 1e-6).
	Tol float64
	// Restarts runs EM this many times from different initializations and
	// keeps the best (the paper runs 10). Default 1.
	Restarts int
	// Reg is the diagonal regularization added to covariances to keep
	// them SPD (default 1e-6 relative to data variance).
	Reg float64
	// Seed drives initialization (default 1).
	Seed int64
	// Workers bounds the goroutines that run restarts side by side:
	// min(Workers, Restarts) of them, while each EM fit runs on one
	// goroutine. Values below 1 mean serial. Each restart draws from
	// its own generator, derived from (Seed, restart index), and the
	// best is picked in ascending restart order, so models are
	// bit-identical for every value.
	Workers int
}

func (o *Options) fill() error {
	if o.Components <= 0 {
		return fmt.Errorf("gmm: components %d: %w", o.Components, ErrTraining)
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// Train fits a mixture to data by EM with k-means++ style seeding,
// returning the restart with the highest training log-likelihood; the
// first such restart wins a tie. It is a Fit stepped to completion.
//
//mhm:deterministic
func Train(data [][]float64, opts Options) (*Model, error) {
	var f Fit
	if err := f.StartTrain(data, opts); err != nil {
		return nil, err
	}
	return f.run()
}

// dataReg is the default diagonal covariance regularization: 1e-6 of
// the data's average per-dimension variance, or 1e-9 when that is not
// positive.
func dataReg(data [][]float64) float64 {
	reg := 1e-6 * dataVariance(data)
	if reg <= 0 {
		reg = 1e-9
	}
	return reg
}

// dataVariance returns the average per-dimension variance.
func dataVariance(data [][]float64) float64 {
	n := len(data)
	d := len(data[0])
	mean := make([]float64, d)
	for _, x := range data {
		for i, v := range x {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(n)
	}
	s := 0.0
	for _, x := range data {
		for i, v := range x {
			dv := v - mean[i]
			s += dv * dv
		}
	}
	return s / float64(n*d)
}

// kmeansSeed picks initial means by k-means++ and refines with a few
// Lloyd iterations.
func kmeansSeed(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(data)
	means := make([][]float64, 0, k)
	first := data[rng.Intn(n)]
	means = append(means, append([]float64(nil), first...))
	dist := make([]float64, n)
	for len(means) < k {
		total := 0.0
		for i, x := range data {
			dmin := math.Inf(1)
			for _, mu := range means {
				if dd := mat.DistEuclid(x, mu); dd < dmin {
					dmin = dd
				}
			}
			dist[i] = dmin * dmin
			total += dist[i]
		}
		if mat.IsZero(total) {
			// All points coincide with chosen means; duplicate one.
			means = append(means, append([]float64(nil), data[rng.Intn(n)]...))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, dd := range dist {
			acc += dd
			if acc >= r {
				pick = i
				break
			}
		}
		means = append(means, append([]float64(nil), data[pick]...))
	}
	// Lloyd refinement.
	assign := make([]int, n)
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i, x := range data {
			bestJ, bestD := 0, math.Inf(1)
			for j, mu := range means {
				if dd := mat.DistEuclid(x, mu); dd < bestD {
					bestJ, bestD = j, dd
				}
			}
			if assign[i] != bestJ {
				assign[i] = bestJ
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for j := range sums {
			sums[j] = make([]float64, len(data[0]))
		}
		for i, x := range data {
			counts[assign[i]]++
			for c, v := range x {
				sums[assign[i]][c] += v
			}
		}
		for j := range means {
			if counts[j] == 0 {
				continue // keep the old mean for empty clusters
			}
			for c := range means[j] {
				means[j][c] = sums[j][c] / float64(counts[j])
			}
		}
	}
	return means
}

// modelFromFit converts a flat engine fit into a prepared Model. The
// model owns its storage.
func modelFromFit(fit *train.EMModel) (*Model, error) {
	k, d := fit.K, fit.D
	model := &Model{Components: make([]Component, k)}
	for j := 0; j < k; j++ {
		cov := mat.New(d, d)
		for a := 0; a < d; a++ {
			copy(cov.Row(a), fit.Covs[j*d*d+a*d:j*d*d+(a+1)*d])
		}
		model.Components[j] = Component{
			Weight: fit.Weights[j],
			Mean:   append([]float64(nil), fit.Means[j*d:(j+1)*d]...),
			Cov:    cov,
		}
		if err := model.Components[j].prepare(); err != nil {
			return nil, err
		}
	}
	return model, nil
}

// componentJSON serializes one Gaussian.
type componentJSON struct {
	Weight float64     `json:"weight"`
	Mean   []float64   `json:"mean"`
	Cov    [][]float64 `json:"cov"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	out := make([]componentJSON, len(m.Components))
	for j, c := range m.Components {
		rows := make([][]float64, c.Cov.Rows())
		for i := range rows {
			rows[i] = append([]float64(nil), c.Cov.Row(i)...)
		}
		out[j] = componentJSON{Weight: c.Weight, Mean: c.Mean, Cov: rows}
	}
	return json.NewEncoder(w).Encode(out)
}

// Load reads a model produced by Save. Every component must have the
// first one's dimension and an SPD covariance.
func Load(r io.Reader) (*Model, error) {
	var in []componentJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("gmm: decode model: %w", err)
	}
	if len(in) == 0 {
		return nil, fmt.Errorf("gmm: empty model: %w", ErrTraining)
	}
	m := &Model{Components: make([]Component, len(in))}
	for j, cj := range in {
		if len(cj.Mean) != len(in[0].Mean) {
			return nil, fmt.Errorf("gmm: component %d has dim %d, component 0 dim %d: %w",
				j, len(cj.Mean), len(in[0].Mean), ErrTraining)
		}
		cov, err := mat.FromRows(cj.Cov)
		if err != nil {
			return nil, fmt.Errorf("gmm: component %d covariance: %w", j, err)
		}
		if cov.Rows() != len(cj.Mean) || cov.Cols() != len(cj.Mean) {
			return nil, fmt.Errorf("gmm: component %d: cov %dx%d for dim %d: %w",
				j, cov.Rows(), cov.Cols(), len(cj.Mean), ErrTraining)
		}
		m.Components[j] = Component{Weight: cj.Weight, Mean: cj.Mean, Cov: cov}
		if err := m.Components[j].prepare(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
