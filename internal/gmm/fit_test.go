package gmm

import (
	"fmt"
	"math/rand"
)

// emOnce runs one Train restart from rng to its end on the calling
// goroutine — seedRun, the EM fit stepped to completion and
// modelFromFit, as a Fit runs each restart — and returns the model and
// its training log-likelihood.
func emOnce(data [][]float64, k, maxIter int, tol, reg float64, rng *rand.Rand) (*Model, float64, error) {
	run, err := seedRun(data, k, maxIter, tol, reg, rng)
	if err != nil {
		return nil, 0, err
	}
	if _, err := run.Step(maxIter); err != nil {
		return nil, 0, fmt.Errorf("gmm: component covariance: %w", err)
	}
	fit := run.Model()
	m, err := modelFromFit(fit)
	if err != nil {
		return nil, 0, err
	}
	return m, fit.LogLikelihood, nil
}
