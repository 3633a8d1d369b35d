// Float comparison helpers. The floateq analyzer (internal/lint) bans
// raw ==/!= between floats in the numeric packages (gmm, pca, stats);
// these helpers are the sanctioned replacements, making the intended
// precision explicit at every comparison site. This package is outside
// the analyzer's scope precisely so the helpers can use exact
// comparison where that is the contract.
package mat

import "math"

// IsZero reports whether x is exactly zero (either sign). Use it where
// zero is a sentinel or an exact algebraic case — unset options,
// skip-zero-weight loops — not where accumulated round-off is possible.
//
//mhm:hotpath
func IsZero(x float64) bool {
	return x == 0
}

// IsFinite reports whether x is neither NaN nor ±Inf.
//
//mhm:hotpath
func IsFinite(x float64) bool {
	return x-x == 0
}

// EqTol reports whether a and b agree within the absolute tolerance tol.
// Equal infinities compare true; any NaN operand compares false.
func EqTol(a, b, tol float64) bool {
	if a == b {
		return true // handles equal infinities and exact hits
	}
	return math.Abs(a-b) <= tol
}
