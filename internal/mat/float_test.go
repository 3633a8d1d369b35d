package mat

import (
	"math"
	"testing"
)

func TestIsZero(t *testing.T) {
	if !IsZero(0) || !IsZero(math.Copysign(0, -1)) {
		t.Error("IsZero must accept both signed zeros")
	}
	for _, x := range []float64{1e-300, -1e-300, 1, math.Inf(1), math.NaN()} {
		if IsZero(x) {
			t.Errorf("IsZero(%g) = true", x)
		}
	}
}

func TestEqTol(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-10, 1e-9, true},
		{1, 1 + 1e-8, 1e-9, false},
		{math.Inf(1), math.Inf(1), 0, true},
		{math.Inf(1), math.Inf(-1), 1, false},
		{math.NaN(), math.NaN(), 1, false},
		{0, math.NaN(), math.Inf(1), false},
	}
	for _, c := range cases {
		if got := EqTol(c.a, c.b, c.tol); got != c.want {
			t.Errorf("EqTol(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
