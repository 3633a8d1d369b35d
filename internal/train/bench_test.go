package train

import "testing"

// BenchmarkTrainEM times one steady-state EM iteration (blocked E-step,
// log-likelihood reduction, per-component M-step) at the paper's
// reduced shape — L' = 9 dims, J = 5 components — over 2,048 samples.
// allocs/op must be 0: the engine preallocates everything in newEM.
func BenchmarkTrainEM(b *testing.B) {
	data, means := testData(2048, 9, 5, 1)
	e, err := newEM(data, means, fitCfg(5))
	if err != nil {
		b.Fatal(err)
	}
	e.eStep()
	if bad := e.mStep(); bad >= 0 {
		b.Fatalf("M-step failed on component %d", bad)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.eStep()
		_ = e.sumLL()
		if bad := e.mStep(); bad >= 0 {
			b.Fatalf("M-step failed on component %d", bad)
		}
	}
}

// BenchmarkCenteredApplyBlock times one block apply of the window
// covariance at the paper's shape — L = 1,472 cells, a full 192-sample
// window, a 17-vector block (L' = 9 plus the default oversampling of
// 8), the product every warm refresh iteration takes. allocs/op must be
// 0.
func BenchmarkCenteredApplyBlock(b *testing.B) {
	const l, window, block = 1472, 192, 17
	c, err := NewCentered(l, window, 1)
	if err != nil {
		b.Fatal(err)
	}
	push(b, c, sketchData(window, l, 1))
	src := sketchData(block, l, 2)
	dst := sketchData(block, l, 3)
	c.Apply(dst, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Apply(dst, src)
	}
}
