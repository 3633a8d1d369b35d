package fleet

import (
	"testing"
)

func testModels(t *testing.T) (*Model, *Model) {
	t.Helper()
	_, det := fixture(t)
	base, err := NewModel(det, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := NewModel(det, 0.005, 2)
	if err != nil {
		t.Fatal(err)
	}
	return base, alt
}

func TestModelAccessors(t *testing.T) {
	base, alt := testModels(t)
	if base.version != 1 || alt.version != 2 {
		t.Fatalf("versions %d/%d", base.version, alt.version)
	}
	if base.Engine() == nil || alt.theta >= base.theta {
		// θ0.5 is stricter (lower) than the default θ1.
		t.Fatalf("theta ordering: base %v alt %v", base.theta, alt.theta)
	}
	if _, err := NewModel(nil, 0, 1); err == nil {
		t.Error("nil detector accepted")
	}
}

func TestRegistrySwapAtBoundary(t *testing.T) {
	base, alt := testModels(t)
	r, err := NewRegistry(4, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAt(1, 3, alt); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 6; idx++ {
		m := r.ModelFor(1, idx)
		want := 1
		if idx >= 3 {
			want = 2
		}
		if m.version != want {
			t.Fatalf("idx %d scored by v%d, want v%d", idx, m.version, want)
		}
	}
	// Unswapped streams are untouched.
	if m := r.ModelFor(0, 100); m.version != 1 {
		t.Fatalf("stream 0 on v%d", m.version)
	}
}

func TestRegistrySwapAtReplacesSameBoundary(t *testing.T) {
	base, alt := testModels(t)
	r, _ := NewRegistry(1, base)
	if err := r.SwapAt(0, 2, base); err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAt(0, 2, alt); err != nil {
		t.Fatal(err)
	}
	if m := r.ModelFor(0, 2); m.version != 2 {
		t.Fatalf("same-boundary reschedule ignored, got v%d", m.version)
	}
}

func TestRegistryPassedBoundaryAppliesNext(t *testing.T) {
	base, alt := testModels(t)
	r, _ := NewRegistry(1, base)
	if m := r.ModelFor(0, 0); m.version != 1 {
		t.Fatal("wrong base")
	}
	if m := r.ModelFor(0, 1); m.version != 1 {
		t.Fatal("wrong base")
	}
	// Boundary 1 is already in the past (next idx is 2): applies to the
	// very next interval.
	if err := r.SwapAt(0, 1, alt); err != nil {
		t.Fatal(err)
	}
	if m := r.ModelFor(0, 2); m.version != 2 {
		t.Fatal("passed boundary did not apply to the next interval")
	}
}

func TestRegistryValidation(t *testing.T) {
	base, _ := testModels(t)
	if _, err := NewRegistry(0, base); err == nil {
		t.Error("zero streams accepted")
	}
	if _, err := NewRegistry(2, nil); err == nil {
		t.Error("nil base accepted")
	}
	r, _ := NewRegistry(2, base)
	if err := r.SwapAt(5, 0, base); err == nil {
		t.Error("out-of-range stream accepted")
	}
	if err := r.SwapAt(0, -1, base); err == nil {
		t.Error("negative boundary accepted")
	}
	if err := r.SwapAt(0, 1, nil); err == nil {
		t.Error("nil model accepted")
	}
	if err := r.SwapAtCoalesce(-1, 0, base); err == nil {
		t.Error("negative stream accepted")
	}
}
