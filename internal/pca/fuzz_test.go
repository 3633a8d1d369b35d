package pca

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzLoad: Load never panics, and any model it returns projects a zero
// vector of its own length L into L' weights without error — a model
// file either yields a working basis or an error.
func FuzzLoad(f *testing.F) {
	set, _ := syntheticSet(rand.New(rand.NewSource(8)), 60, 25, 3, 0.1)
	m, err := Train(set, Options{Components: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"mean":[1,2],"components":[[1],[2]],"values":[0.5]}`))
	f.Add([]byte(`{"mean":[],"components":[],"values":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		l, lp := m.Dim()
		w, err := m.Project(make([]float64, l))
		if err != nil {
			t.Fatalf("loaded %d×%d basis cannot project a zero vector: %v", l, lp, err)
		}
		if len(w) != lp {
			t.Fatalf("loaded %d×%d basis projects to %d weights", l, lp, len(w))
		}
	})
}
