package gmm

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzLoad: Load never panics, and any model it returns scores a zero
// vector of its own dimension without error — a model file either
// yields a working mixture or an error.
func FuzzLoad(f *testing.F) {
	data, _ := sampleMixture(rand.New(rand.NewSource(15)), 200, [][]float64{{0, 0}, {7, 7}}, 1)
	m, err := Train(data, Options{Components: 2, Seed: 16})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`[{"weight":1,"mean":[0],"cov":[[2]]}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"weight":1,"mean":[0],"cov":[[2]]},{"weight":1,"mean":[0,0],"cov":[[1,0],[0,1]]}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := m.LogProb(make([]float64, m.Dim())); err != nil {
			t.Fatalf("loaded %d-component mixture cannot score a zero vector of dimension %d: %v",
				len(m.Components), m.Dim(), err)
		}
	})
}
