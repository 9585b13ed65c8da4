package nn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNetwork(
		NewDense(4, 8, rng), NewLeakyReLU(),
		NewDense(8, 6, rng), NewTanh(),
		NewDense(6, 2, rng), NewTanh(),
	)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.5, 2, 0.7}
	a := n.Forward(x)
	b := loaded.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if loaded.NumParams() != n.NumParams() {
		t.Errorf("param counts: %d vs %d", loaded.NumParams(), n.NumParams())
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := []string{
		`not json`,
		`{"layers":[{"kind":"flux"}]}`,
		`{"layers":[{"kind":"dense","in":2,"out":2,"weight":[1],"bias":[0,0]}]}`,
		`{"layers":[{"kind":"dense","in":0,"out":2}]}`,
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("Load accepted corrupt input %q", c)
		}
	}
}

func TestLoadedNetworkIsTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := MLP(1, 4, 1, 1, rng)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{0}, {1}}
	ys := [][]float64{{0}, {2}}
	var loss float64
	opt := NewAdam(0.05)
	for i := 0; i < 300; i++ {
		loss, err = loaded.TrainBatch(xs, ys, MSE{}, opt)
		if err != nil {
			t.Fatalf("TrainBatch: %v", err)
		}
	}
	if loss > 1e-3 {
		t.Errorf("loaded network failed to train: loss %v", loss)
	}
}

func TestReLULeakyDefaultAlphaOnLoad(t *testing.T) {
	in := `{"layers":[{"kind":"leakyrelu"}]}`
	n, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	l := n.Layers[0].(*LeakyReLU)
	if l.Alpha != 0.01 {
		t.Errorf("alpha = %v, want default 0.01", l.Alpha)
	}
}
