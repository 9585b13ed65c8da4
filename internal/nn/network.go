package nn

import (
	"fmt"
	"math/rand"
)

// Network is an ordered stack of layers, trained with the batched
// backprop of batch.go.
//
// The layer stack must not be modified once training or batched inference has
// started: the batched compute path caches the parameter list and a scratch
// arena keyed to the topology.
type Network struct {
	Layers []Layer

	sc     *scratch // batched-compute arena, built lazily on first batch op
	pcache []*Param // cached Params() result for allocation-free hot paths
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// MLP constructs the paper's standard module shape: `depth` hidden
// fully-connected layers of width `hidden` with LeakyReLU activations,
// followed by a linear output layer of width `out`. Table 3 uses
// depth=3, hidden=128 for 𝔼 and 𝔾.
func MLP(in, hidden, depth, out int, rng *rand.Rand) *Network {
	var layers []Layer
	prev := in
	for i := 0; i < depth; i++ {
		layers = append(layers, NewDense(prev, hidden, rng), NewLeakyReLU())
		prev = hidden
	}
	layers = append(layers, NewDense(prev, out, rng))
	return NewNetwork(layers...)
}

// Forward runs x through all layers and returns the output.
func (n *Network) Forward(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Params returns every trainable tensor in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// params returns the cached flat parameter list, building it on first use.
// Hot paths use it so steady-state training performs no allocations.
func (n *Network) params() []*Param {
	if n.pcache == nil {
		n.pcache = n.Params()
	}
	return n.pcache
}

// Clone returns a deep copy with independent parameters (gradients zeroed).
func (n *Network) Clone() *Network {
	out := &Network{Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		out.Layers[i] = l.clone()
	}
	return out
}

// InSize returns the input width of the first Dense layer, or -1 if none.
func (n *Network) InSize() int {
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			return d.In
		}
	}
	return -1
}

// TrainBatch performs one optimizer step on a minibatch and returns the mean
// loss over the batch. Malformed batches (length or width mismatches) return
// an error instead of panicking.
func (n *Network) TrainBatch(xs, ys [][]float64, loss Loss, opt *Adam) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: TrainBatch len mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, nil
	}
	inW := len(xs[0])
	for i := range xs {
		if len(xs[i]) != inW {
			return 0, fmt.Errorf("nn: TrainBatch ragged input: row %d has width %d, row 0 has %d", i, len(xs[i]), inW)
		}
	}
	if want := n.InSize(); want >= 0 && inW != want {
		return 0, fmt.Errorf("nn: TrainBatch input width %d, network expects %d", inW, want)
	}
	sc := n.ensureScratch(len(xs), inW)
	outW := sc.widths[len(sc.widths)-1]
	for i := range ys {
		if len(ys[i]) != outW {
			return 0, fmt.Errorf("nn: TrainBatch target row %d has width %d, network outputs %d", i, len(ys[i]), outW)
		}
	}
	return sc.trainBatch(xs, ys, loss, opt), nil
}

// Fit trains for `epochs` passes over the data with the given batch size,
// shuffling each epoch with rng. It returns the mean loss of the final epoch.
func (n *Network) Fit(xs, ys [][]float64, loss Loss, opt *Adam, epochs, batch int, rng *rand.Rand) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: Fit len mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, nil
	}
	if batch <= 0 {
		batch = 32
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	var last float64
	bx := make([][]float64, 0, batch)
	by := make([][]float64, 0, batch)
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			bx, by = bx[:0], by[:0]
			for _, j := range idx[start:end] {
				bx = append(bx, xs[j])
				by = append(by, ys[j])
			}
			l, err := n.TrainBatch(bx, by, loss, opt)
			if err != nil {
				return 0, err
			}
			epochLoss += l
			batches++
		}
		last = epochLoss / float64(batches)
	}
	return last, nil
}
