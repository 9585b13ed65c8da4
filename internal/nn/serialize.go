package nn

import (
	"encoding/json"
	"fmt"
	"io"
)

// Network serialization: a compact JSON format recording each layer's kind
// and parameters, so trained CE models and Warper components can be
// persisted across process restarts.

type layerJSON struct {
	Kind   string    `json:"kind"`
	In     int       `json:"in,omitempty"`
	Out    int       `json:"out,omitempty"`
	Alpha  float64   `json:"alpha,omitempty"`
	Weight []float64 `json:"weight,omitempty"`
	Bias   []float64 `json:"bias,omitempty"`
}

type networkJSON struct {
	Layers []layerJSON `json:"layers"`
}

// Save writes the network to w as JSON.
func (n *Network) Save(w io.Writer) error {
	var out networkJSON
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			out.Layers = append(out.Layers, layerJSON{
				Kind: "dense", In: v.In, Out: v.Out,
				Weight: v.Weight.W, Bias: v.Bias.W,
			})
		case *LeakyReLU:
			out.Layers = append(out.Layers, layerJSON{Kind: "leakyrelu", Alpha: v.Alpha})
		case *Tanh:
			out.Layers = append(out.Layers, layerJSON{Kind: "tanh"})
		default:
			return fmt.Errorf("nn: cannot serialize layer of type %T", l)
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var in networkJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	net := &Network{}
	for i, lj := range in.Layers {
		switch lj.Kind {
		case "dense":
			if lj.In <= 0 || lj.Out <= 0 {
				return nil, fmt.Errorf("nn: layer %d: bad dense dims %dx%d", i, lj.In, lj.Out)
			}
			if len(lj.Weight) != lj.In*lj.Out || len(lj.Bias) != lj.Out {
				return nil, fmt.Errorf("nn: layer %d: weight/bias size mismatch", i)
			}
			d := &Dense{In: lj.In, Out: lj.Out, Weight: newParam(lj.In * lj.Out), Bias: newParam(lj.Out)}
			copy(d.Weight.W, lj.Weight)
			copy(d.Bias.W, lj.Bias)
			net.Layers = append(net.Layers, d)
		case "leakyrelu":
			alpha := lj.Alpha
			if alpha == 0 {
				alpha = 0.01
			}
			net.Layers = append(net.Layers, &LeakyReLU{Alpha: alpha})
		case "tanh":
			net.Layers = append(net.Layers, &Tanh{})
		default:
			return nil, fmt.Errorf("nn: layer %d: unknown kind %q", i, lj.Kind)
		}
	}
	return net, nil
}
