package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer over flat [In] samples or [N,In]
// batches.
type Dense struct {
	In, Out int

	W []float32 // [Out][In]
	B []float32

	GW []float32
	GB []float32
}

// NewDense creates a dense layer with He-uniform initialised weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:  make([]float32, out*in),
		B:  make([]float32, out),
		GW: make([]float32, out*in),
		GB: make([]float32, out),
	}
	bound := float32(math.Sqrt(6.0 / float64(in)))
	for i := range d.W {
		d.W[i] = (rng.Float32()*2 - 1) * bound
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.T, st *State) *tensor.T {
	n, sample := batchDims(x, 1)
	if len(sample) != 1 || sample[0] != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d inputs, got shape %v", d.In, x.Shape))
	}
	st.x = x
	var y *tensor.T
	if len(x.Shape) == 2 {
		y = tensor.New(n, d.Out)
	} else {
		y = tensor.New(d.Out)
	}
	for s := 0; s < n; s++ {
		xd := x.Data[s*d.In : (s+1)*d.In]
		yd := y.Data[s*d.Out : (s+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			w := d.W[o*d.In : (o+1)*d.In]
			var sum float32
			for i, v := range xd {
				sum += float32(w[i] * v)
			}
			yd[o] = sum + d.B[o]
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.T, st *State) *tensor.T {
	x := st.x
	n, _ := batchDims(x, 1)
	var dx *tensor.T
	if len(x.Shape) == 2 {
		dx = tensor.New(n, d.In)
	} else {
		dx = tensor.New(d.In)
	}
	for s := 0; s < n; s++ {
		xd := x.Data[s*d.In : (s+1)*d.In]
		dxd := dx.Data[s*d.In : (s+1)*d.In]
		dyd := dy.Data[s*d.Out : (s+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			g := dyd[o]
			if st.accumGrads {
				d.GB[o] += g
			}
			if g == 0 {
				continue
			}
			w := d.W[o*d.In : (o+1)*d.In]
			if st.accumGrads {
				gw := d.GW[o*d.In : (o+1)*d.In]
				for i, v := range xd {
					gw[i] += float32(g * v)
					dxd[i] += float32(g * w[i])
				}
			} else {
				for i := range dxd {
					dxd[i] += float32(g * w[i])
				}
			}
		}
	}
	return dx
}

// Params implements ParamLayer.
func (d *Dense) Params() []Param {
	return []Param{{Name: "W", W: d.W, G: d.GW}, {Name: "B", W: d.B, G: d.GB}}
}

// CloneForTraining implements ParamLayer.
func (d *Dense) CloneForTraining() Layer {
	return &Dense{
		In: d.In, Out: d.Out, W: d.W, B: d.B,
		GW: make([]float32, len(d.GW)),
		GB: make([]float32, len(d.GB)),
	}
}

// CloneDetached implements ParamLayer: private copies of W/B, fresh
// gradients.
func (d *Dense) CloneDetached() Layer {
	return &Dense{
		In: d.In, Out: d.Out,
		W:  append([]float32(nil), d.W...),
		B:  append([]float32(nil), d.B...),
		GW: make([]float32, len(d.GW)),
		GB: make([]float32, len(d.GB)),
	}
}
