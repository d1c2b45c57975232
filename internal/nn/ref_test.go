package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// The reference kernels below are the pre-tiling float conv passes,
// kept verbatim: one scalar axpy per weight over a whole-batch im2col
// buffer, with a zero-weight skip. They are the ground truth for the
// bit-for-bit parity tests in conv_test.go and the baseline side of
// BenchmarkFloatConvVsRef. Test-only, so no second production path
// ships.

// refState is the reference kernels' scratch: the State fields they
// used, with the whole-batch columns and per-sample column gradients.
type refState struct {
	accumGrads bool

	x     *tensor.T
	cols  []float32
	dcols []float32
}

// refConv runs a Conv2D through the reference kernels. It owns one
// refState, so unlike Conv2D it is not safe for concurrent passes.
type refConv struct {
	c  *Conv2D
	st refState
}

func (r *refConv) Forward(x *tensor.T, st *State) *tensor.T {
	r.st.accumGrads = st.accumGrads
	return r.c.refForward(x, &r.st)
}

func (r *refConv) Backward(dy *tensor.T, st *State) *tensor.T {
	return r.c.refBackward(dy, &r.st)
}

// RefNetwork returns a network sharing n's layers and weights with
// every Conv2D run through the reference kernels. Exported for the
// benchmark in the external test package.
func RefNetwork(n *Network) *Network {
	r := &Network{Name: n.Name, Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		if c, ok := l.(*Conv2D); ok {
			r.Layers[i] = &refConv{c: c}
		} else {
			r.Layers[i] = l
		}
	}
	return r
}

// refForward is the pre-tiling Conv2D.Forward.
func (c *Conv2D) refForward(x *tensor.T, st *refState) *tensor.T {
	n, sample := batchDims(x, 3)
	if len(sample) != 3 || sample[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [%d,H,W] or [N,%d,H,W], got %v", c.InC, c.InC, x.Shape))
	}
	inH, inW := sample[1], sample[2]
	outH, outW := c.OutSize(inH, inW)
	p := outH * outW
	kk := c.InC * c.K * c.K
	st.x = x
	if cap(st.cols) < n*kk*p {
		st.cols = make([]float32, n*kk*p)
	}
	st.cols = st.cols[:n*kk*p]

	var y *tensor.T
	if len(x.Shape) == 4 {
		y = tensor.New(n, c.OutC, outH, outW)
	} else {
		y = tensor.New(c.OutC, outH, outW)
	}
	inStride := c.InC * inH * inW
	for s := 0; s < n; s++ {
		cols := st.cols[s*kk*p : (s+1)*kk*p]
		refIm2col(x.Data[s*inStride:(s+1)*inStride], c.InC, inH, inW, c.K, c.Stride, c.Pad, cols)
		yd := y.Data[s*c.OutC*p : (s+1)*c.OutC*p]
		for oc := 0; oc < c.OutC; oc++ {
			w := c.W[oc*kk : (oc+1)*kk]
			out := yd[oc*p : (oc+1)*p]
			for q := 0; q < kk; q++ {
				wq := w[q]
				if wq == 0 {
					continue
				}
				col := cols[q*p : (q+1)*p]
				for i, v := range col {
					out[i] += wq * v
				}
			}
			bias := c.B[oc]
			for i := range out {
				out[i] += bias
			}
		}
	}
	return y
}

// refBackward is the pre-tiling Conv2D.Backward.
func (c *Conv2D) refBackward(dy *tensor.T, st *refState) *tensor.T {
	x := st.x
	n, sample := batchDims(x, 3)
	inH, inW := sample[1], sample[2]
	outH, outW := c.OutSize(inH, inW)
	p := outH * outW
	kk := c.InC * c.K * c.K

	if cap(st.dcols) < kk*p {
		st.dcols = make([]float32, kk*p)
	}
	dcols := st.dcols[:kk*p]

	var dx *tensor.T
	if len(x.Shape) == 4 {
		dx = tensor.New(n, c.InC, inH, inW)
	} else {
		dx = tensor.New(c.InC, inH, inW)
	}
	inStride := c.InC * inH * inW
	for s := 0; s < n; s++ {
		cols := st.cols[s*kk*p : (s+1)*kk*p]
		dyd := dy.Data[s*c.OutC*p : (s+1)*c.OutC*p]
		if st.accumGrads {
			for oc := 0; oc < c.OutC; oc++ {
				d := dyd[oc*p : (oc+1)*p]
				gw := c.GW[oc*kk : (oc+1)*kk]
				for q := 0; q < kk; q++ {
					col := cols[q*p : (q+1)*p]
					var sum float32
					for i, v := range col {
						sum += d[i] * v
					}
					gw[q] += sum
				}
				var sb float32
				for _, v := range d {
					sb += v
				}
				c.GB[oc] += sb
			}
		}
		// Input gradient via dcols = W^T dy, then col2im.
		for i := range dcols {
			dcols[i] = 0
		}
		for oc := 0; oc < c.OutC; oc++ {
			d := dyd[oc*p : (oc+1)*p]
			w := c.W[oc*kk : (oc+1)*kk]
			for q := 0; q < kk; q++ {
				wq := w[q]
				if wq == 0 {
					continue
				}
				dst := dcols[q*p : (q+1)*p]
				for i, v := range d {
					dst[i] += wq * v
				}
			}
		}
		refCol2im(dcols, c.InC, inH, inW, c.K, c.Stride, c.Pad, dx.Data[s*inStride:(s+1)*inStride])
	}
	return dx
}

// refIm2col unrolls conv receptive fields into columns:
// cols[(ci*K*K + ki*K + kj)*P + p] = x[ci, i, j] for output pixel p.
// Out-of-bounds (padding) positions contribute zero.
func refIm2col(x []float32, inC, h, w, k, stride, pad int, cols []float32) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	p := outH * outW
	for ci := 0; ci < inC; ci++ {
		base := ci * h * w
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				row := ((ci*k+ki)*k + kj) * p
				idx := 0
				for oi := 0; oi < outH; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						for oj := 0; oj < outW; oj++ {
							cols[row+idx] = 0
							idx++
						}
						continue
					}
					rowBase := base + ii*w
					for oj := 0; oj < outW; oj++ {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							cols[row+idx] = 0
						} else {
							cols[row+idx] = x[rowBase+jj]
						}
						idx++
					}
				}
			}
		}
	}
}

// refCol2im scatters column gradients back to the input layout, summing
// overlapping contributions. dst must be zeroed by the caller (a fresh
// tensor.New suffices).
func refCol2im(cols []float32, inC, h, w, k, stride, pad int, dst []float32) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	p := outH * outW
	for ci := 0; ci < inC; ci++ {
		base := ci * h * w
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				row := ((ci*k+ki)*k + kj) * p
				idx := 0
				for oi := 0; oi < outH; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						idx += outW
						continue
					}
					rowBase := base + ii*w
					for oj := 0; oj < outW; oj++ {
						jj := oj*stride + kj - pad
						if jj >= 0 && jj < w {
							dst[rowBase+jj] += cols[row+idx]
						}
						idx++
					}
				}
			}
		}
	}
}
