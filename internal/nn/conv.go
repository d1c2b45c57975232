package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution (cross-correlation) layer over [C,H,W]
// samples or [N,C,H,W] batches, implemented with im2col and one GEMM
// kernel (see gemm: packed SSE on amd64, portable Go on every other
// GOARCH, the same bits on both). Samples run in groups whose combined
// pixel count fills at least minGroupCols GEMM columns: one sample per
// group for wide layers, the whole batch for 1×1-output layers such as
// LeNet's conv3. Forward unrolls a group into a [InC*K*K, cols] buffer
// and computes W·cols; Backward computes the column gradients Wᵀ·dy
// and scatters them back with col2im. Scratch is bounded by one group,
// not the batch.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int

	W []float32 // [OutC][InC*K*K]
	B []float32 // [OutC]

	GW []float32
	GB []float32
}

// NewConv2D creates a conv layer with He-uniform initialised weights.
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:  make([]float32, outC*inC*k*k),
		B:  make([]float32, outC),
		GW: make([]float32, outC*inC*k*k),
		GB: make([]float32, outC),
	}
	bound := float32(math.Sqrt(6.0 / float64(inC*k*k)))
	for i := range c.W {
		c.W[i] = (rng.Float32()*2 - 1) * bound
	}
	return c
}

// OutSize returns the spatial output size for an input of h x w.
func (c *Conv2D) OutSize(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

// minGroupCols is the GEMM width a sample group must reach: below it
// the kernel's 4-column tiles mostly see loop overhead (a 1×1-output
// layer run per sample is a matrix-vector product).
const minGroupCols = 32

// convGeom is the per-call geometry shared by Forward and Backward.
type convGeom struct {
	n, inH, inW, outH, outW int
	p, kk                   int // output pixels per sample, column rows
	g                       int // samples per GEMM group
}

func (c *Conv2D) geom(x *tensor.T) convGeom {
	n, sample := batchDims(x, 3)
	if len(sample) != 3 || sample[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [%d,H,W] or [N,%d,H,W], got %v", c.InC, c.InC, x.Shape))
	}
	inH, inW := sample[1], sample[2]
	outH, outW := c.OutSize(inH, inW)
	p := outH * outW
	return convGeom{
		n: n, inH: inH, inW: inW, outH: outH, outW: outW,
		p: p, kk: c.InC * c.K * c.K,
		g: min(n, (minGroupCols+p-1)/p),
	}
}

// ld is the GEMM column count of a group of gs samples: gs*p rounded
// up to the 4-wide tile. Padding columns hold stale scratch; a product
// column depends only on its own input column, so they are computed
// and discarded without reaching any kept output.
func (cg convGeom) ld(gs int) int { return (gs*cg.p + 3) &^ 3 }

// grow returns (*buf)[:n], reallocating when the capacity is short.
func grow(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.T, st *State) *tensor.T {
	cg := c.geom(x)
	p, kk := cg.p, cg.kk
	st.x = x
	var y *tensor.T
	if len(x.Shape) == 4 {
		y = tensor.New(cg.n, c.OutC, cg.outH, cg.outW)
	} else {
		y = tensor.New(c.OutC, cg.outH, cg.outW)
	}
	inStride := c.InC * cg.inH * cg.inW
	outStride := c.OutC * p
	for s0 := 0; s0 < cg.n; s0 += cg.g {
		gs := min(cg.g, cg.n-s0)
		ld := cg.ld(gs)
		cols := grow(&st.cols, kk*ld)
		for s := 0; s < gs; s++ {
			xs := x.Data[(s0+s)*inStride : (s0+s+1)*inStride]
			im2col(xs, c.InC, cg.inH, cg.inW, c.K, c.Stride, c.Pad, cols[s*p:], ld)
		}
		// A one-sample group without padding accumulates straight into
		// y; otherwise the [OutC, ld] product is scattered per sample.
		out := y.Data[s0*outStride : (s0+1)*outStride]
		if ld != p {
			out = grow(&st.grp, c.OutC*ld)
		}
		gemm(c.W, c.OutC, kk, cols, ld, out)
		for s := 0; s < gs; s++ {
			yd := y.Data[(s0+s)*outStride : (s0+s+1)*outStride]
			for oc := 0; oc < c.OutC; oc++ {
				src := out[oc*ld+s*p : oc*ld+(s+1)*p]
				dst := yd[oc*p : (oc+1)*p]
				bias := c.B[oc]
				for i, v := range src {
					dst[i] = v + bias
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
//
// The weight gradient needs each sample's columns, but Forward keeps
// only the last group's: training passes (accumGrads) rebuild them per
// sample, and attack passes, which only want dx, skip the work.
func (c *Conv2D) Backward(dy *tensor.T, st *State) *tensor.T {
	x := st.x
	cg := c.geom(x)
	p, kk := cg.p, cg.kk

	wt := grow(&st.wt, kk*c.OutC)
	for oc := 0; oc < c.OutC; oc++ {
		for q, w := range c.W[oc*kk : (oc+1)*kk] {
			wt[q*c.OutC+oc] = w
		}
	}

	var dx *tensor.T
	if len(x.Shape) == 4 {
		dx = tensor.New(cg.n, c.InC, cg.inH, cg.inW)
	} else {
		dx = tensor.New(c.InC, cg.inH, cg.inW)
	}
	inStride := c.InC * cg.inH * cg.inW
	outStride := c.OutC * p
	for s0 := 0; s0 < cg.n; s0 += cg.g {
		gs := min(cg.g, cg.n-s0)
		ld := cg.ld(gs)
		cols := grow(&st.cols, kk*ld)
		if st.accumGrads {
			for s := s0; s < s0+gs; s++ {
				scols := cols[:kk*p]
				im2col(x.Data[s*inStride:(s+1)*inStride], c.InC, cg.inH, cg.inW, c.K, c.Stride, c.Pad, scols, p)
				c.accumWeightGrads(dy.Data[s*outStride:(s+1)*outStride], scols, p)
			}
		}
		// Gather the group's output gradients into [OutC, ld] unless the
		// sample's own [OutC, p] block already has that layout.
		grp := dy.Data[s0*outStride : (s0+1)*outStride]
		if ld != p {
			grp = grow(&st.grp, c.OutC*ld)
			for s := 0; s < gs; s++ {
				dyd := dy.Data[(s0+s)*outStride : (s0+s+1)*outStride]
				for oc := 0; oc < c.OutC; oc++ {
					copy(grp[oc*ld+s*p:oc*ld+(s+1)*p], dyd[oc*p:(oc+1)*p])
				}
			}
		}
		// Column gradients dcols = Wᵀ·dy reuse the column buffer.
		gemm(wt, kk, c.OutC, grp, ld, cols)
		for s := 0; s < gs; s++ {
			dxs := dx.Data[(s0+s)*inStride : (s0+s+1)*inStride]
			col2im(cols[s*p:], ld, c.InC, cg.inH, cg.inW, c.K, c.Stride, c.Pad, dxs)
		}
	}
	return dx
}

// accumWeightGrads adds one sample's weight and bias gradients: for
// each output channel, each weight's per-sample sum over pixels, then
// the bias sum. Trained weights are only reproducible if this order
// never changes.
func (c *Conv2D) accumWeightGrads(dyd, cols []float32, p int) {
	kk := c.InC * c.K * c.K
	for oc := 0; oc < c.OutC; oc++ {
		d := dyd[oc*p : (oc+1)*p]
		gw := c.GW[oc*kk : (oc+1)*kk]
		for q := 0; q < kk; q++ {
			col := cols[q*p : (q+1)*p]
			var sum float32
			for i, v := range col {
				sum += float32(d[i] * v)
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

// Params implements ParamLayer.
func (c *Conv2D) Params() []Param {
	return []Param{{Name: "W", W: c.W, G: c.GW}, {Name: "B", W: c.B, G: c.GB}}
}

// CloneForTraining implements ParamLayer: shares W/B, fresh gradients.
func (c *Conv2D) CloneForTraining() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W: c.W, B: c.B,
		GW: make([]float32, len(c.GW)),
		GB: make([]float32, len(c.GB)),
	}
}

// CloneDetached implements ParamLayer: private copies of W/B, fresh
// gradients.
func (c *Conv2D) CloneDetached() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W:  append([]float32(nil), c.W...),
		B:  append([]float32(nil), c.B...),
		GW: make([]float32, len(c.GW)),
		GB: make([]float32, len(c.GB)),
	}
}

// inRun returns the range [lo, hi) of output columns oj whose input
// column oj+kj-pad lies inside [0, w), for stride 1.
func inRun(outW, w, kj, pad int) (lo, hi int) {
	lo = min(max(pad-kj, 0), outW)
	hi = max(min(w+pad-kj, outW), lo)
	return lo, hi
}

// im2col unrolls one sample's receptive fields into columns with row
// stride ld: cols[(ci*K*K + ki*K + kj)*ld + p] = x[ci, i, j] for output
// pixel p. Out-of-bounds (padding) positions contribute zero. With
// stride 1 each in-bounds run of a row is one contiguous copy.
func im2col(x []float32, inC, h, w, k, stride, pad int, cols []float32, ld int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	for ci := 0; ci < inC; ci++ {
		base := ci * h * w
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				row := cols[((ci*k+ki)*k+kj)*ld:]
				lo, hi := inRun(outW, w, kj, pad)
				for oi := 0; oi < outH; oi++ {
					dst := row[oi*outW : (oi+1)*outW]
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						clear(dst)
						continue
					}
					src := x[base+ii*w : base+(ii+1)*w]
					if stride == 1 {
						clear(dst[:lo])
						if lo < hi {
							copy(dst[lo:hi], src[lo+kj-pad:])
						}
						clear(dst[hi:])
						continue
					}
					for oj := range dst {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							dst[oj] = 0
						} else {
							dst[oj] = src[jj]
						}
					}
				}
			}
		}
	}
}

// col2im scatters one sample's column gradients (row stride ld) back to
// the input layout, summing overlapping contributions in (ci, ki, kj)
// row order. dst must be zeroed by the caller (a fresh tensor.New
// suffices). With stride 1 each in-bounds run is one contiguous add.
func col2im(cols []float32, ld, inC, h, w, k, stride, pad int, dst []float32) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	for ci := 0; ci < inC; ci++ {
		base := ci * h * w
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				row := cols[((ci*k+ki)*k+kj)*ld:]
				lo, hi := inRun(outW, w, kj, pad)
				for oi := 0; oi < outH; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue
					}
					src := row[oi*outW : (oi+1)*outW]
					out := dst[base+ii*w : base+(ii+1)*w]
					if stride == 1 {
						if lo < hi {
							out = out[lo+kj-pad:][:hi-lo]
							for i, v := range src[lo:hi] {
								out[i] += v
							}
						}
						continue
					}
					for oj, v := range src {
						jj := oj*stride + kj - pad
						if jj >= 0 && jj < w {
							out[jj] += v
						}
					}
				}
			}
		}
	}
}
