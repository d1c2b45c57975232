package axnn

import (
	"repro/internal/nn"
	"repro/internal/quant"
)

// qConv is the quantized convolution stage — the layer whose multipliers
// the paper replaces with approximate designs.
//
// Weights are quantized per output channel (filter-wise scales), the
// standard scheme for deep conv stacks: per-tensor scales starve
// small-magnitude filters of resolution.
//
// With activation codes a (zero-point za) and weight codes w (zero-point
// zw of the channel), the exact affine accumulation per output element is
//
//	acc = sum (a-za)(w-zw)
//	    = sum M(a,w) - zw*sum(a) - za*sum(w) + n*za*zw
//
// where M is the multiplier. Only the first term goes through the
// (possibly approximate) LUT; the zero-point corrections are exact adder
// work in the accelerator and are computed exactly here, mirroring the
// TFApprox formulation.
//
// The accumulation runs as a tiled, weight-stationary GEMM over the
// im2col matrix: the transposed multiplier table keeps each weight
// code's 256 possible products in one contiguous 512-byte row,
// convBlock output channels share each pass over the column data, and
// the pixel dimension is cut into convTile-sized strips so the working
// set (column strip + block accumulators + 2 KB of LUT rows) stays
// L1/L2-resident. Integer accumulation is order-independent, so the
// tiled kernel is bit-for-bit identical to the retained reference
// kernel (refForward below), which tests pin for every registered
// multiplier.
type qConv struct {
	inC, outC, k, stride, pad int

	wCodes []uint8        // [outC][inC*k*k]
	wSum   []int32        // per-outC sum of weight codes
	wQP    []quant.Params // per-outC weight quantizer
	inQP   quant.Params
	outQP  quant.Params
	bias   []float32
}

const (
	// convBlock is the register-blocking factor: output channels whose
	// weight rows share one pass over each column strip.
	convBlock = 4
	// convTile is the pixel-strip width in elements: 4 accumulator rows
	// of int32 stay under 8 KB and each column strip is one L1 line run.
	convTile = 512
)

func newQConv(c *nn.Conv2D, inQP, outQP quant.Params, bits uint) *qConv {
	kk := c.InC * c.K * c.K
	q := &qConv{
		inC: c.InC, outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad,
		wCodes: make([]uint8, c.OutC*kk),
		wSum:   make([]int32, c.OutC),
		wQP:    make([]quant.Params, c.OutC),
		inQP:   inQP, outQP: outQP,
		bias: append([]float32(nil), c.B...),
	}
	for oc := 0; oc < c.OutC; oc++ {
		row := c.W[oc*kk : (oc+1)*kk]
		lo, hi := quant.Range(row)
		qp := quant.Calibrate(lo, hi, bits)
		q.wQP[oc] = qp
		codes := qp.QuantizeSlice(row)
		copy(q.wCodes[oc*kk:(oc+1)*kk], codes)
		var s int32
		for _, w := range codes {
			s += int32(w)
		}
		q.wSum[oc] = s
	}
	return q
}

func (c *qConv) forward(net *Network, ws *workspace, in qtensor) (qtensor, []float32) {
	if net.ref {
		return c.refForward(net, in)
	}
	h, w := in.shape[1], in.shape[2]
	outH := (h+2*c.pad-c.k)/c.stride + 1
	outW := (w+2*c.pad-c.k)/c.stride + 1
	p := outH * outW
	kk := c.inC * c.k * c.k
	inVol := c.inC * h * w

	cols := u8(&ws.cols, kk*p)
	aSum := i32(&ws.aSum, p)
	nz := u32(&ws.nz, kk*p)
	nzOff := i32(&ws.nzOff, kk+1)
	tile := min(convTile, p)

	lutT := net.mulT
	zaCode := in.qp.Zero

	out := qtensor{n: in.n, shape: []int{c.outC, outH, outW}, data: ws.nextAct(in.n * c.outC * p), qp: c.outQP}
	for s := 0; s < in.n; s++ {
		x := in.data[s*inVol : (s+1)*inVol]
		// Route the sample on the raw activation plane: the fraction of
		// codes differing from the zero-point is (border effects aside)
		// the column matrix's nonzero fraction, and counting it here
		// costs one pass over the input instead of one over the k*k
		// times larger im2col output.
		nzX := 0
		for _, a := range x {
			if a != zaCode {
				nzX++
			}
		}

		sOut := out.data[s*c.outC*p:]
		if p == 1 {
			// im2col in the code domain; padding contributes the
			// zero-point code (real value 0), as in the hardware
			// dataflow.
			im2colCodes(x, c.inC, h, w, c.k, c.stride, c.pad, zaCode, cols)
			var colSum int32
			for _, a := range cols[:kk] {
				colSum += int32(a)
			}
			aSum[0] = colSum
			// 1x1 output plane (LeNet's conv3): the GEMM degenerates to
			// one dot product per output channel. Accumulate in registers
			// — no strip scratch, no tiles, no zeroing.
			acc := i32(&ws.acc, convBlock)
			col := cols[:kk]
			for oc0 := 0; oc0 < c.outC; oc0 += convBlock {
				nb := min(convBlock, c.outC-oc0)
				switch nb {
				case convBlock:
					acc[0], acc[1], acc[2], acc[3] = dot4(lutT, col,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk],
						c.wCodes[(oc0+2)*kk:(oc0+3)*kk],
						c.wCodes[(oc0+3)*kk:(oc0+4)*kk])
				case 3:
					acc[0], acc[1] = dot2(lutT, col,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk])
					acc[2] = dot1(lutT, col, c.wCodes[(oc0+2)*kk:(oc0+3)*kk])
				case 2:
					acc[0], acc[1] = dot2(lutT, col,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk])
				default:
					acc[0] = dot1(lutT, col, c.wCodes[oc0*kk:(oc0+1)*kk])
				}
				c.epilogue(net, acc, aSum, sOut, oc0, nb, 0, 1, 1)
			}
			continue
		}
		if nzX*sparseDen <= len(x)*sparseNum {
			// Sparse sample: decompose acc = sum_q row_q[za] (a per-
			// channel constant) + corrections over nonzero codes only.
			// Integer-exact, so bit-identical to the dense walk.
			var cnt int
			if c.stride == 1 {
				// Unit stride never materialises the column matrix for
				// sparse samples: the view is read off the (much
				// smaller) input plane directly.
				cnt = nzFromInput(x, c.inC, h, w, c.k, c.pad, outH, outW, zaCode, nz, nzOff[:kk+1])
			} else {
				im2colCodes(x, c.inC, h, w, c.k, c.stride, c.pad, zaCode, cols)
				cnt = nzFromCols(cols, p, kk, zaCode, nz, nzOff[:kk+1])
			}
			// Reconstruct the per-pixel code sums from the sparse view:
			// every column entry contributes za except the recorded
			// nonzero codes. Integer-exact, same value the dense scan
			// would produce.
			za32 := int32(zaCode)
			colBase := int32(kk) * za32
			for i := range aSum {
				aSum[i] = colBase
			}
			for _, pk := range nz[:cnt] {
				aSum[pk>>8] += int32(pk&0xff) - za32
			}
			acc := i32(&ws.acc, 2*convBlock*p)
			for oc0 := 0; oc0 < c.outC; oc0 += convBlock {
				nb := min(convBlock, c.outC-oc0)
				switch nb {
				case convBlock:
					sparseQuad4(lutT, nz, nzOff, kk, zaCode,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk],
						c.wCodes[(oc0+2)*kk:(oc0+3)*kk],
						c.wCodes[(oc0+3)*kk:(oc0+4)*kk],
						acc[0:4*p], acc[4*p:8*p])
				case 3:
					sparseBlock2(lutT, nz, nzOff, kk, zaCode,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk],
						acc[0:p], acc[p:2*p])
					sparseBlock1(lutT, nz, nzOff, kk, zaCode,
						c.wCodes[(oc0+2)*kk:(oc0+3)*kk], acc[2*p:3*p])
				case 2:
					sparseBlock2(lutT, nz, nzOff, kk, zaCode,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk],
						acc[0:p], acc[p:2*p])
				default:
					sparseBlock1(lutT, nz, nzOff, kk, zaCode,
						c.wCodes[oc0*kk:(oc0+1)*kk], acc[0:p])
				}
				c.epilogue(net, acc, aSum, sOut, oc0, nb, 0, p, p)
			}
			continue
		}

		// Dense sample: materialise the column matrix and take per-pixel
		// code sums in one sequential pass each.
		im2colCodes(x, c.inC, h, w, c.k, c.stride, c.pad, zaCode, cols)
		clear(aSum)
		for q := 0; q < kk; q++ {
			col := cols[q*p : (q+1)*p]
			sum := aSum[:len(col)]
			for i, a := range col {
				sum[i] += int32(a)
			}
		}

		acc := i32(&ws.acc, convBlock*tile)
		pack := u64(&ws.pack, convBlock*(convTile/2))
		for pt := 0; pt < p; pt += tile {
			pe := min(pt+tile, p)
			tw := pe - pt
			for oc0 := 0; oc0 < c.outC; oc0 += convBlock {
				nb := min(convBlock, c.outC-oc0)
				clear(acc[:nb*tw])
				switch nb {
				case convBlock:
					accBlock4(lutT, pack, cols, p, pt, pe, kk,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk],
						c.wCodes[(oc0+2)*kk:(oc0+3)*kk],
						c.wCodes[(oc0+3)*kk:(oc0+4)*kk],
						acc[0:tw], acc[tw:2*tw], acc[2*tw:3*tw], acc[3*tw:4*tw])
				case 3:
					accBlock2(lutT, pack, cols, p, pt, pe, kk,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk],
						acc[0:tw], acc[tw:2*tw])
					accBlock1(lutT, pack, cols, p, pt, pe, kk,
						c.wCodes[(oc0+2)*kk:(oc0+3)*kk], acc[2*tw:3*tw])
				case 2:
					accBlock2(lutT, pack, cols, p, pt, pe, kk,
						c.wCodes[(oc0+0)*kk:(oc0+1)*kk],
						c.wCodes[(oc0+1)*kk:(oc0+2)*kk],
						acc[0:tw], acc[tw:2*tw])
				default:
					accBlock1(lutT, pack, cols, p, pt, pe, kk,
						c.wCodes[oc0*kk:(oc0+1)*kk], acc[0:tw])
				}
				c.epilogue(net, acc, aSum, sOut, oc0, nb, pt, pe, p)
			}
		}
	}
	return out, nil
}

// sparseNum/sparseDen: a sample routes to the skip-zero kernel when its
// nonzero-code fraction is at most sparseNum/sparseDen. The sparse
// walk costs noticeably more per visited entry than the packed dense
// kernel per element (scattered read-modify-writes vs paired
// sequential accumulation), so it only wins once skipping removes a
// solid majority of the work; profiled on lenet5-digits, the
// crossover sits near half the entries zero.
const (
	sparseNum = 9
	sparseDen = 20
)

// epilogue requantizes one register block of accumulator rows into the
// output tensor; the arithmetic is exactly the reference kernel's.
func (c *qConv) epilogue(net *Network, acc, aSum []int32, sOut []uint8, oc0, nb, pt, pe, p int) {
	kk := c.inC * c.k * c.k
	tw := pe - pt
	za := int32(c.inQP.Zero)
	for j := 0; j < nb; j++ {
		oc := oc0 + j
		accj := acc[j*tw : (j+1)*tw]
		zw := int32(c.wQP[oc].Zero)
		scale := c.inQP.Scale * c.wQP[oc].Scale
		fixed := int32(kk)*za*zw - za*c.wSum[oc]
		bias := c.bias[oc]
		dst := sOut[oc*p+pt : oc*p+pe]
		if net.noZP {
			// Ablation: raw LUT sums without the correction adders.
			for i := range accj {
				dst[i] = c.outQP.Quantize(float32(float32(accj[i])*scale) + bias)
			}
			continue
		}
		sumT := aSum[pt:pe]
		for i := range accj {
			v := float32(float32(accj[i]-zw*sumT[i]+fixed)*scale) + bias
			dst[i] = c.outQP.Quantize(v)
		}
	}
}

// lutArr views the transposed table as a fixed-size array: one length
// check per kernel call, after which every uint16-composed index
// (uint16(w)<<8 | uint16(a)) is provably in bounds — the steady-state
// MAC is an OR, a load, and an add, with no per-access checks.
func lutArr(lutT []uint16) *[1 << 16]uint16 {
	return (*[1 << 16]uint16)(lutT)
}

// lutRow returns weight code wc's contiguous 256-entry product row of
// the transposed table — the row view used by the dense kernel, where
// the weight row is walked with varying codes per activation.
func lutRow(lutT []uint16, wc uint8) *[256]uint16 {
	return (*[256]uint16)(lutT[int(wc)<<8:])
}

// accBlock4 accumulates LUT products of four weight rows over the pixel
// strip [pt, pe), with the reduction (q) loop OUTER: for each q the four
// weight codes pin four contiguous 512-byte LUT rows, which stay
// L1-resident while the whole pixel strip streams past them — the only
// random accesses land inside those hot rows. Partial sums for pixel
// pairs are packed into uint64 halves (products are uint16, so a half
// never exceeds kk*65535 and the low half cannot carry into the high
// half for any kk the reference kernel's own int32 accumulator can
// represent) and live in the workspace pack scratch walked
// sequentially — cleared only up to the live pair count, so narrow
// tiles never pay for the full strip — and the steady-state MAC is an
// L1 row load, an OR/shift, and a packed add.
func accBlock4(lutT []uint16, pack []uint64, cols []uint8, p, pt, pe, kk int, w0, w1, w2, w3 []uint8, a0, a1, a2, a3 []int32) {
	t := lutArr(lutT)
	tw := pe - pt
	w0 = w0[:kk]
	w1 = w1[:kk]
	w2 = w2[:kk]
	w3 = w3[:kk]
	pairs := tw / 2
	const half = convTile / 2
	d0 := pack[0*half : 0*half+pairs : 1*half]
	d1 := pack[1*half : 1*half+pairs : 2*half]
	d2 := pack[2*half : 2*half+pairs : 3*half]
	d3 := pack[3*half : 3*half+pairs : 4*half]
	clear(d0)
	clear(d1)
	clear(d2)
	clear(d3)
	for q := 0; q < kk; q++ {
		col := cols[q*p+pt : q*p+pe : q*p+pe]
		h0 := uint16(w0[q]) << 8
		h1 := uint16(w1[q]) << 8
		h2 := uint16(w2[q]) << 8
		h3 := uint16(w3[q]) << 8
		for jj := range d0 {
			v0 := uint16(col[2*jj])
			v1 := uint16(col[2*jj+1])
			d0[jj] += uint64(t[h0|v0]) | uint64(t[h0|v1])<<32
			d1[jj] += uint64(t[h1|v0]) | uint64(t[h1|v1])<<32
			d2[jj] += uint64(t[h2|v0]) | uint64(t[h2|v1])<<32
			d3[jj] += uint64(t[h3|v0]) | uint64(t[h3|v1])<<32
		}
		if tw&1 != 0 {
			v := uint16(col[tw-1])
			a0[tw-1] += int32(t[h0|v])
			a1[tw-1] += int32(t[h1|v])
			a2[tw-1] += int32(t[h2|v])
			a3[tw-1] += int32(t[h3|v])
		}
	}
	for jj := 0; jj < pairs; jj++ {
		a0[2*jj] += int32(uint32(d0[jj]))
		a0[2*jj+1] += int32(uint32(d0[jj] >> 32))
		a1[2*jj] += int32(uint32(d1[jj]))
		a1[2*jj+1] += int32(uint32(d1[jj] >> 32))
		a2[2*jj] += int32(uint32(d2[jj]))
		a2[2*jj+1] += int32(uint32(d2[jj] >> 32))
		a3[2*jj] += int32(uint32(d3[jj]))
		a3[2*jj+1] += int32(uint32(d3[jj] >> 32))
	}
}

// accBlock2 is the two-row variant of accBlock4 for output-channel
// tails of 2 or 3 (e.g. LeNet's 6-channel first conv).
func accBlock2(lutT []uint16, pack []uint64, cols []uint8, p, pt, pe, kk int, w0, w1 []uint8, a0, a1 []int32) {
	t := lutArr(lutT)
	tw := pe - pt
	w0 = w0[:kk]
	w1 = w1[:kk]
	pairs := tw / 2
	const half = convTile / 2
	d0 := pack[0*half : 0*half+pairs : 1*half]
	d1 := pack[1*half : 1*half+pairs : 2*half]
	clear(d0)
	clear(d1)
	for q := 0; q < kk; q++ {
		col := cols[q*p+pt : q*p+pe : q*p+pe]
		h0 := uint16(w0[q]) << 8
		h1 := uint16(w1[q]) << 8
		for jj := range d0 {
			v0 := uint16(col[2*jj])
			v1 := uint16(col[2*jj+1])
			d0[jj] += uint64(t[h0|v0]) | uint64(t[h0|v1])<<32
			d1[jj] += uint64(t[h1|v0]) | uint64(t[h1|v1])<<32
		}
		if tw&1 != 0 {
			v := uint16(col[tw-1])
			a0[tw-1] += int32(t[h0|v])
			a1[tw-1] += int32(t[h1|v])
		}
	}
	for jj := 0; jj < pairs; jj++ {
		a0[2*jj] += int32(uint32(d0[jj]))
		a0[2*jj+1] += int32(uint32(d0[jj] >> 32))
		a1[2*jj] += int32(uint32(d1[jj]))
		a1[2*jj+1] += int32(uint32(d1[jj] >> 32))
	}
}

// accBlock1 is the single-row tail for output-channel counts that do
// not divide by convBlock, structured the same way.
func accBlock1(lutT []uint16, pack []uint64, cols []uint8, p, pt, pe, kk int, w0 []uint8, a0 []int32) {
	t := lutArr(lutT)
	tw := pe - pt
	w0 = w0[:kk]
	pairs := tw / 2
	d0 := pack[0 : pairs : convTile/2]
	clear(d0)
	for q := 0; q < kk; q++ {
		col := cols[q*p+pt : q*p+pe : q*p+pe]
		h0 := uint16(w0[q]) << 8
		for jj := range d0 {
			d0[jj] += uint64(t[h0|uint16(col[2*jj])]) | uint64(t[h0|uint16(col[2*jj+1])])<<32
		}
		if tw&1 != 0 {
			a0[tw-1] += int32(t[h0|uint16(col[tw-1])])
		}
	}
	for jj := 0; jj < pairs; jj++ {
		a0[2*jj] += int32(uint32(d0[jj]))
		a0[2*jj+1] += int32(uint32(d0[jj] >> 32))
	}
}

// dot4 is the degenerate p==1 kernel: four weight rows against one
// im2col column, accumulated entirely in registers. Column layers
// (LeNet's conv3) hit this shape once per sample per channel block,
// where strip scratch and tiling are pure overhead.
func dot4(lutT []uint16, col []uint8, w0, w1, w2, w3 []uint8) (int32, int32, int32, int32) {
	t := lutArr(lutT)
	w0 = w0[:len(col)]
	w1 = w1[:len(col)]
	w2 = w2[:len(col)]
	w3 = w3[:len(col)]
	var acc0, acc1, acc2, acc3 int32
	for q, a := range col {
		v := uint16(a)
		acc0 += int32(t[uint16(w0[q])<<8|v])
		acc1 += int32(t[uint16(w1[q])<<8|v])
		acc2 += int32(t[uint16(w2[q])<<8|v])
		acc3 += int32(t[uint16(w3[q])<<8|v])
	}
	return acc0, acc1, acc2, acc3
}

// dot2 is the two-row p==1 kernel.
func dot2(lutT []uint16, col []uint8, w0, w1 []uint8) (int32, int32) {
	t := lutArr(lutT)
	w0 = w0[:len(col)]
	w1 = w1[:len(col)]
	var acc0, acc1 int32
	for q, a := range col {
		v := uint16(a)
		acc0 += int32(t[uint16(w0[q])<<8|v])
		acc1 += int32(t[uint16(w1[q])<<8|v])
	}
	return acc0, acc1
}

// dot1 is the single-row p==1 kernel.
func dot1(lutT []uint16, col []uint8, w0 []uint8) int32 {
	t := lutArr(lutT)
	w0 = w0[:len(col)]
	var acc0 int32
	for q, a := range col {
		acc0 += int32(t[uint16(w0[q])<<8|uint16(a)])
	}
	return acc0
}

// sparseQuad4 is the skip-zero counterpart of accBlock4, decomposing
// each accumulator as the per-channel sum of the reduction rows'
// zero-point products (what a pixel of all-zero codes accumulates)
// plus corrections for the entries whose code differs from the
// zero-point, taken from the packed sparse view built in forward.
// Corrections land in quad, a pixel-interleaved scratch (the four
// channels of pixel i at quad[4i..4i+4]) so each entry touches one
// cache line through one bounds check; the final pass de-interleaves
// into the four rows of acc and adds the base term. Integer addition
// is order-independent, so results are bit-identical to the dense
// kernels. Rows are OVERWRITTEN, not accumulated into.
func sparseQuad4(lutT []uint16, nz []uint32, nzOff []int32, kk int, zaCode uint8, w0, w1, w2, w3 []uint8, acc, quad []int32) {
	t := lutArr(lutT)
	za := uint16(zaCode)
	w0 = w0[:kk]
	w1 = w1[:kk]
	w2 = w2[:kk]
	w3 = w3[:kk]
	clear(quad)
	var base0, base1, base2, base3 int32
	for q := 0; q < kk; q++ {
		h0 := uint16(w0[q]) << 8
		h1 := uint16(w1[q]) << 8
		h2 := uint16(w2[q]) << 8
		h3 := uint16(w3[q]) << 8
		z0 := int32(t[h0|za])
		z1 := int32(t[h1|za])
		z2 := int32(t[h2|za])
		z3 := int32(t[h3|za])
		base0 += z0
		base1 += z1
		base2 += z2
		base3 += z3
		for _, pk := range nz[nzOff[q]:nzOff[q+1]] {
			j := int(pk>>8) * 4
			v := uint16(pk & 0xff)
			s := quad[j : j+4 : j+4]
			s[0] += int32(t[h0|v]) - z0
			s[1] += int32(t[h1|v]) - z1
			s[2] += int32(t[h2|v]) - z2
			s[3] += int32(t[h3|v]) - z3
		}
	}
	p := len(quad) / 4
	a0 := acc[0*p : 1*p]
	a1 := acc[1*p : 2*p]
	a2 := acc[2*p : 3*p]
	a3 := acc[3*p : 4*p]
	for i := range a0 {
		a0[i] = quad[4*i] + base0
		a1[i] = quad[4*i+1] + base1
		a2[i] = quad[4*i+2] + base2
		a3[i] = quad[4*i+3] + base3
	}
}

// sparseBlock2 is the two-row skip-zero variant.
func sparseBlock2(lutT []uint16, nz []uint32, nzOff []int32, kk int, zaCode uint8, w0, w1 []uint8, a0, a1 []int32) {
	t := lutArr(lutT)
	za := uint16(zaCode)
	w0 = w0[:kk]
	w1 = w1[:kk]
	var base0, base1 int32
	for q := 0; q < kk; q++ {
		base0 += int32(t[uint16(w0[q])<<8|za])
		base1 += int32(t[uint16(w1[q])<<8|za])
	}
	a1 = a1[:len(a0)] // i < len(a0) == len(a1): fill loop stays check-free
	for i := range a0 {
		a0[i] = base0
		a1[i] = base1
	}
	for q := 0; q < kk; q++ {
		h0 := uint16(w0[q]) << 8
		h1 := uint16(w1[q]) << 8
		z0 := int32(t[h0|za])
		z1 := int32(t[h1|za])
		for _, pk := range nz[nzOff[q]:nzOff[q+1]] {
			i := int(pk >> 8)
			v := uint16(pk & 0xff)
			a0[i] += int32(t[h0|v]) - z0
			a1[i] += int32(t[h1|v]) - z1
		}
	}
}

// sparseBlock1 is the single-row skip-zero variant.
func sparseBlock1(lutT []uint16, nz []uint32, nzOff []int32, kk int, zaCode uint8, w0 []uint8, a0 []int32) {
	t := lutArr(lutT)
	za := uint16(zaCode)
	w0 = w0[:kk]
	var base0 int32
	for q := 0; q < kk; q++ {
		base0 += int32(t[uint16(w0[q])<<8|za])
	}
	for i := range a0 {
		a0[i] = base0
	}
	for q := 0; q < kk; q++ {
		h0 := uint16(w0[q]) << 8
		z0 := int32(t[h0|za])
		for _, pk := range nz[nzOff[q]:nzOff[q+1]] {
			i := int(pk >> 8)
			v := uint16(pk & 0xff)
			a0[i] += int32(t[h0|v]) - z0
		}
	}
}

// nzFromInput builds the packed sparse column view (pixel<<8 | code
// per entry, rows delimited by nzOff) straight from the input
// activation plane of a stride-1 convolution, never materialising the
// dense column matrix: each kernel offset (ci, ki, kj) reads one
// shifted window of the input rows, and out-of-image positions hold
// the zero-point code, so they can never yield an entry. Entry order
// (ascending q, then ascending pixel) matches nzFromCols exactly.
func nzFromInput(x []uint8, inC, h, w, k, pad, outH, outW int, zaCode uint8, nz []uint32, nzOff []int32) int {
	cnt := 0
	q := 0
	for ci := 0; ci < inC; ci++ {
		plane := x[ci*h*w : (ci+1)*h*w]
		for ki := 0; ki < k; ki++ {
			oi0 := max(0, pad-ki)
			oi1 := min(outH, h+pad-ki)
			for kj := 0; kj < k; kj++ {
				nzOff[q] = int32(cnt)
				q++
				j0 := max(0, pad-kj)
				j1 := min(outW, w+pad-kj)
				off := kj - pad
				for oi := oi0; oi < oi1; oi++ {
					row := plane[(oi+ki-pad)*w : (oi+ki-pad)*w+w]
					base := uint32(oi*outW) << 8
					for oj := j0; oj < j1; oj++ {
						a := row[oj+off]
						// Unconditional store + conditional bump
						// compiles branch-free; zero-point entries are
						// overwritten by the next nonzero one.
						nz[cnt] = (base + uint32(oj)<<8) | uint32(a)
						if a != zaCode {
							cnt++
						}
					}
				}
			}
		}
	}
	nzOff[q] = int32(cnt)
	return cnt
}

// nzFromCols builds the same packed sparse view from an already
// materialised column matrix — the fallback for strided convolutions.
func nzFromCols(cols []uint8, p, kk int, zaCode uint8, nz []uint32, nzOff []int32) int {
	cnt := 0
	for q := 0; q < kk; q++ {
		nzOff[q] = int32(cnt)
		for i, a := range cols[q*p : (q+1)*p] {
			nz[cnt] = uint32(i)<<8 | uint32(a)
			if a != zaCode {
				cnt++
			}
		}
	}
	nzOff[kk] = int32(cnt)
	return cnt
}

// im2colCodes is Im2col over uint8 codes with a configurable padding
// code (the activation zero-point).
func im2colCodes(x []uint8, inC, h, w, k, stride, pad int, padCode uint8, cols []uint8) {
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
						dst := cols[row+idx : row+idx+outW]
						for oj := range dst {
							dst[oj] = padCode
						}
						idx += outW
						continue
					}
					rowBase := base + ii*w
					if stride == 1 {
						// Unit stride reads a contiguous input run: pad the
						// out-of-image edges in bulk, memcpy the interior.
						j0 := max(0, pad-kj)
						j1 := min(outW, w+pad-kj)
						dst := cols[row+idx : row+idx+outW]
						for oj := 0; oj < j0; oj++ {
							dst[oj] = padCode
						}
						if j1 > j0 {
							copy(dst[j0:j1], x[rowBase+j0+kj-pad:])
						}
						for oj := j1; oj < outW; oj++ {
							dst[oj] = padCode
						}
						idx += outW
						continue
					}
					for oj := 0; oj < outW; oj++ {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							cols[row+idx] = padCode
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
