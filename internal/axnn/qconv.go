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
// The accumulation runs as a tiled, weight-stationary GEMM over one
// im2col matrix for the whole chunk of samples: the transposed
// multiplier table keeps each weight code's 256 possible products in
// one contiguous 512-byte row, convBlock output channels share each
// pass over the column data, and the column dimension is cut into
// convTile-sized strips so the working set (column strip + block
// accumulators + 2 KB of LUT rows) stays L1/L2-resident. On AVX2 hosts
// the strips run through the gather kernels of lutvec_amd64.s, with
// the portable accBlock*/dot* loops below as their twins everywhere
// else. Integer accumulation is order-independent, so every kernel is
// bit-for-bit identical to the retained reference kernel (refForward
// in ref.go), which tests pin for every registered multiplier.
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
	lutT := net.mulT
	zaCode := in.qp.Zero

	out := qtensor{n: in.n, shape: []int{c.outC, outH, outW}, data: ws.nextAct(in.n * c.outC * p), qp: c.outQP}
	if p == 1 {
		// 1x1 output plane (LeNet's conv3): the GEMM degenerates to one
		// dot product per sample and output channel, accumulated in
		// registers — no strip scratch, no tiles, no zeroing.
		col := u8(&ws.cols, kk)
		aSum := i32(&ws.aSum, 1)
		acc := i32(&ws.acc, c.outC)
		for s := 0; s < in.n; s++ {
			// im2col in the code domain; padding contributes the
			// zero-point code (real value 0), as in the hardware
			// dataflow.
			im2colCodes(in.data[s*inVol:(s+1)*inVol], c.inC, h, w, c.k, c.stride, c.pad, zaCode, col, 1)
			var colSum int32
			for _, a := range col {
				colSum += int32(a)
			}
			aSum[0] = colSum
			c.dots(lutT, col, acc)
			c.epilogue(net, acc, 1, aSum, out.data[s*c.outC:], 0, c.outC, 1)
		}
		return out, nil
	}

	// One column matrix for the whole chunk: sample s fills columns
	// [s*p, (s+1)*p) of every row, and the rows are padded to a
	// multiple of the vector lane width with the zero-point code.
	np := in.n * p
	ld := lanePad(np)
	cols := u8(&ws.cols, kk*ld)
	for s := 0; s < in.n; s++ {
		im2colCodes(in.data[s*inVol:(s+1)*inVol], c.inC, h, w, c.k, c.stride, c.pad, zaCode, cols[s*p:], ld)
	}
	aSum := i32(&ws.aSum, ld)
	clear(aSum)
	for q := 0; q < kk; q++ {
		col := cols[q*ld : (q+1)*ld]
		for i := np; i < ld; i++ {
			col[i] = zaCode
		}
		sum := aSum[:len(col)]
		for i, a := range col {
			sum[i] += int32(a)
		}
	}

	tile := min(convTile, ld)
	acc := i32(&ws.acc, convBlock*tile)
	pack := u64(&ws.pack, convBlock*(convTile/2))
	for pt := 0; pt < ld; pt += tile {
		pe := min(pt+tile, ld)
		tw := pe - pt
		for oc0 := 0; oc0 < c.outC; oc0 += convBlock {
			nb := min(convBlock, c.outC-oc0)
			c.accTile(lutT, pack, cols, ld, pt, pe, kk, oc0, nb, acc[:nb*tw])
			// Requantize the tile's live columns sample by sample.
			for lo := pt; lo < min(pe, np); {
				s := lo / p
				hi := min(pe, np, (s+1)*p)
				c.epilogue(net, acc[lo-pt:], tw, aSum[lo:hi], out.data[s*c.outC*p+lo-s*p:], oc0, nb, p)
				lo = hi
			}
		}
	}
	return out, nil
}

// accTile accumulates output channels [oc0, oc0+nb) over the column
// strip [pt, pe) of the ld-strided column matrix into acc, one row of
// pe-pt accumulators per channel. With AVX2 each (channel, reduction
// row) pair is one row-kernel call over the strip; otherwise the
// portable pair-packed kernels run the whole block.
func (c *qConv) accTile(lutT []uint16, pack []uint64, cols []uint8, ld, pt, pe, kk, oc0, nb int, acc []int32) {
	tw := pe - pt
	clear(acc)
	w := c.wCodes[oc0*kk : (oc0+nb)*kk]
	if vecLUT {
		for q := 0; q < kk; q++ {
			col := cols[q*ld+pt : q*ld+pe]
			for j := 0; j < nb; j++ {
				lutRowVec(lutT, w[j*kk+q], col, acc[j*tw:(j+1)*tw])
			}
		}
		return
	}
	switch nb {
	case convBlock:
		accBlock4(lutT, pack, cols, ld, pt, pe, kk,
			w[0*kk:1*kk], w[1*kk:2*kk], w[2*kk:3*kk], w[3*kk:4*kk],
			acc[0:tw], acc[tw:2*tw], acc[2*tw:3*tw], acc[3*tw:4*tw])
	case 3:
		accBlock2(lutT, pack, cols, ld, pt, pe, kk, w[0:kk], w[kk:2*kk], acc[0:tw], acc[tw:2*tw])
		accBlock1(lutT, pack, cols, ld, pt, pe, kk, w[2*kk:3*kk], acc[2*tw:3*tw])
	case 2:
		accBlock2(lutT, pack, cols, ld, pt, pe, kk, w[0:kk], w[kk:2*kk], acc[0:tw], acc[tw:2*tw])
	default:
		accBlock1(lutT, pack, cols, ld, pt, pe, kk, w[0:kk], acc[0:tw])
	}
}

// dots fills acc[oc] with the LUT dot product of channel oc's weight
// row and the single im2col column col: the dot kernel per channel
// with AVX2, the portable register-blocked dot4/dot2/dot1 otherwise.
func (c *qConv) dots(lutT []uint16, col []uint8, acc []int32) {
	kk := len(col)
	if vecLUT {
		for oc := range acc {
			acc[oc] = lutDotVec(lutT, c.wCodes[oc*kk:(oc+1)*kk], col)
		}
		return
	}
	for oc0 := 0; oc0 < c.outC; oc0 += convBlock {
		w := c.wCodes[oc0*kk:]
		switch min(convBlock, c.outC-oc0) {
		case convBlock:
			acc[oc0], acc[oc0+1], acc[oc0+2], acc[oc0+3] = dot4(lutT, col,
				w[0*kk:1*kk], w[1*kk:2*kk], w[2*kk:3*kk], w[3*kk:4*kk])
		case 3:
			acc[oc0], acc[oc0+1] = dot2(lutT, col, w[0:kk], w[kk:2*kk])
			acc[oc0+2] = dot1(lutT, col, w[2*kk:3*kk])
		case 2:
			acc[oc0], acc[oc0+1] = dot2(lutT, col, w[0:kk], w[kk:2*kk])
		default:
			acc[oc0] = dot1(lutT, col, w[0:kk])
		}
	}
}

// epilogue requantizes one register block of accumulators into the
// output tensor; the arithmetic is exactly the reference kernel's.
// Channel oc0+j's accumulators start at acc[j*stride] and cover the
// len(aSum) output pixels whose code sums aSum holds; they land at
// sOut[oc*p:], which starts at the first of those pixels.
func (c *qConv) epilogue(net *Network, acc []int32, stride int, aSum []int32, sOut []uint8, oc0, nb, p int) {
	kk := c.inC * c.k * c.k
	n := len(aSum)
	za := int32(c.inQP.Zero)
	for j := 0; j < nb; j++ {
		oc := oc0 + j
		accj := acc[j*stride : j*stride+n]
		zw := int32(c.wQP[oc].Zero)
		scale := c.inQP.Scale * c.wQP[oc].Scale
		fixed := int32(kk)*za*zw - za*c.wSum[oc]
		bias := c.bias[oc]
		dst := sOut[oc*p : oc*p+n]
		if net.noZP {
			// Ablation: raw LUT sums without the correction adders.
			for i := range accj {
				dst[i] = c.outQP.Quantize(float32(float32(accj[i])*scale) + bias)
			}
			continue
		}
		for i := range accj {
			v := float32(float32(accj[i]-zw*aSum[i]+fixed)*scale) + bias
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

// im2colCodes is Im2col over uint8 codes with a configurable padding
// code (the activation zero-point). Row q of the column matrix starts
// at cols[q*ld], so a chunk's samples can share one matrix.
func im2colCodes(x []uint8, inC, h, w, k, stride, pad int, padCode uint8, cols []uint8, ld int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	for ci := 0; ci < inC; ci++ {
		base := ci * h * w
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				row := ((ci*k+ki)*k + kj) * ld
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
