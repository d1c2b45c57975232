package axnn

// The reference kernels below are the pre-tiling conv/dense forward
// passes, kept verbatim: naive activation-major LUT indexing
// (lut[a<<8|w] — 512 bytes between consecutive loads of one weight
// row), per-call scratch allocation, serial samples. They are the
// ground truth for the bit-for-bit parity suite (parity_test.go runs
// every registered multiplier through both kernels) and the baseline
// side of BenchmarkTiledVsSeed, reachable via WithReferenceKernel.

// refIm2colCodes is the pre-tiling column builder, kept verbatim for
// the same reason as the kernels: the shared im2colCodes has since
// grown a bulk-copy fast path, and the seed side of the benchmark must
// keep measuring the pre-PR cost. Output is identical either way.
func refIm2colCodes(x []uint8, inC, h, w, k, stride, pad int, padCode uint8, cols []uint8) {
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
							cols[row+idx] = padCode
							idx++
						}
						continue
					}
					rowBase := base + ii*w
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

// refForward is the seed qConv kernel.
func (c *qConv) refForward(net *Network, in qtensor) (qtensor, []float32) {
	h, w := in.shape[1], in.shape[2]
	outH := (h+2*c.pad-c.k)/c.stride + 1
	outW := (w+2*c.pad-c.k)/c.stride + 1
	p := outH * outW
	kk := c.inC * c.k * c.k
	inVol := c.inC * h * w

	cols := make([]uint8, kk*p)
	aSum := make([]int32, p)
	acc := make([]int32, p)

	za := int32(c.inQP.Zero)
	lut := net.mul

	out := qtensor{n: in.n, shape: []int{c.outC, outH, outW}, data: make([]uint8, in.n*c.outC*p), qp: c.outQP}
	for s := 0; s < in.n; s++ {
		refIm2colCodes(in.data[s*inVol:(s+1)*inVol], c.inC, h, w, c.k, c.stride, c.pad, in.qp.Zero, cols)

		for i := range aSum {
			aSum[i] = 0
		}
		for q := 0; q < kk; q++ {
			col := cols[q*p : (q+1)*p]
			for i, a := range col {
				aSum[i] += int32(a)
			}
		}

		sOut := out.data[s*c.outC*p:]
		for oc := 0; oc < c.outC; oc++ {
			for i := range acc {
				acc[i] = 0
			}
			wRow := c.wCodes[oc*kk : (oc+1)*kk]
			for q := 0; q < kk; q++ {
				wc := uint32(wRow[q])
				col := cols[q*p : (q+1)*p]
				for i, a := range col {
					acc[i] += int32(lut[uint32(a)<<8|wc])
				}
			}
			zw := int32(c.wQP[oc].Zero)
			scale := c.inQP.Scale * c.wQP[oc].Scale
			fixed := int32(kk)*za*zw - za*c.wSum[oc]
			bias := c.bias[oc]
			dst := sOut[oc*p : (oc+1)*p]
			if net.noZP {
				for i := range acc {
					dst[i] = c.outQP.Quantize(float32(float32(acc[i])*scale) + bias)
				}
				continue
			}
			for i := range acc {
				v := float32(float32(acc[i]-zw*aSum[i]+fixed)*scale) + bias
				dst[i] = c.outQP.Quantize(v)
			}
		}
	}
	return out, nil
}

// refForward is the seed qDense kernel.
func (d *qDense) refForward(net *Network, in qtensor) (qtensor, []float32) {
	za := int32(d.inQP.Zero)
	zw := int32(d.wQP.Zero)
	scale := d.inQP.Scale * d.wQP.Scale
	lut := net.mul

	vals := make([]float32, in.n*d.out)
	for s := 0; s < in.n; s++ {
		xd := in.data[s*d.in : (s+1)*d.in]
		var aSum int32
		for _, a := range xd {
			aSum += int32(a)
		}
		sVals := vals[s*d.out : (s+1)*d.out]
		for o := 0; o < d.out; o++ {
			w := d.wCodes[o*d.in : (o+1)*d.in]
			var acc int32
			if net.approxDense {
				for i, a := range xd {
					acc += int32(lut[uint32(a)<<8|uint32(w[i])])
				}
			} else {
				for i, a := range xd {
					acc += int32(a) * int32(w[i])
				}
			}
			acc += int32(d.in)*za*zw - za*d.wSum[o] - zw*aSum
			sVals[o] = float32(float32(acc)*scale) + d.bias[o]
		}
	}
	if d.last {
		return qtensor{}, vals
	}
	out := qtensor{n: in.n, shape: []int{d.out}, data: make([]uint8, in.n*d.out), qp: d.outQP}
	for i, v := range vals {
		out.data[i] = d.outQP.Quantize(v)
	}
	return out, nil
}
