package axnn

import (
	"repro/internal/nn"
	"repro/internal/quant"
)

// qDense is the quantized fully connected stage. Per Section IV-A only
// conv multipliers are approximate, so dense products default to exact
// int32 MACs; Options.ApproxDense reroutes them through the LUT (used
// for the conv-free FFNN of Fig. 1 and the dense-approximation
// ablation). The final dense layer emits float logits directly.
//
// The approximate path runs activation-stationary: for each input
// element the 256-entry product row lut[a<<8:...] is contiguous, and a
// transposed weight-code matrix (wT, built only when ApproxDense is
// compiled in) makes the per-input weight walk sequential too — every
// load in the inner loop is unit-stride. Accumulation order per output
// is unchanged (ascending input index), so results stay bit-identical
// to the reference kernel.
type qDense struct {
	in, out int
	wCodes  []uint8
	wT      []uint8 // [in][out] transposed codes; nil unless ApproxDense
	wSum    []int32
	wQP     quant.Params
	inQP    quant.Params
	outQP   quant.Params
	bias    []float32
	last    bool
}

func newQDense(d *nn.Dense, inQP, outQP quant.Params, bits uint, last, approxDense bool) *qDense {
	lo, hi := quant.Range(d.W)
	wQP := quant.Calibrate(lo, hi, bits)
	q := &qDense{
		in: d.In, out: d.Out,
		wCodes: wQP.QuantizeSlice(d.W),
		wSum:   make([]int32, d.Out),
		wQP:    wQP, inQP: inQP, outQP: outQP,
		bias: append([]float32(nil), d.B...),
		last: last,
	}
	for o := 0; o < d.Out; o++ {
		var s int32
		for _, w := range q.wCodes[o*d.In : (o+1)*d.In] {
			s += int32(w)
		}
		q.wSum[o] = s
	}
	if approxDense {
		q.wT = make([]uint8, d.In*d.Out)
		for o := 0; o < d.Out; o++ {
			for i := 0; i < d.In; i++ {
				q.wT[i*d.Out+o] = q.wCodes[o*d.In+i]
			}
		}
	}
	return q
}

func (d *qDense) forward(net *Network, ws *workspace, in qtensor) (qtensor, []float32) {
	if net.ref {
		return d.refForward(net, in)
	}
	za := int32(d.inQP.Zero)
	zw := int32(d.wQP.Zero)
	scale := d.inQP.Scale * d.wQP.Scale

	var vals []float32
	if d.last {
		// Final logits leave the engine; they must not live in the
		// recycled workspace.
		vals = make([]float32, in.n*d.out)
	} else {
		vals = f32(&ws.vals, in.n*d.out)
	}
	for s := 0; s < in.n; s++ {
		xd := in.data[s*d.in : (s+1)*d.in]
		var aSum int32
		for _, a := range xd {
			aSum += int32(a)
		}
		sVals := vals[s*d.out : (s+1)*d.out]
		fixed := int32(d.in)*za*zw - zw*aSum
		if net.approxDense {
			acc := i32(&ws.acc, d.out)
			clear(acc)
			lut := net.mul
			for i, a := range xd {
				row := (*[256]uint16)(lut[int(a)<<8:])
				wRow := d.wT[i*d.out : (i+1)*d.out]
				b := acc[:len(wRow)]
				for o, wc := range wRow {
					b[o] += int32(row[wc])
				}
			}
			// Pin the epilogue operands to len(acc) so the o indexes
			// are provably in-bounds (axvet -bce gates this loop).
			sv, wSum, bias := sVals[:len(acc)], d.wSum[:len(acc)], d.bias[:len(acc)]
			for o, a := range acc {
				sv[o] = float32(float32(a+fixed-za*wSum[o])*scale) + bias[o]
			}
			continue
		}
		for o := 0; o < d.out; o++ {
			w := d.wCodes[o*d.in : (o+1)*d.in]
			w = w[:len(xd)] // i < len(xd) == len(w): per-MAC bounds check eliminated
			var acc int32
			for i, a := range xd {
				acc += int32(a) * int32(w[i])
			}
			sVals[o] = float32(float32(acc+fixed-za*d.wSum[o])*scale) + d.bias[o]
		}
	}
	if d.last {
		return qtensor{}, vals
	}
	out := qtensor{n: in.n, shape: []int{d.out}, data: ws.nextAct(in.n * d.out), qp: d.outQP}
	dst := out.data[:len(vals)]
	for i, v := range vals {
		dst[i] = d.outQP.Quantize(v)
	}
	return out, nil
}
