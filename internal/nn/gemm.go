package nn

// gemm computes c = a·b for row-major a [m×k], b [k×n] and c [m×n],
// with n a multiple of 4 (callers pad the column count). Every output
// starts from +0 and adds the rounded product a[i][l]·b[l][j] in
// ascending l, never fused, so results are bit-identical to a scalar
// loop over l on every GOARCH.
//
// There are two implementations of that contract. On amd64, gemm is a
// packed-SSE kernel in gemm_amd64.s behind a driver that checks the
// shapes against the slice lengths before any assembly runs. Every
// other GOARCH calls gemmGeneric, which is also the oracle the tests
// compare the assembly against bit for bit.

// gemmGeneric is the portable gemm.
//
// Rows are tiled two at a time against four columns: eight
// accumulators plus six operands fit the 15 XMM registers Go's ABI
// leaves free, where a 4×4 tile spills. An odd last row runs in axpy
// form over whole b rows, which keeps the same per-output order.
//
// Each product is rounded by an explicit float32 conversion, which the
// Go spec defines as a fusion barrier: no architecture fuses it into an
// FMA, so results are the same on every GOARCH.
//
// There is no zero-weight skip: adding a ±0 product leaves a finite sum
// unchanged (and +0 + -0 is +0), so skipping only matters when the
// other operand is Inf or NaN, where 0·Inf is NaN.
func gemmGeneric(a []float32, m, k int, b []float32, n int, c []float32) {
	a, b, c = a[:m*k], b[:k*n], c[:m*n]
	i := 0
	for ; i+1 < m; i += 2 {
		a0 := a[i*k:][:k]
		a1 := a[(i+1)*k:][:k]
		c0 := c[i*n:][:n]
		c1 := c[(i+1)*n:][:n]
		for j := 0; j+4 <= n; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			for l, w0 := range a0 {
				w1 := a1[l]
				o := l*n + j
				r := b[o : o+4 : o+4]
				s00 += float32(w0 * r[0])
				s01 += float32(w0 * r[1])
				s02 += float32(w0 * r[2])
				s03 += float32(w0 * r[3])
				s10 += float32(w1 * r[0])
				s11 += float32(w1 * r[1])
				s12 += float32(w1 * r[2])
				s13 += float32(w1 * r[3])
			}
			d0 := c0[j : j+4 : j+4]
			d0[0], d0[1], d0[2], d0[3] = s00, s01, s02, s03
			d1 := c1[j : j+4 : j+4]
			d1[0], d1[1], d1[2], d1[3] = s10, s11, s12, s13
		}
	}
	if i < m {
		ar := a[i*k:][:k]
		cr := c[i*n:][:n]
		clear(cr)
		for l, w := range ar {
			br := b[l*n:][:n]
			for j, v := range br {
				cr[j] += float32(w * v)
			}
		}
	}
}
