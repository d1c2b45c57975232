package nn

import "fmt"

// gemm checks the shapes once, so a caller's shape bug panics here
// before the assembly reads or writes out of bounds, and then runs
// gemmSSE.
func gemm(a []float32, m, k int, b []float32, n int, c []float32) {
	if m < 0 || k < 0 || n < 0 || n%4 != 0 || !fits(len(a), m, k) || !fits(len(b), k, n) || !fits(len(c), m, n) {
		panic(fmt.Sprintf("nn: gemm [%d×%d]·[%d×%d] does not fit len(a)=%d, len(b)=%d, len(c)=%d",
			m, k, k, n, len(a), len(b), len(c)))
	}
	gemmSSE(a, m, k, b, n, c)
}

// fits reports whether rows×cols non-negative elements fit in l,
// without overflowing the product.
func fits(l, rows, cols int) bool {
	return cols == 0 || rows <= l/cols
}

// gemmSSE is gemm in SSE2 (gemm_amd64.s), for shapes gemm has checked.
// Each 4-wide lane multiplies the broadcast a[i][l] by four b[l][j]
// with MULPS and adds with a separate ADDPS, from +0 in ascending l,
// which rounds exactly like the scalar loop. Row pairs run against
// 16-column strips (eight accumulators), then 4-column strips; an odd
// last row runs the same strips alone.
//
//go:noescape
func gemmSSE(a []float32, m, k int, b []float32, n int, c []float32)
