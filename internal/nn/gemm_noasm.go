//go:build !amd64

package nn

func gemm(a []float32, m, k int, b []float32, n int, c []float32) {
	gemmGeneric(a, m, k, b, n, c)
}
