package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// gemmSpecials are the values whose arithmetic a SIMD kernel gets wrong
// first: signed zeros, subnormals, the largest finite values (products
// overflow) and infinities (0·Inf is NaN).
var gemmSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	math.SmallestNonzeroFloat32 * 3, 1e-20,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// fillGemm fills x with values in [-2, 2), about one in 16 replaced by
// a special (NaN too when withNaN is set).
func fillGemm(rng *rand.Rand, x []float32, withNaN bool) {
	for i := range x {
		x[i] = rng.Float32()*4 - 2
		if rng.Intn(16) == 0 {
			x[i] = gemmSpecials[rng.Intn(len(gemmSpecials))]
			if withNaN && rng.Intn(4) == 0 {
				x[i] = float32(math.NaN())
			}
		}
	}
}

// checkGemm runs gemm and gemmGeneric on the same operands and wants
// the same bits in every output, except that a NaN need only be a NaN
// (which NaN payload survives is not part of the contract). It also
// wants gemm to leave the elements past c[:m*n] alone.
func checkGemm(t *testing.T, a []float32, m, k int, b []float32, n int) {
	t.Helper()
	want := make([]float32, m*n)
	gemmGeneric(a, m, k, b, n, want)
	const guard = 4
	got := make([]float32, m*n+guard)
	for i := range got {
		got[i] = -7 // stale scratch, and the guard past the end
	}
	gemm(a, m, k, b, n, got[:m*n])
	for i, w := range want {
		g := got[i]
		if w != w || g != g {
			if w == w || g == g {
				t.Fatalf("m=%d k=%d n=%d: c[%d] = %v, portable %v", m, k, n, i, g, w)
			}
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("m=%d k=%d n=%d: c[%d] = %v (%#08x), portable %v (%#08x)",
				m, k, n, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	for _, v := range got[m*n:] {
		if v != -7 {
			t.Fatalf("m=%d k=%d n=%d: wrote past c[:m*n]", m, k, n)
		}
	}
}

// TestGemmMatchesPortable pins gemm, the SSE kernel on amd64, to the
// portable kernel bit for bit over every row count of the row-pair
// and odd-row paths, inner dimensions from empty up, and column counts
// covering the 16-wide strips, the 4-wide tail and both together.
func TestGemmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, 9*70)
	b := make([]float32, 70*64)
	for _, withNaN := range []bool{false, true} {
		for m := 1; m <= 9; m++ {
			for k := 0; k <= 70; k++ {
				for n := 4; n <= 64; n += 4 {
					fillGemm(rng, a[:m*k], withNaN)
					fillGemm(rng, b[:k*n], withNaN)
					checkGemm(t, a[:m*k], m, k, b[:k*n], n)
				}
			}
		}
	}
}

// FuzzGemm compares gemm with the portable kernel on arbitrary bit
// patterns. The first three bytes pick m in 1..9, k in 0..70 and n in
// 4..64 (a multiple of 4); the rest are cycled into a and b as
// little-endian float32s.
func FuzzGemm(f *testing.F) {
	f.Add([]byte{2, 25, 3, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0xff})
	f.Fuzz(func(t *testing.T, buf []byte) {
		if len(buf) < 3 {
			return
		}
		m, k, n := 1+int(buf[0])%9, int(buf[1])%71, 4*(1+int(buf[2])%16)
		data := buf[3:]
		x := make([]float32, m*k+k*n)
		if len(data) >= 4 {
			for i := range x {
				o := 4 * i % (len(data) &^ 3)
				x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[o:]))
			}
		}
		checkGemm(t, x[:m*k], m, k, x[m*k:], n)
	})
}

// TestGemmPanicsOnShortOperands: a shape that does not fit its slices
// panics before the kernel writes anything, so on amd64 the driver
// catches it before the assembly can read or write out of bounds.
func TestGemmPanicsOnShortOperands(t *testing.T) {
	const m, k, n = 3, 5, 8
	cases := []struct {
		name       string
		la, lb, lc int
	}{
		{"short a", m*k - 1, k * n, m * n},
		{"short b", m * k, k*n - 1, m * n},
		{"short c", m * k, k * n, m*n - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := make([]float32, tc.la)
			b := make([]float32, tc.lb)
			c := make([]float32, tc.lc)
			for i := range a {
				a[i] = 1
			}
			for i := range b {
				b[i] = 1
			}
			for i := range c {
				c[i] = -7
			}
			defer func() {
				if recover() == nil {
					t.Fatal("gemm did not panic")
				}
				for i, v := range c {
					if v != -7 {
						t.Fatalf("c[%d] = %v written before the panic", i, v)
					}
				}
			}()
			gemm(a, m, k, b, n, c)
		})
	}
}
