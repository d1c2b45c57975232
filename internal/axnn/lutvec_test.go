package axnn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/axmult"
)

// portableRow is the row kernel's portable twin: accBlock1 over one
// reduction row, one convTile strip at a time.
func portableRow(lutT []uint16, wc uint8, cols []uint8, acc []int32) {
	pack := make([]uint64, convTile/2)
	for pt := 0; pt < len(cols); pt += convTile {
		pe := min(pt+convTile, len(cols))
		accBlock1(lutT, pack, cols, len(cols), pt, pe, 1, []uint8{wc}, acc[pt:pe])
	}
}

func skipWithoutAVX2(t testing.TB) {
	t.Helper()
	if !vecLUT {
		t.Skip("CPU lacks AVX2 (or this GOARCH has no vector LUT kernels): only the portable kernels run here")
	}
}

// codeFill returns n codes: the extremes 255 and 0 first, then random.
func codeFill(rng *rand.Rand, n int) []uint8 {
	c := make([]uint8, n)
	for i := range c {
		switch i {
		case 0:
			c[i] = 255
		case 1:
			c[i] = 0
		default:
			c[i] = uint8(rng.Intn(256))
		}
	}
	return c
}

func accFill(rng *rand.Rand, n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = rng.Int31() - 1<<30
	}
	return a
}

func checkRow(t testing.TB, label string, lutT []uint16, wc uint8, cols []uint8, acc []int32) {
	t.Helper()
	want := append([]int32(nil), acc...)
	portableRow(lutT, wc, cols, want)
	got := append([]int32(nil), acc...)
	lutRowVec(lutT, wc, cols, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: lutRowVec wc=%d n=%d: acc[%d] = %d, portable %d", label, wc, len(cols), i, got[i], want[i])
		}
	}
}

func checkDot(t testing.TB, label string, lutT []uint16, w, a []uint8) {
	t.Helper()
	want := dot1(lutT, a, w)
	if got := lutDotVec(lutT, w, a); got != want {
		t.Fatalf("%s: lutDotVec n=%d = %d, portable %d", label, len(a), got, want)
	}
}

// TestLUTKernelsMatchPortable compares both vector kernels bit for bit
// with the portable loops, over every registered multiplier, every
// length from 0 to 70 (whole 16-lane steps, the 8-lane step and the
// scalar tail), and codes including 0 and 255 — all-255 operands read
// the table's last entry, whose gather touches the slack slot.
func TestLUTKernelsMatchPortable(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(61))
	for _, name := range axmult.Names() {
		lutT := axmult.MustLookup(name).TableT()
		for n := 0; n <= 70; n++ {
			cols := codeFill(rng, n)
			w := codeFill(rng, n)
			for _, wc := range []uint8{0, 255, uint8(rng.Intn(256))} {
				checkRow(t, name, lutT, wc, cols, accFill(rng, n))
			}
			checkDot(t, name, lutT, w, cols)

			last := make([]uint8, n)
			for i := range last {
				last[i] = 255
			}
			checkRow(t, name+"/last", lutT, 255, last, accFill(rng, n))
			checkDot(t, name+"/last", lutT, last, last)
		}
	}
}

// fuzzTable picks a registered multiplier's transposed table.
func fuzzTable(mul uint8) (string, []uint16) {
	names := axmult.Names()
	name := names[int(mul)%len(names)]
	return name, axmult.MustLookup(name).TableT()
}

// FuzzLUTRow compares the row kernel with its portable twin on
// arbitrary codes, lengths and starting accumulators.
func FuzzLUTRow(f *testing.F) {
	f.Add(uint8(0), uint8(255), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint8(7), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, mul, wc uint8, cols []byte) {
		skipWithoutAVX2(t)
		name, lutT := fuzzTable(mul)
		acc := make([]int32, len(cols))
		for i, c := range cols {
			acc[i] = int32(c)*16777619 - int32(i)
		}
		checkRow(t, name, lutT, wc, cols, acc)
	})
}

// FuzzLUTDot compares the dot kernel with dot1 on arbitrary weight and
// activation codes; the shorter operand sets the length.
func FuzzLUTDot(f *testing.F) {
	f.Add(uint8(0), []byte{255, 0, 255}, []byte{255, 255, 0})
	f.Fuzz(func(t *testing.T, mul uint8, w, a []byte) {
		skipWithoutAVX2(t)
		name, lutT := fuzzTable(mul)
		n := min(len(w), len(a))
		checkDot(t, name, lutT, w[:n], a[:n])
	})
}

// TestLUTDriversPanicBeforeAssembly: a short accumulator or weight
// row, a short table, or a table without the slack a 4-byte gather of
// the last entry reads must panic in the Go driver, before any
// assembly runs. Holds on every GOARCH.
func TestLUTDriversPanicBeforeAssembly(t *testing.T) {
	lutT := axmult.MustLookup("mul8u_1JFF").TableT()
	noSlack := append(make([]uint16, 0, 1<<16), lutT...)
	short := lutT[:1<<16-1]
	cols := make([]uint8, 20)
	for _, tc := range []struct {
		name, fn string
		call     func()
	}{
		{"row/short-acc", "lutRowVec", func() { lutRowVec(lutT, 3, cols, make([]int32, 19)) }},
		{"row/no-slack", "lutRowVec", func() { lutRowVec(noSlack, 3, cols, make([]int32, 20)) }},
		{"row/short-table", "lutRowVec", func() { lutRowVec(short, 3, cols, make([]int32, 20)) }},
		{"dot/short-w", "lutDotVec", func() { lutDotVec(lutT, make([]uint8, 19), cols) }},
		{"dot/no-slack", "lutDotVec", func() { lutDotVec(noSlack, cols, cols) }},
		{"dot/short-table", "lutDotVec", func() { lutDotVec(short, cols, cols) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "axnn: "+tc.fn) {
					t.Fatalf("panic %q does not come from the %s driver", msg, tc.fn)
				}
			}()
			tc.call()
		})
	}
}
