package axnn

import "fmt"

// lutLanes is the vector kernels' lane width: the dense conv path pads
// its column matrix rows to a multiple of it, so every row-kernel call
// covers whole steps.
const lutLanes = 16

// lanePad rounds n up to a multiple of lutLanes.
func lanePad(n int) int { return (n + lutLanes - 1) &^ (lutLanes - 1) }

// lutRowVec adds weight code wc's products to a row of accumulators:
// acc[i] += lutT[wc<<8|cols[i]] for every i < len(cols). It checks the
// lengths and the table's slack before any assembly runs — a gather
// reads 4 bytes, so the product at index 0xFFFF needs one uint16 of
// capacity past the table — and finishes the lanes past the last
// multiple of 8 in Go.
func lutRowVec(lutT []uint16, wc uint8, cols []uint8, acc []int32) {
	n := len(cols)
	if len(acc) < n || !lutSlack(lutT) {
		panic(fmt.Sprintf("axnn: lutRowVec len(cols)=%d, len(acc)=%d, table len %d cap %d",
			n, len(acc), len(lutT), cap(lutT)))
	}
	m := n &^ 7
	lutRowAVX2(lutT[int(wc)<<8:], cols[:m], acc[:m])
	row := lutRow(lutT, wc)
	for i := m; i < n; i++ {
		acc[i] += int32(row[cols[i]])
	}
}

// lutDotVec returns the sum of lutT[w[q]<<8|a[q]] over q < len(a),
// under the same checks as lutRowVec.
func lutDotVec(lutT []uint16, w, a []uint8) int32 {
	n := len(a)
	if len(w) < n || !lutSlack(lutT) {
		panic(fmt.Sprintf("axnn: lutDotVec len(a)=%d, len(w)=%d, table len %d cap %d",
			n, len(w), len(lutT), cap(lutT)))
	}
	m := n &^ 7
	sum := lutDotAVX2(lutT, w[:m], a[:m])
	t := lutArr(lutT)
	for q := m; q < n; q++ {
		sum += int32(t[uint16(w[q])<<8|uint16(a[q])])
	}
	return sum
}

// lutSlack reports whether lutT is a full transposed table with the
// one uint16 of capacity past its end that a 4-byte gather of the last
// entry reads.
func lutSlack(lutT []uint16) bool {
	return len(lutT) >= 1<<16 && cap(lutT) > 1<<16
}
