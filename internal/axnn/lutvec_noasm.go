//go:build !amd64

package axnn

// vecLUT is false off amd64: the portable accBlock*/dot* kernels are
// the only conv kernels.
const vecLUT = false

func lutRowAVX2(row []uint16, cols []uint8, acc []int32) {
	panic("axnn: no vector LUT kernel on this GOARCH")
}

func lutDotAVX2(lutT []uint16, w, a []uint8) int32 {
	panic("axnn: no vector LUT kernel on this GOARCH")
}
