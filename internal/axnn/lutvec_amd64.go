package axnn

// vecLUT selects the AVX2 gather kernels (lutvec_amd64.s) for the conv
// layers. It is set once, from CPUID alone; hosts without AVX2 run the
// portable accBlock*/dot* kernels.
var vecLUT = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE, with XCR0's SSE and AVX
// state bits set).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sseAVXState = 1<<1 | 1<<2
	if xgetbv0()&sseAVXState != sseAVXState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// lutRowAVX2 is the row kernel for lutRowVec, over len(cols) rounded
// down to 8: acc[i] += row[cols[i]], 16 lanes per step with two
// VPGATHERDD. row must have one uint16 of capacity past index 255.
//
//go:noescape
func lutRowAVX2(row []uint16, cols []uint8, acc []int32)

// lutDotAVX2 is the dot kernel for lutDotVec, over len(a) rounded down
// to 8: the sum of lutT[w[q]<<8|a[q]]. lutT must have one uint16 of
// capacity past 1<<16.
//
//go:noescape
func lutDotAVX2(lutT []uint16, w, a []uint8) int32
