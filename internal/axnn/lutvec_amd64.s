#include "textflag.h"

// AVX2 gather kernels over the transposed multiplier table. Each
// VPGATHERDD lane reads 4 bytes at table + 2*index: the uint16 product
// in the low half and its successor, which VPAND with 0x0000FFFF
// (Y15) discards. The last entry's successor lies one uint16 past the
// table's end, inside the slack capacity lutRowVec and lutDotVec check
// for. A gather clears its mask register as lanes complete, so
// every gather gets a fresh all-ones mask from VPCMPEQD, and its
// destination is zeroed first so the merge has no dependency on the
// register's old contents.

// GATHER8 loads the uint16 at base + 2*idx for each of idx's 8 lanes
// into dst, zero-extended to 32 bits.
#define GATHER8(base, idx, mask, dst) \
	VPCMPEQD   mask, mask, mask; \
	VPXOR      dst, dst, dst; \
	VPGATHERDD mask, (base)(idx*2), dst; \
	VPAND      Y15, dst, dst

// func lutRowAVX2(row []uint16, cols []uint8, acc []int32)
//
// acc[i] += row[cols[i]] for i < len(cols) rounded down to 8.
TEXT ·lutRowAVX2(SB), NOSPLIT, $0-72
	MOVQ row_base+0(FP), AX
	MOVQ cols_base+24(FP), SI
	MOVQ cols_len+32(FP), CX
	MOVQ acc_base+48(FP), DI
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $16, Y15, Y15
	SUBQ     $16, CX
	JL       row8

row16:
	VPMOVZXBD (SI), Y0
	VPMOVZXBD 8(SI), Y1
	GATHER8(AX, Y0, Y2, Y4)
	GATHER8(AX, Y1, Y3, Y5)
	VPADDD    (DI), Y4, Y4
	VPADDD    32(DI), Y5, Y5
	VMOVDQU   Y4, (DI)
	VMOVDQU   Y5, 32(DI)
	ADDQ      $16, SI
	ADDQ      $64, DI
	SUBQ      $16, CX
	JGE       row16

row8:
	ADDQ      $16, CX
	CMPQ      CX, $8
	JL        rowdone
	VPMOVZXBD (SI), Y0
	GATHER8(AX, Y0, Y2, Y4)
	VPADDD    (DI), Y4, Y4
	VMOVDQU   Y4, (DI)

rowdone:
	VZEROUPPER
	RET

// func lutDotAVX2(lutT []uint16, w, a []uint8) int32
//
// Returns the sum of lutT[w[q]<<8|a[q]] for q < len(a) rounded down
// to 8. Two accumulators (Y6, Y7) take alternate 8-lane halves.
TEXT ·lutDotAVX2(SB), NOSPLIT, $0-76
	MOVQ     lutT_base+0(FP), AX
	MOVQ     w_base+24(FP), BX
	MOVQ     a_base+48(FP), SI
	MOVQ     a_len+56(FP), CX
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $16, Y15, Y15
	VPXOR    Y6, Y6, Y6
	VPXOR    Y7, Y7, Y7
	SUBQ     $16, CX
	JL       dot8

dot16:
	VPMOVZXBD (BX), Y0
	VPMOVZXBD 8(BX), Y1
	VPMOVZXBD (SI), Y8
	VPMOVZXBD 8(SI), Y9
	VPSLLD    $8, Y0, Y0
	VPSLLD    $8, Y1, Y1
	VPOR      Y8, Y0, Y0
	VPOR      Y9, Y1, Y1
	GATHER8(AX, Y0, Y2, Y4)
	GATHER8(AX, Y1, Y3, Y5)
	VPADDD    Y4, Y6, Y6
	VPADDD    Y5, Y7, Y7
	ADDQ      $16, BX
	ADDQ      $16, SI
	SUBQ      $16, CX
	JGE       dot16

dot8:
	ADDQ      $16, CX
	CMPQ      CX, $8
	JL        dotsum
	VPMOVZXBD (BX), Y0
	VPMOVZXBD (SI), Y8
	VPSLLD    $8, Y0, Y0
	VPOR      Y8, Y0, Y0
	GATHER8(AX, Y0, Y2, Y4)
	VPADDD    Y4, Y6, Y6

dotsum:
	VPADDD       Y7, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPADDD       X7, X6, X6
	VPSHUFD      $0x4E, X6, X7
	VPADDD       X7, X6, X6
	VPSHUFD      $0xB1, X6, X7
	VPADDD       X7, X6, X6
	VMOVD        X6, AX
	MOVL         AX, ret+72(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
//
// The low half of XCR0: the register states the OS saves and restores.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
