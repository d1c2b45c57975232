#include "textflag.h"

// Register use in gemmSSE:
//
//	SI  a row i          DI  c row i          BX  b
//	CX  rows left        DX  k                R8  n*4, the b and c row stride
//	R9  k*4, a's stride  R10 column offset (bytes)
//	R11 l countdown      R12 a[i][l]          R13 b[l][j]
//	X0-X7 accumulators   X8, X9 broadcast a[i][l], a[i+1][l]
//
// Every lane starts from +0 (XORPS) and adds MULPS products in
// ascending l, so each output rounds exactly as the scalar loop does.

// PAIR accumulates b[l][j+off/4 : +4] times a[i][l] into acc0 and
// times a[i+1][l] into acc1.
#define PAIR(off, acc0, acc1) \
	MOVUPS off(R13), X10; \
	MOVAPS X10, X11; \
	MULPS  X8, X10; \
	MULPS  X9, X11; \
	ADDPS  X10, acc0; \
	ADDPS  X11, acc1

// ROW accumulates b[l][j+off/4 : +4] times a[i][l] into acc.
#define ROW(off, acc) \
	MOVUPS off(R13), X10; \
	MULPS  X8, X10; \
	ADDPS  X10, acc

// BCAST loads a float32 and copies it to all four lanes of x.
#define BCAST(src, x) \
	MOVSS  src, x; \
	SHUFPS $0x00, x, x

// STRIP points R12 at a[i][0] and R13 at b[0][j], loads the countdown
// with k and skips the loop when k is 0.
#define STRIP(store) \
	MOVQ  SI, R12; \
	LEAQ  (BX)(R10*1), R13; \
	MOVQ  DX, R11; \
	TESTQ R11, R11; \
	JEQ   store

// NEXTL steps a along the row and b down a row, and loops while l < k.
#define NEXTL(loop) \
	ADDQ $4, R12; \
	ADDQ R8, R13; \
	DECQ R11; \
	JNZ  loop

// func gemmSSE(a []float32, m, k int, b []float32, n int, c []float32)
TEXT ·gemmSSE(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), DX
	MOVQ b_base+40(FP), BX
	MOVQ n+64(FP), R8
	MOVQ c_base+72(FP), DI
	SHLQ $2, R8
	LEAQ (DX*4), R9

pairs:
	CMPQ CX, $2
	JLT  single
	XORQ R10, R10

pair16:
	LEAQ  64(R10), AX
	CMPQ  AX, R8
	JGT   pair4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	STRIP(pair16store)

pair16loop:
	BCAST((R12), X8)
	BCAST((R12)(R9*1), X9)
	PAIR(0, X0, X4)
	PAIR(16, X1, X5)
	PAIR(32, X2, X6)
	PAIR(48, X3, X7)
	NEXTL(pair16loop)

pair16store:
	LEAQ   (DI)(R10*1), AX
	MOVUPS X0, (AX)
	MOVUPS X1, 16(AX)
	MOVUPS X2, 32(AX)
	MOVUPS X3, 48(AX)
	ADDQ   R8, AX
	MOVUPS X4, (AX)
	MOVUPS X5, 16(AX)
	MOVUPS X6, 32(AX)
	MOVUPS X7, 48(AX)
	ADDQ   $64, R10
	JMP    pair16

pair4:
	CMPQ  R10, R8
	JGE   pairnext
	XORPS X0, X0
	XORPS X4, X4
	STRIP(pair4store)

pair4loop:
	BCAST((R12), X8)
	BCAST((R12)(R9*1), X9)
	PAIR(0, X0, X4)
	NEXTL(pair4loop)

pair4store:
	LEAQ   (DI)(R10*1), AX
	MOVUPS X0, (AX)
	MOVUPS X4, (AX)(R8*1)
	ADDQ   $16, R10
	JMP    pair4

pairnext:
	LEAQ (SI)(R9*2), SI
	LEAQ (DI)(R8*2), DI
	SUBQ $2, CX
	JMP  pairs

single:
	TESTQ CX, CX
	JEQ   done
	XORQ  R10, R10

row16:
	LEAQ  64(R10), AX
	CMPQ  AX, R8
	JGT   row4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	STRIP(row16store)

row16loop:
	BCAST((R12), X8)
	ROW(0, X0)
	ROW(16, X1)
	ROW(32, X2)
	ROW(48, X3)
	NEXTL(row16loop)

row16store:
	LEAQ   (DI)(R10*1), AX
	MOVUPS X0, (AX)
	MOVUPS X1, 16(AX)
	MOVUPS X2, 32(AX)
	MOVUPS X3, 48(AX)
	ADDQ   $64, R10
	JMP    row16

row4:
	CMPQ  R10, R8
	JGE   done
	XORPS X0, X0
	STRIP(row4store)

row4loop:
	BCAST((R12), X8)
	ROW(0, X0)
	NEXTL(row4loop)

row4store:
	MOVUPS X0, (DI)(R10*1)
	ADDQ   $16, R10
	JMP    row4

done:
	RET
