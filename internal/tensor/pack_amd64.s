//go:build amd64

#include "textflag.h"

// func microKernel4x8SSE(c *float32, ldc int, ap, b *float32, offs *int, kc int)
//
// 4x8 GEMM microkernel on XMM registers. X0-X7 hold the four C rows, two
// registers of 4 floats per row, for the whole K block. Each k step
// loads the 8 B values at b+offs[p], broadcasts each of the four packed
// A values, and does MULPS+ADDPS per half row. Deliberately no FMA:
// fused multiply-add rounds once instead of twice, which would break
// bit-identity with the scalar reference.
TEXT ·microKernel4x8SSE(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ ap+16(FP), AX
	MOVQ b+24(FP), BX
	MOVQ offs+32(FP), DX
	MOVQ kc+40(FP), CX
	SHLQ $2, SI          // row stride in bytes

	// Load the four C rows into accumulators.
	MOVQ   DI, R8
	MOVUPS (R8), X0
	MOVUPS 16(R8), X1
	ADDQ   SI, R8
	MOVUPS (R8), X2
	MOVUPS 16(R8), X3
	ADDQ   SI, R8
	MOVUPS (R8), X4
	MOVUPS 16(R8), X5
	ADDQ   SI, R8
	MOVUPS (R8), X6
	MOVUPS 16(R8), X7

	TESTQ CX, CX
	JE    sse_store

sse_loop:
	MOVQ   (DX), R9      // offs[p]
	MOVUPS (BX)(R9*4), X8    // b[offs[p]+0..3]
	MOVUPS 16(BX)(R9*4), X9  // b[offs[p]+4..7]

	MOVSS  (AX), X10     // a[0][p]
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1

	MOVSS  4(AX), X12    // a[1][p]
	SHUFPS $0, X12, X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X2
	ADDPS  X13, X3

	MOVSS  8(AX), X10    // a[2][p]
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X4
	ADDPS  X11, X5

	MOVSS  12(AX), X12   // a[3][p]
	SHUFPS $0, X12, X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X6
	ADDPS  X13, X7

	ADDQ $16, AX
	ADDQ $8, DX
	DECQ CX
	JNE  sse_loop

sse_store:
	MOVQ   DI, R8
	MOVUPS X0, (R8)
	MOVUPS X1, 16(R8)
	ADDQ   SI, R8
	MOVUPS X2, (R8)
	MOVUPS X3, 16(R8)
	ADDQ   SI, R8
	MOVUPS X4, (R8)
	MOVUPS X5, 16(R8)
	ADDQ   SI, R8
	MOVUPS X6, (R8)
	MOVUPS X7, 16(R8)
	RET

// func microKernel4x8AVX(c *float32, ldc int, ap, b *float32, offs *int, kc int)
//
// The same kernel on YMM registers: Y0-Y3 hold the four C rows, 8 floats
// each. Each k step loads the 8 B values at b+offs[p] and, per row,
// VBROADCASTSS one packed A value, VMULPS, VADDPS — separate multiply
// and add, never FMA. VZEROUPPER on exit avoids AVX-SSE transition
// stalls in the caller.
TEXT ·microKernel4x8AVX(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ ap+16(FP), AX
	MOVQ b+24(FP), BX
	MOVQ offs+32(FP), DX
	MOVQ kc+40(FP), CX
	SHLQ $2, SI          // row stride in bytes

	MOVQ    DI, R8
	VMOVUPS (R8), Y0
	ADDQ    SI, R8
	VMOVUPS (R8), Y1
	ADDQ    SI, R8
	VMOVUPS (R8), Y2
	ADDQ    SI, R8
	VMOVUPS (R8), Y3

	TESTQ CX, CX
	JE    avx_store

avx_loop:
	MOVQ    (DX), R9     // offs[p]
	VMOVUPS (BX)(R9*4), Y4   // b[offs[p]+0..7]

	VBROADCASTSS (AX), Y5    // a[0][p]
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0

	VBROADCASTSS 4(AX), Y6   // a[1][p]
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1

	VBROADCASTSS 8(AX), Y7   // a[2][p]
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2

	VBROADCASTSS 12(AX), Y8  // a[3][p]
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3

	ADDQ $16, AX
	ADDQ $8, DX
	DECQ CX
	JNE  avx_loop

avx_store:
	MOVQ    DI, R8
	VMOVUPS Y0, (R8)
	ADDQ    SI, R8
	VMOVUPS Y1, (R8)
	ADDQ    SI, R8
	VMOVUPS Y2, (R8)
	ADDQ    SI, R8
	VMOVUPS Y3, (R8)
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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
