//go:build amd64

#include "textflag.h"

// func mk8x8(dst *float32, ldc int, ap, bp *float32, kb int, add bool)
//
// One 8x8 register tile of the blocked GEMM: acc[r][0..7] += ap[kk*8+r] *
// bp[kk*8 .. kk*8+7] for kk in [0,kb), then stored to (add=false) or added
// into (add=true) the eight dst rows ldc apart. kb must be >= 1 (guaranteed
// by the kc normalization in gemm.go).
//
// The eight column accumulators of each row live in one YMM register
// (Y0-Y7). VMULPS and VADDPS are element-wise IEEE-754 binary32 ops with the
// same round-to-nearest-even and MXCSR state as the scalar MULSS/ADDSS the
// Go compiler emits — no FMA contraction, no horizontal adds, no
// reassociation — so each lane computes bit-for-bit what the reference
// kernel's scalar `part += a*b` computes, exactly as the SSE2 4x4 kernel
// does at half the width. Operand order matches the Go expressions (a first
// in a*b, accumulator first in +=) so NaN payload propagation is identical
// too. VZEROUPPER before every return avoids AVX/SSE transition stalls in
// the surrounding Go code.
TEXT ·mk8x8(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), BX
	MOVQ kb+32(FP), CX
	SHLQ $2, DX            // ldc in bytes

	VXORPS Y0, Y0, Y0      // row 0 accumulators
	VXORPS Y1, Y1, Y1      // row 1
	VXORPS Y2, Y2, Y2      // row 2
	VXORPS Y3, Y3, Y3      // row 3
	VXORPS Y4, Y4, Y4      // row 4
	VXORPS Y5, Y5, Y5      // row 5
	VXORPS Y6, Y6, Y6      // row 6
	VXORPS Y7, Y7, Y7      // row 7

loop:
	VMOVUPS (BX), Y8       // b[0..7]

	VBROADCASTSS 0(SI), Y9
	VMULPS       Y8, Y9, Y9  // a0 * b (a first, matching Go's a*b)
	VADDPS       Y9, Y0, Y0  // c0 += a0*b (accumulator first)

	VBROADCASTSS 4(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y1, Y1

	VBROADCASTSS 8(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y2, Y2

	VBROADCASTSS 12(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y3, Y3

	VBROADCASTSS 16(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y4, Y4

	VBROADCASTSS 20(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y5, Y5

	VBROADCASTSS 24(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6

	VBROADCASTSS 28(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y7, Y7

	ADDQ $32, SI
	ADDQ $32, BX
	DECQ CX
	JNZ  loop

	MOVBLZX add+40(FP), AX
	TESTB   AL, AL
	JZ      store

	// dst[r][c] += acc[r][c], dst value first — the order Go's `x += y` uses.
	VMOVUPS (DI), Y8
	VADDPS  Y0, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y1, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y2, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y3, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y5, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y6, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y7, Y8, Y8
	VMOVUPS Y8, (DI)
	VZEROUPPER
	RET

store:
	VMOVUPS Y0, (DI)
	ADDQ    DX, DI
	VMOVUPS Y1, (DI)
	ADDQ    DX, DI
	VMOVUPS Y2, (DI)
	ADDQ    DX, DI
	VMOVUPS Y3, (DI)
	ADDQ    DX, DI
	VMOVUPS Y4, (DI)
	ADDQ    DX, DI
	VMOVUPS Y5, (DI)
	ADDQ    DX, DI
	VMOVUPS Y6, (DI)
	ADDQ    DX, DI
	VMOVUPS Y7, (DI)
	VZEROUPPER
	RET

// func transpose8x8(dst, src *float32, offs *[8]int, co int)
//
// dst[x*8+c] = src[offs[c]+co+x] for x, c in [0,8): eight 8-float source runs
// become eight 8-float destination rows — the 8×8 block of a transposed
// im2col panel (packBIm2ColT) in one pass of unpack/shuffle/lane-permute
// moves. Pure data movement: no arithmetic touches the values, so the
// panel bits are those of the scalar pack.
TEXT ·transpose8x8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), BX
	MOVQ co+24(FP), CX
	LEAQ (SI)(CX*4), SI    // src += co

	MOVQ    0(BX), AX
	VMOVUPS (SI)(AX*4), Y0  // r0 = a00..a07
	MOVQ    8(BX), AX
	VMOVUPS (SI)(AX*4), Y1
	MOVQ    16(BX), AX
	VMOVUPS (SI)(AX*4), Y2
	MOVQ    24(BX), AX
	VMOVUPS (SI)(AX*4), Y3
	MOVQ    32(BX), AX
	VMOVUPS (SI)(AX*4), Y4
	MOVQ    40(BX), AX
	VMOVUPS (SI)(AX*4), Y5
	MOVQ    48(BX), AX
	VMOVUPS (SI)(AX*4), Y6
	MOVQ    56(BX), AX
	VMOVUPS (SI)(AX*4), Y7

	// interleave row pairs: t0 = a00 a10 a01 a11 | a04 a14 a05 a15, ...
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	// gather quads: s0 = a00 a10 a20 a30 | a04 a14 a24 a34, ...
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	// join 128-bit halves: out x = a0x a1x ... a7x
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, 0(DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)
	VZEROUPPER
	RET

// func im2colRows8(dst, src *float32, kb, kh, kw, nkh, nkw, dRow, dPlane int)
//
// One 8-wide strip of a forward im2col panel (packBIm2Col) whose eight
// columns are one contiguous image run: for kb im2col rows it copies the
// eight floats at src to dst, then steps src to the next row's run —
// one float along the window row, dRow more bytes when kw wraps at nkw,
// dPlane more when kh wraps at nkh (the convGeom.nextRow walk). Pure data
// movement.
TEXT ·im2colRows8(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ kb+16(FP), CX
	MOVQ kh+24(FP), R8
	MOVQ kw+32(FP), R9
	MOVQ nkh+40(FP), R10
	MOVQ nkw+48(FP), R11
	MOVQ dRow+56(FP), R12
	MOVQ dPlane+64(FP), R13

im2col_row:
	VMOVUPS (SI), Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $4, SI
	INCQ    R9
	CMPQ    R9, R11
	JNE     im2col_next
	XORQ    R9, R9
	ADDQ    R12, SI
	INCQ    R8
	CMPQ    R8, R10
	JNE     im2col_next
	XORQ    R8, R8
	ADDQ    R13, SI

im2col_next:
	DECQ CX
	JNZ  im2col_row
	VZEROUPPER
	RET
