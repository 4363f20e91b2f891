//go:build amd64

package kernels

// mk4x4 is the SSE2 micro-kernel (gemm_amd64.s). SSE2 is part of the amd64
// baseline, so no feature detection is needed. Packed MULPS/ADDPS round each
// lane exactly like the scalar ops Go emits (same IEEE-754 binary32
// arithmetic, same MXCSR, no FMA), so the vector tile is bitwise identical
// to the scalar reference — asserted by the differential tests and fuzzers.
//
//go:noescape
func mk4x4(dst *float32, ldc int, ap, bp *float32, kb int, add bool)

// mk8x8 is the AVX2 micro-kernel (gemm_avx2_amd64.s): the same contract at
// twice the vector width, dispatched only when CPUID reports AVX2 usable.
//
//go:noescape
func mk8x8(dst *float32, ldc int, ap, bp *float32, kb int, add bool)

// microKernel4x4SSE adapts the SSE2 assembly tile to the microKernelFunc
// signature: one 4×4 tile over kb k-steps, stored (add=false, first kc
// block) or added (later blocks) exactly like the reference's
// `row[j] += part[j]`.
func microKernel4x4SSE(dst []float32, o, ldc int, ap, bp []float32, kb int, add bool) {
	mk4x4(&dst[o], ldc, &ap[0], &bp[0], kb, add)
}

// microKernel8x8AVX2 adapts the AVX2 assembly tile: one 8×8 tile over kb
// k-steps under the same store-vs-add contract.
func microKernel8x8AVX2(dst []float32, o, ldc int, ap, bp []float32, kb int, add bool) {
	mk8x8(&dst[o], ldc, &ap[0], &bp[0], kb, add)
}

// transpose8x8 moves one 8×8 block (gemm_avx2_amd64.s):
// dst[x*8+c] = src[offs[c]+co+x]. AVX2 only.
//
//go:noescape
func transpose8x8(dst, src *float32, offs *[8]int, co int)

// transpose8 fills dst[0:64] with src[offs[c]+co+x] at x*8+c — eight
// 8-float runs of src, one per destination column — through the AVX2
// transpose after checking both ranges, and reports whether it ran. offs
// must ascend, so offs[7] bounds every read.
func transpose8(dst, src []float32, offs *[maxNR]int, co int) bool {
	if !cpuHasAVX2 || len(dst) < 64 || offs[0]+co < 0 || offs[7]+co+8 > len(src) {
		return false
	}
	transpose8x8(&dst[0], &src[0], offs, co)
	return true
}

// im2colRows8 copies one contiguous-run strip of a forward im2col panel
// (gemm_avx2_amd64.s). AVX only; see im2colRuns8.
//
//go:noescape
func im2colRows8(dst, src *float32, kb, kh, kw, nkh, nkw, dRow, dPlane int)

// im2colRuns8 fills dst[0:8·kb] with kb im2col rows of an 8-wide strip
// whose columns are the contiguous run at column offset co, starting at
// row offset ro = (·,kh,kw), and reports whether it ran. Every row the walk
// reaches lies at or below g.rowMax, which bounds the reads.
func im2colRuns8(dst, pad []float32, g *convGeom, ro, kh, kw, co, kb int) bool {
	if !cpuHasAVX2 || kb <= 0 || len(dst) < 8*kb || ro+co < 0 || g.rowMax+co+8 > len(pad) {
		return false
	}
	im2colRows8(&dst[0], &pad[ro+co], kb, kh, kw, g.kh, g.kw, 4*(g.wp-g.kw), 4*(g.plane-g.kh*g.wp))
	return true
}
