package kernels

import (
	"fmt"

	"repro/internal/pool"
)

// ConvDims describes a 2-D convolution. Layout is NCHW for activations and
// [CO, CI, KH, KW] for weights.
type ConvDims struct {
	Batch, CIn, H, W int
	COut, KH, KW     int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (d ConvDims) OutH() int { return (d.H+2*d.PadH-d.KH)/d.StrideH + 1 }

// OutW returns the output width.
func (d ConvDims) OutW() int { return (d.W+2*d.PadW-d.KW)/d.StrideW + 1 }

// ColRows returns the im2col row count (CI*KH*KW).
func (d ConvDims) ColRows() int { return d.CIn * d.KH * d.KW }

// ColCols returns the im2col column count (OH*OW).
func (d ConvDims) ColCols() int { return d.OutH() * d.OutW() }

func (d ConvDims) validate() {
	if d.Batch <= 0 || d.CIn <= 0 || d.COut <= 0 || d.StrideH <= 0 || d.StrideW <= 0 {
		panic(fmt.Sprintf("kernels: invalid ConvDims %+v", d))
	}
	if d.OutH() <= 0 || d.OutW() <= 0 {
		panic(fmt.Sprintf("kernels: ConvDims %+v yields empty output", d))
	}
}

// Im2Col expands one image src[CI,H,W] into cols[CI*KH*KW, OH*OW]. This is a
// pure data movement: it involves no accumulation and is therefore identical
// across all kernel variants. The hot conv paths never materialize this
// matrix — the expansion is fused into the GEMM B-panel pack from a
// zero-bordered copy of the image (gemm.go) — but the explicit form remains
// the executable specification the fused packs are differentially tested
// against (TestConvMatchesSpec, FuzzConvVsSpec).
func Im2Col(cols, src []float32, d ConvDims) {
	d.validate()
	oh, ow := d.OutH(), d.OutW()
	if len(cols) != d.ColRows()*d.ColCols() || len(src) != d.CIn*d.H*d.W {
		panic("kernels: Im2Col buffer size mismatch")
	}
	idx := 0
	for c := 0; c < d.CIn; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for y := 0; y < oh; y++ {
					hi := y*d.StrideH + kh - d.PadH
					for x := 0; x < ow; x++ {
						wi := x*d.StrideW + kw - d.PadW
						if hi >= 0 && hi < d.H && wi >= 0 && wi < d.W {
							cols[idx] = src[(c*d.H+hi)*d.W+wi]
						} else {
							cols[idx] = 0
						}
						idx++
					}
				}
			}
		}
	}
}

// Col2Im scatters cols[CI*KH*KW, OH*OW] back into dst[CI,H,W], accumulating
// overlapping windows. The accumulation order is fixed by the loop structure
// (it does not depend on hardware parameters), matching the fact that the
// paper localizes non-determinism in reductions and GEMM accumulation, not
// data movement. Like Im2Col it is the specification: the backward conv
// paths run col2imPad, which performs the same adds onto a zero-bordered
// image and crops.
func Col2Im(dst, cols []float32, d ConvDims) {
	d.validate()
	oh, ow := d.OutH(), d.OutW()
	if len(cols) != d.ColRows()*d.ColCols() || len(dst) != d.CIn*d.H*d.W {
		panic("kernels: Col2Im buffer size mismatch")
	}
	zeroFill(dst)
	idx := 0
	for c := 0; c < d.CIn; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for y := 0; y < oh; y++ {
					hi := y*d.StrideH + kh - d.PadH
					if hi < 0 || hi >= d.H {
						idx += ow
						continue
					}
					if d.StrideW == 1 {
						// Unit stride: the x-run maps to contiguous image
						// columns, so after clipping the pad overhang the
						// row accumulates with one elementwise add. Each
						// destination element still receives exactly the
						// adds of the scalar walk, in the same order.
						x0 := 0
						if d.PadW > kw {
							x0 = d.PadW - kw
						}
						x1 := d.W - kw + d.PadW
						if x1 > ow {
							x1 = ow
						}
						if x1 > x0 {
							base := (c*d.H+hi)*d.W + kw - d.PadW
							AddF32(dst[base+x0:base+x1], cols[idx+x0:idx+x1])
						}
						idx += ow
						continue
					}
					for x := 0; x < ow; x++ {
						wi := x*d.StrideW + kw - d.PadW
						if wi >= 0 && wi < d.W {
							dst[(c*d.H+hi)*d.W+wi] += cols[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// geom returns d's im2col index map over the zero-bordered image.
func (d *ConvDims) geom() convGeom {
	wp := d.W + 2*d.PadW
	plane := (d.H + 2*d.PadH) * wp
	return convGeom{kh: d.KH, kw: d.KW, wp: wp, plane: plane, ow: d.OutW(), sh: d.StrideH, sw: d.StrideW,
		rowMax: (d.CIn-1)*plane + (d.KH-1)*wp + d.KW - 1}
}

// padded reports whether the zero-bordered image differs from the image.
func (d *ConvDims) padded() bool { return d.PadH != 0 || d.PadW != 0 }

// padLen is the length of one zero-bordered image [CI, H+2·PH, W+2·PW].
func (d *ConvDims) padLen() int { return d.CIn * (d.H + 2*d.PadH) * (d.W + 2*d.PadW) }

// padImage copies image src[CI,H,W] into the interior of pad, whose border
// must already be zero, and returns the zero-bordered image. An unpadded
// conv's image is its own bordered form and is returned as is.
func padImage(pad, src []float32, d *ConvDims) []float32 {
	if !d.padded() {
		return src
	}
	wp := d.W + 2*d.PadW
	plane := (d.H + 2*d.PadH) * wp
	for c := 0; c < d.CIn; c++ {
		for h := 0; h < d.H; h++ {
			copy(pad[c*plane+(h+d.PadH)*wp+d.PadW:][:d.W], src[(c*d.H+h)*d.W:][:d.W])
		}
	}
	return pad
}

// cropImage copies the interior of the zero-bordered image pad into dst.
func cropImage(dst, pad []float32, d *ConvDims) {
	wp := d.W + 2*d.PadW
	plane := (d.H + 2*d.PadH) * wp
	for c := 0; c < d.CIn; c++ {
		for h := 0; h < d.H; h++ {
			copy(dst[(c*d.H+h)*d.W:][:d.W], pad[c*plane+(h+d.PadH)*wp+d.PadW:])
		}
	}
}

// col2imPad is Col2Im onto the zero-bordered image: gpad must be zero, and
// every element receives exactly the adds Col2Im gives it, in Col2Im's
// order (kk ascending, then output position) — the interior elements are
// therefore bitwise Col2Im's result, and the border collects the adds
// Col2Im clips, to be discarded by cropImage. No clipping branches remain.
func col2imPad(gpad, cols []float32, g *convGeom, kdim, oh int) {
	ow := g.ow
	ro, kh, kw := 0, 0, 0
	for kk := 0; kk < kdim; kk++ {
		src := cols[kk*oh*ow : (kk+1)*oh*ow]
		if g.sw == 1 {
			// the window's rows are contiguous runs sh·wp apart
			addRowsF32(gpad[ro:], g.sh*g.wp, src, oh, ow)
		} else {
			base := ro
			for y := 0; y < oh; y++ {
				for x, v := range src[y*ow : (y+1)*ow] {
					gpad[base+x*g.sw] += v
				}
				base += g.sh * g.wp
			}
		}
		ro, kh, kw = g.nextRow(ro, kh, kw)
	}
}

// addBias adds bias[co] to each spatial row of one image's output.
func addBias(out, bias []float32, cout, spatial int) {
	for co := 0; co < cout; co++ {
		bv := bias[co]
		row := out[co*spatial : (co+1)*spatial]
		for j := range row {
			row[j] += bv
		}
	}
}

// Conv2D computes the forward convolution dst[B,CO,OH,OW] from src[B,CI,H,W]
// and weight[CO,CI,KH,KW] (+ optional bias[CO]) via im2col + GEMM, with the
// GEMM reduction over CI*KH*KW blocked by kc. Different kc values model
// different GPU architectures' kernels; a fixed kc across types is the D2
// hardware-agnostic kernel.
//
// The weight panel is packed once and reused across the batch; each image
// is copied once into a zero-bordered buffer and its im2col expansion is
// fused into the B-panel pack (one panel for all of k when it fits), so no
// cols matrix is ever materialized. All of it is bitwise invisible. The
// GEMMs run without the pack-ahead pipeline: a whole-K panel leaves nothing
// to overlap.
//
//easyscale:hotpath
func Conv2D(dst, src, weight, bias []float32, d ConvDims, kc int) {
	d.validate()
	kdim, spatial := d.ColRows(), d.ColCols()
	imgIn, imgOut := d.CIn*d.H*d.W, d.COut*spatial
	if len(dst) != d.Batch*imgOut || len(src) != d.Batch*imgIn || len(weight) != d.COut*kdim {
		panic("kernels: Conv2D buffer size mismatch")
	}
	g := d.geom()
	pa := packA(weight, d.COut, kdim, normKC(kc, kdim), kdim, 1)
	var pad []float32
	if d.padded() {
		pad = pool.Get(d.padLen())
	}
	for b := 0; b < d.Batch; b++ {
		out := dst[b*imgOut : (b+1)*imgOut]
		bsrc := bPanelSrc{kind: bIm2Col, data: padImage(pad, src[b*imgIn:(b+1)*imgIn], &d), geo: g}
		gemmRange(out, spatial, &pa, &bsrc, 0, pa.mtiles, 0, spatial, nil)
		if bias != nil {
			addBias(out, bias, d.COut, spatial)
		}
	}
	if pad != nil {
		pool.Put(pad)
	}
	pa.release()
}

// Conv2DBackward computes the three convolution gradients. gradOut is
// [B,CO,OH,OW]; outputs are gradSrc [B,CI,H,W], gradWeight [CO,CI,KH,KW]
// (accumulated over the batch in batch order), and gradBias [CO]. Any of the
// gradient outputs may be nil to skip. kc blocks the GEMM reductions exactly
// as in the forward pass.
//
// The transposed weight panel of the dX GEMM is packed once per call and
// reused across the batch; the cols operand of the dW GEMM is packed
// directly from the zero-bordered image (fused im2colᵀ, one whole-K panel
// when it fits), and the dX columns are scattered onto a zero-bordered
// image and cropped, so the backward pass, like the forward, never
// materializes an im2col matrix, never clips a window and runs no
// pack-ahead pipeline.
//
//easyscale:hotpath
func Conv2DBackward(gradSrc, gradWeight, gradBias, src, weight, gradOut []float32, d ConvDims, kc int) {
	d.validate()
	kdim, spatial := d.ColRows(), d.ColCols()
	imgIn, imgOut := d.CIn*d.H*d.W, d.COut*spatial
	if len(gradOut) != d.Batch*imgOut || len(src) != d.Batch*imgIn || len(weight) != d.COut*kdim {
		panic("kernels: Conv2DBackward buffer size mismatch")
	}
	if gradWeight != nil {
		if len(gradWeight) != d.COut*kdim {
			panic("kernels: Conv2DBackward gradWeight size mismatch")
		}
		zeroFill(gradWeight)
	}
	if gradBias != nil {
		if len(gradBias) != d.COut {
			panic("kernels: Conv2DBackward gradBias size mismatch")
		}
		zeroFill(gradBias)
	}
	if gradSrc != nil && len(gradSrc) != d.Batch*imgIn {
		panic("kernels: Conv2DBackward gradSrc size mismatch")
	}

	g := d.geom()
	var wpart, pad []float32
	if gradWeight != nil {
		wpart = pool.GetUninit(d.COut * kdim)
		if d.padded() {
			pad = pool.Get(d.padLen())
		}
	}
	var dcols, gpad []float32
	var paT packedA
	if gradSrc != nil {
		dcols = pool.GetUninit(kdim * spatial)
		if d.padded() {
			gpad = pool.GetUninit(d.padLen())
		}
		// transposed weight panel for dCols = Wᵀ·dOut, packed once per call
		paT = packA(weight, kdim, d.COut, normKC(kc, d.COut), 1, kdim)
	}
	kcW := normKC(kc, spatial)
	for b := 0; b < d.Batch; b++ {
		dout := gradOut[b*imgOut : (b+1)*imgOut] // [CO, spatial]
		if gradWeight != nil {
			// dW += dOut · colsᵀ : [CO, spatial]·[spatial, kdim] = [CO, kdim]
			paD := packA(dout, d.COut, spatial, kcW, spatial, 1)
			bsrc := bPanelSrc{kind: bIm2ColT, data: padImage(pad, src[b*imgIn:(b+1)*imgIn], &d), geo: g}
			gemmRange(wpart, kdim, &paD, &bsrc, 0, paD.mtiles, 0, kdim, nil)
			paD.release()
			AddF32(gradWeight, wpart)
		}
		if gradBias != nil {
			for co := 0; co < d.COut; co++ {
				gradBias[co] += SumBlocked(dout[co*spatial:(co+1)*spatial], kc)
			}
		}
		if gradSrc != nil {
			// dCols = Wᵀ · dOut : [kdim, CO]·[CO, spatial]
			bsrc := bPanelSrc{kind: bRowMajor, data: dout, ld: spatial}
			gemmRange(dcols, spatial, &paT, &bsrc, 0, paT.mtiles, 0, spatial, nil)
			gs := gradSrc[b*imgIn : (b+1)*imgIn]
			if gpad == nil {
				zeroFill(gs)
				col2imPad(gs, dcols, &g, kdim, d.OutH())
			} else {
				zeroFill(gpad)
				col2imPad(gpad, dcols, &g, kdim, d.OutH())
				cropImage(gs, gpad, &d)
			}
		}
	}
	if wpart != nil {
		pool.Put(wpart)
	}
	if pad != nil {
		pool.Put(pad)
	}
	if dcols != nil {
		pool.Put(dcols)
		paT.release()
	}
	if gpad != nil {
		pool.Put(gpad)
	}
}
