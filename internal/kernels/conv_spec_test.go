package kernels

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// The conv differential suite: every conv entry point must be bitwise equal
// to its executable specification — the explicit Im2Col matrix fed to the
// reference GEMM loops, Col2Im for the input gradient, SumBlocked for the
// bias gradient, and per-image weight/bias partials added in batch order.
// The fused paths (zero-bordered image, whole-K panels, padded col2im) may
// reorganize addressing freely; these tests pin that they never change a
// bit.

// convSpecForward is the forward specification.
func convSpecForward(dst, src, weight, bias []float32, d ConvDims, kc int) {
	kdim, spatial := d.ColRows(), d.ColCols()
	imgIn, imgOut := d.CIn*d.H*d.W, d.COut*spatial
	cols := make([]float32, kdim*spatial)
	for b := 0; b < d.Batch; b++ {
		Im2Col(cols, src[b*imgIn:(b+1)*imgIn], d)
		out := dst[b*imgOut : (b+1)*imgOut]
		matMulRef(out, weight, cols, d.COut, kdim, spatial, kc)
		if bias != nil {
			for co := 0; co < d.COut; co++ {
				for j := 0; j < spatial; j++ {
					out[co*spatial+j] += bias[co]
				}
			}
		}
	}
}

// convSpecBackward is the backward specification.
func convSpecBackward(gradSrc, gradWeight, gradBias, src, weight, gradOut []float32, d ConvDims, kc int) {
	kdim, spatial := d.ColRows(), d.ColCols()
	imgIn, imgOut := d.CIn*d.H*d.W, d.COut*spatial
	cols := make([]float32, kdim*spatial)
	dcols := make([]float32, kdim*spatial)
	dw := make([]float32, d.COut*kdim)
	for i := range gradWeight {
		gradWeight[i] = 0
	}
	for i := range gradBias {
		gradBias[i] = 0
	}
	for b := 0; b < d.Batch; b++ {
		dout := gradOut[b*imgOut : (b+1)*imgOut]
		Im2Col(cols, src[b*imgIn:(b+1)*imgIn], d)
		// dW_b = dOut · colsᵀ, then added in batch order
		matMulABTRef(dw, dout, cols, d.COut, spatial, kdim, kc)
		for i, v := range dw {
			gradWeight[i] += v
		}
		for co := 0; co < d.COut; co++ {
			gradBias[co] += SumBlocked(dout[co*spatial:(co+1)*spatial], kc)
		}
		// dX_b = Col2Im(Wᵀ · dOut)
		matMulATBRef(dcols, weight, dout, kdim, d.COut, spatial, kc)
		Col2Im(gradSrc[b*imgIn:(b+1)*imgIn], dcols, d)
	}
}

// specShapes covers the conv geometry the fused packs must handle: the
// resnet50 shapes, stride 2, pad 0 and pad 2, 1×1 kernels, asymmetric
// kernels, strides and pads, output widths that are not a multiple of any
// register-tile width, and a reduction too deep for a whole-K panel.
var specShapes = []ConvDims{
	{Batch: 2, CIn: 3, H: 8, W: 8, COut: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{Batch: 3, CIn: 8, H: 8, W: 8, COut: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{Batch: 2, CIn: 8, H: 8, W: 8, COut: 16, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{Batch: 2, CIn: 2, H: 9, W: 7, COut: 3, KH: 3, KW: 2, StrideH: 2, StrideW: 2, PadH: 0, PadW: 1},
	{Batch: 2, CIn: 3, H: 6, W: 6, COut: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
	{Batch: 2, CIn: 2, H: 7, W: 5, COut: 4, KH: 5, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	{Batch: 2, CIn: 16, H: 5, W: 5, COut: 9, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
	{Batch: 2, CIn: 4, H: 6, W: 9, COut: 3, KH: 1, KW: 1, StrideH: 2, StrideW: 2, PadH: 0, PadW: 0},
	{Batch: 2, CIn: 3, H: 5, W: 11, COut: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{Batch: 2, CIn: 2, H: 10, W: 13, COut: 5, KH: 2, KW: 4, StrideH: 2, StrideW: 1, PadH: 1, PadW: 0},
	{Batch: 1, CIn: 64, H: 8, W: 8, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
}

func convLabel(d ConvDims, kc int) string {
	return fmt.Sprintf("b%d_ci%d_%dx%d_co%d_k%dx%d_s%dx%d_p%dx%d/kc%d",
		d.Batch, d.CIn, d.H, d.W, d.COut, d.KH, d.KW, d.StrideH, d.StrideW, d.PadH, d.PadW, kc)
}

// convOperands draws a conv's inputs; withSpecials sprinkles NaN, ±Inf, −0,
// denormals and MaxFloat32 into all three.
func convOperands(d ConvDims, seed uint64, withSpecials bool) (src, weight, bias, gradOut []float32) {
	s := rng.New(seed)
	src = randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight = randSlice(s, d.COut*d.ColRows())
	bias = randSlice(s, d.COut)
	gradOut = randSlice(s, d.Batch*d.COut*d.ColCols())
	if withSpecials {
		sprinkle(src, seed+1)
		sprinkle(weight, seed+2)
		sprinkle(gradOut, seed+3)
	}
	return src, weight, bias, gradOut
}

// checkConvVsSpec runs all four entry points on one shape and kc and
// compares each output with the specification under sameBits.
func checkConvVsSpec(t *testing.T, d ConvDims, kc int, src, weight, bias, gradOut []float32) {
	t.Helper()
	label := convLabel(d, kc)
	nOut := d.Batch * d.COut * d.ColCols()
	want := make([]float32, nOut)
	convSpecForward(want, src, weight, bias, d, kc)
	wantNB := make([]float32, nOut)
	convSpecForward(wantNB, src, weight, nil, d, kc)
	wgs := make([]float32, len(src))
	wgw := make([]float32, len(weight))
	wgb := make([]float32, d.COut)
	convSpecBackward(wgs, wgw, wgb, src, weight, gradOut, d, kc)

	fwd := map[string]func(dst, src, weight, bias []float32, d ConvDims, kc int){
		"Conv2D": Conv2D, "Conv2DParallel": Conv2DParallel,
	}
	for name, f := range fwd {
		got := make([]float32, nOut)
		f(got, src, weight, bias, d, kc)
		diffBits(t, name+"/"+label, got, want)
		f(got, src, weight, nil, d, kc)
		diffBits(t, name+"/nobias/"+label, got, wantNB)
	}
	bwd := map[string]func(gs, gw, gb, src, weight, gradOut []float32, d ConvDims, kc int){
		"Conv2DBackward": Conv2DBackward, "Conv2DBackwardParallel": Conv2DBackwardParallel,
	}
	for name, f := range bwd {
		gs := make([]float32, len(src))
		gw := make([]float32, len(weight))
		gb := make([]float32, d.COut)
		f(gs, gw, gb, src, weight, gradOut, d, kc)
		diffBits(t, name+"/gradSrc/"+label, gs, wgs)
		diffBits(t, name+"/gradWeight/"+label, gw, wgw)
		diffBits(t, name+"/gradBias/"+label, gb, wgb)
	}
}

func TestConvMatchesSpec(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		for si, d := range specShapes {
			for _, special := range []bool{false, true} {
				src, weight, bias, gradOut := convOperands(d, uint64(100+si), special)
				for _, kc := range []int{0, 5, 8, 16, 32, 64} {
					checkConvVsSpec(t, d, kc, src, weight, bias, gradOut)
				}
			}
		}
	})
}

// FuzzConvVsSpec draws conv geometry, kc and operands (optionally with NaN,
// ±Inf, −0 and denormals) and asserts every conv entry point matches the
// specification under every micro-kernel variant.
func FuzzConvVsSpec(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(8), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), int8(8), uint64(1), false)
	f.Add(uint8(1), uint8(2), uint8(9), uint8(7), uint8(3), uint8(3), uint8(2), uint8(2), uint8(2), uint8(0), uint8(1), int8(5), uint64(2), true)
	f.Add(uint8(3), uint8(4), uint8(5), uint8(11), uint8(9), uint8(1), uint8(1), uint8(1), uint8(2), uint8(0), uint8(0), int8(0), uint64(3), true)
	f.Add(uint8(2), uint8(1), uint8(4), uint8(6), uint8(2), uint8(4), uint8(2), uint8(3), uint8(1), uint8(2), uint8(2), int8(-1), uint64(4), false)
	f.Fuzz(func(t *testing.T, batch, cin, h, w, cout, kh, kw, sh, sw, ph, pw uint8, kc8 int8, seed uint64, withSpecials bool) {
		d := ConvDims{
			Batch: 1 + int(batch)%3, CIn: 1 + int(cin)%6, H: 1 + int(h)%12, W: 1 + int(w)%12,
			COut: 1 + int(cout)%10, KH: 1 + int(kh)%4, KW: 1 + int(kw)%4,
			StrideH: 1 + int(sh)%3, StrideW: 1 + int(sw)%3, PadH: int(ph) % 3, PadW: int(pw) % 3,
		}
		if d.H+2*d.PadH < d.KH || d.W+2*d.PadW < d.KW {
			return // no output positions
		}
		src, weight, bias, gradOut := convOperands(d, seed, withSpecials)
		prev := ActiveISA()
		defer func() {
			if err := SetISA(prev); err != nil {
				t.Fatal(err)
			}
		}()
		for _, isa := range AvailableISAs() {
			if err := SetISA(isa); err != nil {
				t.Fatal(err)
			}
			checkConvVsSpec(t, d, int(kc8), src, weight, bias, gradOut)
		}
	})
}
