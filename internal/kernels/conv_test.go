package kernels

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func conv2dRef64(src, weight, bias []float32, d ConvDims) []float64 {
	oh, ow := d.OutH(), d.OutW()
	out := make([]float64, d.Batch*d.COut*oh*ow)
	for b := 0; b < d.Batch; b++ {
		for co := 0; co < d.COut; co++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					var s float64
					if bias != nil {
						s = float64(bias[co])
					}
					for ci := 0; ci < d.CIn; ci++ {
						for kh := 0; kh < d.KH; kh++ {
							for kw := 0; kw < d.KW; kw++ {
								hi := y*d.StrideH + kh - d.PadH
								wi := x*d.StrideW + kw - d.PadW
								if hi < 0 || hi >= d.H || wi < 0 || wi >= d.W {
									continue
								}
								sv := src[((b*d.CIn+ci)*d.H+hi)*d.W+wi]
								wv := weight[((co*d.CIn+ci)*d.KH+kh)*d.KW+kw]
								s += float64(sv) * float64(wv)
							}
						}
					}
					out[((b*d.COut+co)*oh+y)*ow+x] = s
				}
			}
		}
	}
	return out
}

func testDims() ConvDims {
	return ConvDims{Batch: 2, CIn: 3, H: 8, W: 8, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

func TestConv2DAgainstReference(t *testing.T) {
	s := rng.New(20)
	d := testDims()
	src := randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight := randSlice(s, d.COut*d.ColRows())
	bias := randSlice(s, d.COut)
	ref := conv2dRef64(src, weight, bias, d)
	dst := make([]float32, len(ref))
	for _, kc := range []int{0, 4, 9, 27} {
		Conv2D(dst, src, weight, bias, d, kc)
		assertClose(t, dst, ref, 1e-3, "Conv2D")
	}
	// nil bias path
	refNB := conv2dRef64(src, weight, nil, d)
	Conv2D(dst, src, weight, nil, d, 0)
	assertClose(t, dst, refNB, 1e-3, "Conv2D no bias")
}

func TestConv2DStridePad(t *testing.T) {
	s := rng.New(21)
	d := ConvDims{Batch: 1, CIn: 2, H: 9, W: 7, COut: 3, KH: 3, KW: 2, StrideH: 2, StrideW: 2, PadH: 0, PadW: 1}
	src := randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight := randSlice(s, d.COut*d.ColRows())
	ref := conv2dRef64(src, weight, nil, d)
	dst := make([]float32, len(ref))
	Conv2D(dst, src, weight, nil, d, 5)
	assertClose(t, dst, ref, 1e-3, "Conv2D stride/pad")
}

func TestConvKCChangesBits(t *testing.T) {
	s := rng.New(22)
	d := ConvDims{Batch: 1, CIn: 16, H: 8, W: 8, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	src := randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight := randSlice(s, d.COut*d.ColRows())
	d1 := make([]float32, d.Batch*d.COut*d.OutH()*d.OutW())
	d2 := make([]float32, len(d1))
	Conv2D(d1, src, weight, nil, d, 16)
	Conv2D(d2, src, weight, nil, d, 48)
	same := true
	for i := range d1 {
		if math.Float32bits(d1[i]) != math.Float32bits(d2[i]) {
			same = false
			break
		}
	}
	if same {
		t.Skip("conv kc variants agreed bitwise (rare)")
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), c> must equal <x, Col2Im(c)> — the defining property of an
	// adjoint pair, which is what backward correctness rests on.
	s := rng.New(23)
	d := ConvDims{Batch: 1, CIn: 2, H: 6, W: 5, COut: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}
	x := randSlice(s, d.CIn*d.H*d.W)
	c := randSlice(s, d.ColRows()*d.ColCols())
	ix := make([]float32, d.ColRows()*d.ColCols())
	Im2Col(ix, x, d)
	cc := make([]float32, d.CIn*d.H*d.W)
	Col2Im(cc, c, d)
	var lhs, rhs float64
	for i := range ix {
		lhs += float64(ix[i]) * float64(c[i])
	}
	for i := range x {
		rhs += float64(x[i]) * float64(cc[i])
	}
	if math.Abs(lhs-rhs) > 1e-2*(math.Abs(lhs)+1) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

// TestConv2DBackwardNumerical checks all three gradients against central
// finite differences of a scalar loss L = sum(conv(x, w) * g).
func TestConv2DBackwardNumerical(t *testing.T) {
	s := rng.New(24)
	d := ConvDims{Batch: 1, CIn: 2, H: 5, W: 5, COut: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	nIn := d.Batch * d.CIn * d.H * d.W
	nW := d.COut * d.ColRows()
	nOut := d.Batch * d.COut * d.OutH() * d.OutW()
	src := make([]float32, nIn)
	weight := make([]float32, nW)
	g := make([]float32, nOut)
	for i := range src {
		src[i] = s.NormFloat32()
	}
	for i := range weight {
		weight[i] = s.NormFloat32()
	}
	for i := range g {
		g[i] = s.NormFloat32()
	}

	loss := func(src, weight []float32) float64 {
		out := make([]float32, nOut)
		Conv2D(out, src, weight, nil, d, 0)
		var l float64
		for i := range out {
			l += float64(out[i]) * float64(g[i])
		}
		return l
	}

	gradSrc := make([]float32, nIn)
	gradW := make([]float32, nW)
	gradB := make([]float32, d.COut)
	Conv2DBackward(gradSrc, gradW, gradB, src, weight, g, d, 0)

	const eps = 1e-2
	checkGrad := func(buf []float32, grad []float32, name string, idxs []int) {
		for _, i := range idxs {
			orig := buf[i]
			buf[i] = orig + eps
			lp := loss(src, weight)
			buf[i] = orig - eps
			lm := loss(src, weight)
			buf[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(grad[i])) > 2e-2*(math.Abs(num)+1) {
				t.Fatalf("%s grad[%d] = %v, numerical %v", name, i, grad[i], num)
			}
		}
	}
	checkGrad(src, gradSrc, "src", []int{0, 7, nIn / 2, nIn - 1})
	checkGrad(weight, gradW, "weight", []int{0, 5, nW / 2, nW - 1})

	// bias gradient: dL/db[co] = sum of g over spatial positions of channel co
	for co := 0; co < d.COut; co++ {
		var ref float64
		sp := d.OutH() * d.OutW()
		for j := 0; j < sp; j++ {
			ref += float64(g[co*sp+j])
		}
		if math.Abs(ref-float64(gradB[co])) > 1e-3*(math.Abs(ref)+1) {
			t.Fatalf("bias grad[%d] = %v, ref %v", co, gradB[co], ref)
		}
	}
}

func TestConv2DBackwardNilOutputs(t *testing.T) {
	s := rng.New(25)
	d := testDims()
	src := randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight := randSlice(s, d.COut*d.ColRows())
	g := randSlice(s, d.Batch*d.COut*d.OutH()*d.OutW())
	// must not panic with nil gradient buffers
	Conv2DBackward(nil, nil, nil, src, weight, g, d, 0)
	gw := make([]float32, len(weight))
	Conv2DBackward(nil, gw, nil, src, weight, g, d, 0)
}

func TestConvDimsValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := ConvDims{Batch: 1, CIn: 1, H: 2, W: 2, COut: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	Conv2D(make([]float32, 1), make([]float32, 4), make([]float32, 25), nil, d, 0)
}

// BenchmarkConv times the conv entry points the nn layer calls, on
// resnet50's two conv shapes (batch 4, 8×8 images, 3×3 pad 1) at the D2
// block kc = 8, with allocations reported.
func BenchmarkConv(b *testing.B) {
	for _, sh := range []struct {
		name string
		d    ConvDims
	}{
		{"3to8", ConvDims{Batch: 4, CIn: 3, H: 8, W: 8, COut: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{"8to8", ConvDims{Batch: 4, CIn: 8, H: 8, W: 8, COut: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	} {
		d := sh.d
		src, weight, _, gradOut := convOperands(d, 9, false)
		dst := make([]float32, len(gradOut))
		gs := make([]float32, len(src))
		gw := make([]float32, len(weight))
		b.Run(sh.name+"/fwd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Conv2D(dst, src, weight, nil, d, 8)
			}
		})
		b.Run(sh.name+"/bwd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Conv2DBackward(gs, gw, nil, src, weight, gradOut, d, 8)
			}
		})
	}
}
