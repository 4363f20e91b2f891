package kernels

import (
	"sync"

	"repro/internal/pool"
)

// Cache-blocked, register-tiled GEMM under the bitwise contract.
//
// The determinism argument of §3.3 pins the *per-output-element accumulation
// order*: every C[i,j] must add its k-partials in the fixed kc-blocked order
// (products in ascending kk within a block, block partials in ascending block
// order). It says nothing about the loop order over *independent* outputs, or
// about where operands live — which leaves the kernels free to be
// reorganized for locality. The implementation here is a BLIS-style blocked
// GEMM:
//
//   - A is packed once per call into mr-wide row strips, kk-major within each
//     kc block, so the micro-kernel reads it with unit stride regardless of
//     the operand's original layout (normal or transposed).
//   - B is packed per nc column block into nr-wide column strips, again
//     kk-major: one panel per kc block, or one for all of k when B is an
//     im2col panel that fits gemmPanelMax (see gemmRange). The pack step
//     is a pure data movement, so it can source a plain matrix, a
//     transposed one, or a zero-bordered image via the im2col index map
//     (the conv path) without touching numerics.
//   - Each mr×nr output tile is computed by a register-tiled micro-kernel
//     holding mr·nr accumulators: for each kk ascending, it performs mr·nr
//     multiply-adds off mr+nr loads. Per element this is exactly the
//     reference loop's `part += a·b` sequence, so the result is bitwise
//     identical to the naive kernels for every input, block size, and tile
//     boundary — asserted by the differential tests and fuzzers.
//
// The register tile mr×nr is a property of the dispatched micro-kernel
// (microkernel.go): 4×4 for the SSE2 and generic variants, 8×8 for AVX2.
// Like the cache blocks, the tile shape only changes which *independent*
// outputs share registers — it is invisible to numerics; only kc (the
// accumulation block, chosen by the device model) shows up in the bits.

var (
	// gemmMCStrips bounds the rows of packed A the micro-kernel loop walks
	// per B strip (the L2-resident A block), in units of mr-row strips.
	gemmMCStrips = 32
	// gemmNC bounds the columns packed per B panel (the L1/L2-resident B
	// block). Must stay a multiple of every variant's nr.
	gemmNC = 256
	// gemmPanelMax bounds a whole-K im2col panel (floats): at or below it,
	// a conv GEMM packs B once per column block instead of once per kc
	// block. 32 KiB stays L1-resident while the micro-kernel streams it; a
	// larger panel would trade that for L2 traffic on every strip.
	gemmPanelMax = 1 << 13
	// tiledMinWork is the m·k·n product below which the dispatchers use the
	// reference loops: at trivial sizes the pack+tile overhead outweighs the
	// register reuse. Dispatch by size is invisible to numerics because the
	// two paths are bitwise identical.
	tiledMinWork = 4096
)

// packedA is operand A packed for the tiled GEMM: ceil(m/mr) row strips of
// width mk.mr (zero-padded past m), kk-major within each kc block, blocks in
// ascending k order. The flat offset of (block k0, strip s) is
// k0·mtiles·mr + s·kb·mr with kb the block's length, so lookups are closed
// form. The buffer is drawn from the arena; callers must release(). The
// micro-kernel descriptor is captured at pack time so panel layout and tile
// function always agree, even across a concurrent SetISA.
type packedA struct {
	buf    []float32
	m, k   int
	kc     int
	mtiles int
	mk     *mkDesc
}

// packA packs A(i,kk) = a[i·rs + kk·cs] — rs/cs express normal (rs=lda,cs=1)
// and transposed (rs=1,cs=lda) operands with one packer. kc must already be
// normalized to [1,k] (or k==0).
func packA(a []float32, m, k, kc, rs, cs int) packedA {
	mk := activeMK()
	mr := mk.mr
	mtiles := (m + mr - 1) / mr
	pa := packedA{m: m, k: k, kc: kc, mtiles: mtiles, mk: mk}
	pa.buf = pool.GetUninit(mtiles * mr * k)
	var rowStart [maxNR]int
	off := 0
	for k0 := 0; k0 < k; k0 += kc {
		kb := min(kc, k-k0)
		for s := 0; s < mtiles; s++ {
			i0 := s * mr
			rows := min(mr, m-i0)
			for r := 0; r < rows; r++ {
				rowStart[r] = (i0 + r) * rs
			}
			for p := 0; p < kb; {
				base := (k0 + p) * cs
				switch {
				case rows == 8 && rs == 1:
					// transposed operand: the strip's column is contiguous
					copy8(pa.buf[off:], a[i0+base:])
					off += 8
					p++
				case rows == 8 && cs == 1 && p+8 <= kb && transpose8(pa.buf[off:off+64], a, &rowStart, base):
					// normal operand: eight columns of eight rows, transposed
					off += 64
					p += 8
				default:
					for r := 0; r < rows; r++ {
						pa.buf[off] = a[rowStart[r]+base]
						off++
					}
					for r := rows; r < mr; r++ {
						pa.buf[off] = 0
						off++
					}
					p++
				}
			}
		}
	}
	return pa
}

func (pa *packedA) release() { pool.Put(pa.buf) }

// bPanelSrc describes where B panels are packed from. A plain struct (not a
// closure) so per-image conv packs do not allocate; all fields are held by
// value because pack-overlap jobs copy the source into a heap-resident
// pipeline slot — a pointer field would force the caller's locals to escape
// on every GEMM call.
type bPanelSrc struct {
	kind int
	data []float32 // matrix for row/col-major kinds, the zero-bordered image for im2col kinds
	ld   int       // leading dimension: n (row-major) or k (col-major)
	geo  convGeom  // im2col index map for the conv kinds
}

const (
	bRowMajor = iota // B(kk,j) = data[kk·ld + j]       (MatMul, conv-backward dX)
	bColMajor        // B(kk,j) = data[j·ld + kk]       (MatMulABT)
	bIm2Col          // B(kk,j) = im2col(data)[kk][j]   (conv forward; kk over CI·KH·KW, j over OH·OW)
	bIm2ColT         // B(kk,j) = im2col(data)[j][kk]   (conv-backward dW; kk over OH·OW, j over CI·KH·KW)
)

// pack fills bp with the (k0..k0+kb) × (j0..j0+jw) block of B in nr-wide
// column strips, kk-major within a strip, zero-padded past jw. Pure data
// movement: the layout change is invisible to numerics, and the panel bits
// are a function of (source, block coordinates, nr) only — which is what
// makes the pack/compute overlap handoff deterministic regardless of which
// goroutine runs the pack. kb may span several kc blocks (a whole-K panel):
// block k0' of strip t then starts at t·kb·nr + (k0'−k0)·nr.
func (s *bPanelSrc) pack(bp []float32, k0, kb, j0, jw, nr int) {
	switch s.kind {
	case bRowMajor:
		packBRowMajor(bp, s.data, s.ld, k0, kb, j0, jw, nr)
	case bColMajor:
		packBColMajor(bp, s.data, s.ld, k0, kb, j0, jw, nr)
	case bIm2Col:
		packBIm2Col(bp, s.data, &s.geo, k0, kb, j0, jw, nr)
	case bIm2ColT:
		packBIm2ColT(bp, s.data, &s.geo, k0, kb, j0, jw, nr)
	}
}

// copy8 moves eight floats. Going through a local array lets the compiler
// emit two 16-byte register moves; a direct array assignment between two
// slices that may overlap compiles to a runtime.memmove call instead.
func copy8(dst, src []float32) {
	v := *(*[8]float32)(src)
	*(*[8]float32)(dst) = v
}

func packBRowMajor(bp, b []float32, n, k0, kb, j0, jw, nr int) {
	off := 0
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		for p := 0; p < kb; p++ {
			row := b[(k0+p)*n+j0+t0:]
			if tw == 8 {
				copy8(bp[off:], row)
				off += 8
			} else {
				for c := 0; c < tw; c++ {
					bp[off] = row[c]
					off++
				}
			}
			for c := tw; c < nr; c++ {
				bp[off] = 0
				off++
			}
		}
	}
}

func packBColMajor(bp, b []float32, ldb, k0, kb, j0, jw, nr int) {
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		tOff := t0 * kb
		for c := 0; c < tw; c++ {
			col := b[(j0+t0+c)*ldb+k0:]
			for p := 0; p < kb; p++ {
				bp[tOff+p*nr+c] = col[p]
			}
		}
		for c := tw; c < nr; c++ {
			for p := 0; p < kb; p++ {
				bp[tOff+p*nr+c] = 0
			}
		}
	}
}

// convGeom is a convolution's im2col index map over the zero-bordered image
// [CI, H+2·PH, W+2·PW] (see padImage): im2col row kk = (ci,kh,kw) reads the
// padded image at rowOff(kk) = ci·plane + kh·wp + kw, column j = (y,x) at
// colOff(j) = y·sh·wp + x·sw, and element (kk,j) is pad[rowOff+colOff]. The
// border holds the zeros the padding contributes, so every read is in
// bounds and the packs carry no clipping branches. The packs walk both
// offsets incrementally; the only divisions are the ones locating a pack's
// first row and column.
type convGeom struct {
	kh, kw    int // kernel window
	wp, plane int // padded row length and channel plane (padded H · wp)
	ow        int // output width
	sh, sw    int // strides
	rowMax    int // row offset of the last im2col row
}

// rowOff returns the padded-image offset of im2col row kk = (ci,kh,kw),
// with the window position (kh, kw) the incremental walk continues from.
func (g *convGeom) rowOff(kk int) (off, kh, kw int) {
	if kk == 0 {
		return 0, 0, 0
	}
	q := kk / g.kw
	kw = kk - q*g.kw
	ci := q / g.kh
	kh = q - ci*g.kh
	return ci*g.plane + kh*g.wp + kw, kh, kw
}

// nextRow advances a row offset from (·,kh,kw) to the next im2col row.
func (g *convGeom) nextRow(off, kh, kw int) (int, int, int) {
	off++
	kw++
	if kw == g.kw {
		kw = 0
		kh++
		off += g.wp - g.kw
		if kh == g.kh {
			kh = 0
			off += g.plane - g.kh*g.wp
		}
	}
	return off, kh, kw
}

// packBIm2Col packs the forward-conv B operand straight from the padded
// image. When a strip's columns are one contiguous image run (unit stride,
// no output-row wrap) each kk row is a straight copy — the whole strip one
// AVX2 call on the 8-wide variant; otherwise the strip's column offsets are
// computed once and gathered for every row. Values and layout are those of
// the explicit Im2Col matrix; only addressing differs.
func packBIm2Col(bp, pad []float32, g *convGeom, k0, kb, j0, jw, nr int) {
	row0, kh0, kw0 := g.rowOff(k0)
	y := j0 / g.ow
	x := j0 - y*g.ow
	rowBase := y * g.sh * g.wp
	var colOff [maxNR]int
	off := 0
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		run := g.sw == 1 && x+tw <= g.ow
		for c := 0; c < tw; c++ {
			colOff[c] = rowBase + x*g.sw
			x++
			if x == g.ow {
				x = 0
				rowBase += g.sh * g.wp
			}
		}
		if run && tw == 8 && im2colRuns8(bp[off:off+8*kb], pad, g, row0, kh0, kw0, colOff[0], kb) {
			off += 8 * kb
			continue
		}
		ro, kh, kw := row0, kh0, kw0
		for p := 0; p < kb; p++ {
			dst := bp[off : off+nr]
			if run {
				copy(dst[:tw], pad[ro+colOff[0]:])
			} else {
				for c := 0; c < tw; c++ {
					dst[c] = pad[ro+colOff[c]]
				}
			}
			for c := tw; c < nr; c++ {
				dst[c] = 0
			}
			off += nr
			ro, kh, kw = g.nextRow(ro, kh, kw)
		}
	}
}

// packBIm2ColT packs the transposed im2col matrix (reduction over spatial
// positions, columns over CI·KH·KW), the B operand of the weight-gradient
// GEMM dW = dY·colsᵀ — again straight from the padded image: a strip's nr
// row offsets are computed once, then every spatial position gathers nr
// values at its column offset. On the 8-wide variant, eight positions of
// one output row (unit stride) are one 8×8 block of contiguous image runs,
// moved by a single AVX2 transpose.
func packBIm2ColT(bp, pad []float32, g *convGeom, k0, kb, j0, jw, nr int) {
	ro, kh, kw := g.rowOff(j0)
	y0 := k0 / g.ow
	x0 := k0 - y0*g.ow
	var rowOff [maxNR]int
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		for c := 0; c < tw; c++ {
			rowOff[c] = ro
			ro, kh, kw = g.nextRow(ro, kh, kw)
		}
		x, rowBase := x0, y0*g.sh*g.wp
		co := rowBase + x*g.sw
		off := t0 * kb
		for p := 0; p < kb; {
			step := 1
			if tw == 8 && g.sw == 1 && x+8 <= g.ow && p+8 <= kb && transpose8(bp[off:off+64], pad, &rowOff, co) {
				// eight positions of one output row in one 8×8 transpose
				step = 8
			} else {
				dst := bp[off : off+nr]
				for c := 0; c < tw; c++ {
					dst[c] = pad[rowOff[c]+co]
				}
				for c := tw; c < nr; c++ {
					dst[c] = 0
				}
			}
			p += step
			off += step * nr
			x += step
			co += step * g.sw
			if x == g.ow {
				x = 0
				rowBase += g.sh * g.wp
				co = rowBase
			}
		}
	}
}

// gemmRange computes the output sub-rectangle rows [s0·mr, min(m, s1·mr)) ×
// cols [j0, j1) of C = A·B from packed A and a B-panel source. Per output
// element the kc blocks are visited in ascending order and accumulated
// exactly as the reference loops do, so any rectangle decomposition (the
// parallel dispatch unit) is bitwise invisible. dst is fully overwritten in
// the covered rectangle.
//
// B panels are consumed in a fixed sequence — column blocks ascending, k
// ranges ascending within each — flattened into one panel index. An im2col
// panel without a pack-ahead pipeline (ov == nil) spans all of k whenever
// that fits gemmPanelMax: each pack call walks the image's index map from
// scratch, so the image is packed once per column block, and the
// micro-kernel walks each tile's kc blocks in ascending order while the C
// tile stays in L1. A matrix panel is a plain copy with no such setup and
// spans one kc block, keeping its buffer small for small-M passes. When ov is non-nil (the parallel matmul path), the next
// panel in the sequence is packed on a pool worker while the current one
// feeds the micro-kernel, double-buffered. All modes produce identical
// bits: a panel's contents are a pure function of its coordinates (see
// bPanelSrc.pack), and each output element sees the same kc blocks in the
// same order whoever packed them and however they were grouped.
func gemmRange(dst []float32, n int, pa *packedA, bsrc *bPanelSrc, s0, s1, j0, j1 int, ov *packAhead) {
	m, k, kc := pa.m, pa.k, pa.kc
	mk := pa.mk
	mr, nr := mk.mr, mk.nr
	if j1 > j0 && k == 0 {
		// no k-partials: the reference zeroes the output
		iEnd := min(m, s1*mr)
		for i := s0 * mr; i < iEnd; i++ {
			zeroFill(dst[i*n+j0 : i*n+j1])
		}
		return
	}
	if j1 <= j0 || s1 <= s0 {
		return
	}
	panelCols := ((min(gemmNC, j1-j0) + nr - 1) / nr) * nr
	kspan := kc
	if ov == nil && bsrc.kind >= bIm2Col && panelCols*k <= gemmPanelMax {
		kspan = k
	}
	panelElems := panelCols * min(kspan, k)
	nk := (k + kspan - 1) / kspan
	njc := (j1 - j0 + gemmNC - 1) / gemmNC
	npanels := njc * nk

	var bufs [2][]float32
	bufs[0] = pool.GetUninit(panelElems)
	if ov != nil && npanels > 1 {
		bufs[1] = pool.GetUninit(panelElems)
	} else {
		ov = nil
	}

	// desc derives panel p's coordinates from the flattened index — the same
	// (jc outer, k range inner) order the nested loops used to walk.
	desc := func(p int) (jc, jcw, kp, kpb int) {
		jc = j0 + (p/nk)*gemmNC
		jcw = min(gemmNC, j1-jc)
		kp = (p % nk) * kspan
		kpb = min(kspan, k-kp)
		return
	}
	if ov != nil {
		jc, jcw, kp, kpb := desc(0)
		ov.submit(0, panelJob{dst: bufs[0], src: *bsrc, k0: kp, kb: kpb, j0: jc, jw: jcw, nr: nr})
	}

	// Edge-tile scratch comes from the arena, not the stack: it is passed to
	// the micro-kernel through a func value, and escape analysis would heap-
	// allocate a stack array on every call through that indirection.
	tile := pool.GetUninit(maxMR * maxNR)
	for p := 0; p < npanels; p++ {
		jc, jcw, kp, kpb := desc(p)
		slot := 0
		if ov != nil {
			slot = p & 1
		}
		bp := bufs[slot]
		if ov != nil {
			ov.await(slot)
			if p+1 < npanels {
				// The other buffer was consumed at panel p-1 (compute below is
				// synchronous), so packing panel p+1 into it now overlaps with
				// this panel's micro-kernel loop.
				njc2, njcw2, nkp2, nkpb2 := desc(p + 1)
				ov.submit(slot^1, panelJob{dst: bufs[slot^1], src: *bsrc, k0: nkp2, kb: nkpb2, j0: njc2, jw: njcw2, nr: nr})
			}
		} else {
			bsrc.pack(bp, kp, kpb, jc, jcw, nr)
		}

		for sc := s0; sc < s1; sc += gemmMCStrips {
			scEnd := min(s1, sc+gemmMCStrips)
			for t := 0; t*nr < jcw; t++ {
				jt := jc + t*nr
				cols := min(nr, jcw-t*nr)
				for s := sc; s < scEnd; s++ {
					i0 := s * mr
					full := i0+mr <= m && cols == nr
					rows := min(mr, m-i0)
					for k0 := kp; k0 < kp+kpb; k0 += kc {
						kb := min(kc, k-k0)
						add := k0 > 0
						ap := pa.buf[k0*pa.mtiles*mr+s*kb*mr:]
						bpk := bp[(t*kpb+k0-kp)*nr:]
						if full {
							mk.fn(dst, i0*n+jt, n, ap, bpk, kb, add)
							continue
						}
						// edge tile: compute the full register tile into
						// scratch, then store/add only the valid region —
						// padded lanes (zero-filled operands) never reach dst
						mk.fn(tile, 0, nr, ap, bpk, kb, false)
						if add {
							for r := 0; r < rows; r++ {
								row := dst[(i0+r)*n+jt:]
								for c := 0; c < cols; c++ {
									row[c] += tile[r*nr+c]
								}
							}
						} else {
							for r := 0; r < rows; r++ {
								row := dst[(i0+r)*n+jt:]
								for c := 0; c < cols; c++ {
									row[c] = tile[r*nr+c]
								}
							}
						}
					}
				}
			}
		}
		if ov != nil {
			ov.consumed(slot)
		}
	}
	pool.Put(tile)
	pool.Put(bufs[0])
	if bufs[1] != nil {
		pool.Put(bufs[1])
	}
}

// gemmTask is one parallel GEMM: the output rectangle split into contiguous
// runs of row strips (byRows, tall matrices) or column strips (wide ones).
// Tasks are pooled and hold their operands by value, so a dispatch
// allocates nothing.
type gemmTask struct {
	dst    []float32
	n      int
	pa     packedA
	bsrc   bPanelSrc
	byRows bool
}

var gemmTasks = sync.Pool{New: func() any { return new(gemmTask) }}

// runChunk computes one unit with its own ascending kc loop, packing its own
// B panels — overlapped with compute via a packAhead pipeline when helpers
// are available — so units are disjoint in their outputs and bitwise
// independent of the worker count.
func (g *gemmTask) runChunk(lo, hi int) {
	ov := takePackAhead()
	if g.byRows {
		gemmRange(g.dst, g.n, &g.pa, &g.bsrc, lo, hi, 0, g.n, ov)
	} else {
		nr := g.pa.mk.nr
		gemmRange(g.dst, g.n, &g.pa, &g.bsrc, 0, g.pa.mtiles, lo*nr, min(g.n, hi*nr), ov)
	}
	putPackAhead(ov)
}

// gemmParallel dispatches whole cache blocks of the output rectangle to the
// worker pool: contiguous runs of row strips when the matrix is tall,
// contiguous runs of column strips when it is wide.
//
//easyscale:hotpath
func gemmParallel(dst []float32, n int, pa *packedA, bsrc *bPanelSrc) {
	g := gemmTasks.Get().(*gemmTask)
	g.dst, g.n, g.pa, g.bsrc = dst, n, *pa, *bsrc
	units := pa.mtiles
	g.byRows = pa.m >= n
	if !g.byRows {
		units = (n + pa.mk.nr - 1) / pa.mk.nr
	}
	chunk, nchunks := chunksFor(units, maxWorkers())
	parallelChunks(units, chunk, nchunks, g)
	*g = gemmTask{} // drop the references to the caller's buffers
	gemmTasks.Put(g)
}

// normKC normalizes the accumulation block: kc <= 0 or kc > k means a single
// block over all of k — the same rule every reference kernel applies.
func normKC(kc, k int) int {
	if kc <= 0 || kc > k {
		return k
	}
	return kc
}

// matMulTiled is the blocked C = A·B, bitwise identical to matMulRef.
func matMulTiled(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	pa := packA(a, m, k, kc, k, 1)
	bsrc := bPanelSrc{kind: bRowMajor, data: b, ld: n}
	gemmRange(dst, n, &pa, &bsrc, 0, pa.mtiles, 0, n, nil)
	pa.release()
}

// matMulATBTiled is the blocked C = Aᵀ·B, bitwise identical to matMulATBRef.
func matMulATBTiled(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	pa := packA(a, m, k, kc, 1, m)
	bsrc := bPanelSrc{kind: bRowMajor, data: b, ld: n}
	gemmRange(dst, n, &pa, &bsrc, 0, pa.mtiles, 0, n, nil)
	pa.release()
}

// matMulABTTiled is the blocked C = A·Bᵀ, bitwise identical to matMulABTRef.
func matMulABTTiled(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	pa := packA(a, m, k, kc, k, 1)
	bsrc := bPanelSrc{kind: bColMajor, data: b, ld: k}
	gemmRange(dst, n, &pa, &bsrc, 0, pa.mtiles, 0, n, nil)
	pa.release()
}
