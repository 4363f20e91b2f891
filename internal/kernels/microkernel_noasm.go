//go:build !amd64

package kernels

// Off amd64 the pure-Go micro-kernel is the only variant; the forced-ISA
// environment switches are accepted but can only name "generic".

var mkVariants = []*mkDesc{mkGenericDesc}

func cpuFeatures() []string { return nil }

func init() { curMK.Store(mkGenericDesc) }

// transpose8 has no vector body off amd64 (where no variant is 8 wide).
func transpose8(dst, src []float32, offs *[maxNR]int, co int) bool { return false }

// im2colRuns8 has no vector body off amd64; packBIm2Col copies row by row.
func im2colRuns8(dst, pad []float32, g *convGeom, ro, kh, kw, co, kb int) bool { return false }
