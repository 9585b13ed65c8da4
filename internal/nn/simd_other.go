//go:build !amd64

package nn

// Non-amd64 builds use the pure-Go batched kernels, which the SIMD paths are
// bit-identical to by construction. The stubs below keep the callers
// compiling; simdEnabled is false, so none is ever reached.

var simdAvailable, avx512Available = false, false
var simdEnabled, avx512Enabled = false, false

// noSIMD is every kernel stub's body.
func noSIMD() { panic("nn: no simd") } //lint:allow panicfree unreachable: simdEnabled is false on this platform

func denseForwardBlockASM(w, bias, x, y *float64, xStride, yStride, in, out int, xt *float64) {
	noSIMD()
}
func inferTileAVX2(w, bias, x, y *float64, in, out int)   { noSIMD() }
func inferTileAVX512(w, bias, x, y *float64, in, out int) { noSIMD() }
func denseBackwardDXBlockASM(w, dy, gx *float64, gStride, gxStride, in, out int, gvt *float64) {
	noSIMD()
}
func denseGradWBlockASM(gw, dy, x *float64, gStride, xStride, rows, in, nOut int, scale float64, shard int) {
	noSIMD()
}
func adamStepASM(w, grad, m, v *float64, n int, b1, omb1, b2, omb2, c1, c2, rate, eps float64) {
	noSIMD()
}
func leakyForwardASM(x, y *float64, n int, alpha float64)         { noSIMD() }
func leakyBackwardASM(x, grad, gx *float64, n int, alpha float64) { noSIMD() }
