//go:build !amd64

package nn

// Non-amd64 builds use the pure-Go batched kernels, which the SIMD paths are
// bit-identical to by construction.

var simdAvailable = false
var simdEnabled = false

func denseForwardBlockASM(w, bias, x, y *float64, xStride, yStride, in, out int, xt *float64) {
	panic("nn: no simd") //lint:allow panicfree unreachable: simdEnabled is false on this platform
}
func denseBackwardDXBlockASM(w, dy, gx *float64, gStride, gxStride, in, out int, gvt *float64) {
	panic("nn: no simd") //lint:allow panicfree unreachable: simdEnabled is false on this platform
}
func denseGradWBlockASM(gw, dy, x *float64, gStride, xStride, rows, in, nOut int, scale float64, shard int) {
	panic("nn: no simd") //lint:allow panicfree unreachable: simdEnabled is false on this platform
}

func adamStepASM(w, grad, m, v *float64, n int, b1, omb1, b2, omb2, c1, c2, rate, eps float64) {
	panic("nn: no simd") //lint:allow panicfree unreachable: simdEnabled is false on this platform
}

func leakyForwardASM(x, y *float64, n int, alpha float64) { panic("nn: no simd") } //lint:allow panicfree unreachable: simdEnabled is false on this platform
func leakyBackwardASM(x, grad, gx *float64, n int, alpha float64) {
	panic("nn: no simd") //lint:allow panicfree unreachable: simdEnabled is false on this platform
}
