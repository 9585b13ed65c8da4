//go:build !amd64

package nn

// Non-amd64 builds run the generic kernel set, which the vector sets are
// bit-identical to by construction. The stubs below keep the callers
// compiling; kernels is always genericKernels here, so none is ever reached.

const hostKernels = genericKernels

// noSIMD is every kernel stub's body.
func noSIMD() { panic("nn: no simd") } //lint:allow panicfree unreachable: only the generic kernel set runs on this platform

func inferTileAVX2(w, bias, x, y *float64, in, out int)   { noSIMD() }
func inferTileAVX512(w, bias, x, y *float64, in, out int) { noSIMD() }
func laneTransposeAVX512(src, dst *float64, blocks, srcRow, srcBlock, dstRow, dstBlock int) {
	noSIMD()
}
func dxTileAVX2(w, dy, gx *float64, in, out int)   { noSIMD() }
func dxTileAVX512(w, dy, gx *float64, in, out int) { noSIMD() }
func gradWAVX2(gw, dy, x *float64, gStride, xStride, rows, in, cols, nOut int, scale float64, shard int) {
	noSIMD()
}
func gradWAVX512(gw, dy, x *float64, gStride, xStride, rows, in, cols, nOut int, scale float64, shard int) {
	noSIMD()
}
func adamStepASM(w, grad, m, v *float64, n int, b1, omb1, b2, omb2, c1, c2, rate, eps float64) {
	noSIMD()
}
func leakyForwardASM(x, y *float64, n int, alpha float64)         { noSIMD() }
func leakyBackwardASM(x, grad, gx *float64, n int, alpha float64) { noSIMD() }
