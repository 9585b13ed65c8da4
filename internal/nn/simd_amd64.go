//go:build amd64

package nn

// AVX2 and AVX-512 kernels for the batched Dense layer, Adam and the
// activations. The Dense forward and dX kernels run one 8-sample lane tile
// — InferBatch's block, which is also a training shard — one sample per
// lane; the weight-gradient kernels lay their lanes across input columns.
// No lane ever runs across a single sample's reduction, so every lane
// performs exactly the scalar code's sequence of individually-rounded
// multiplies and adds — results are bit-identical to the pure-Go kernels
// (covered by TestSIMDMatchesGeneric). VMULPD+VADDPD are used instead of
// FMA on purpose: the Go compiler does not fuse multiply-add on amd64, and
// fusing here would change rounding.

// simdAvailable reports hardware+OS support for the AVX2 kernels;
// avx512Available, for the AVX-512 tile and weight-gradient kernels as well.
var simdAvailable, avx512Available = x86Features(cpuidWords())

// simdEnabled gates the kernels at runtime and avx512Enabled picks the
// AVX-512 ones; the tests flip them to prove the generic and vector paths,
// and the two vector sets, agree bit-for-bit.
var (
	simdEnabled   = simdAvailable
	avx512Enabled = avx512Available
)

// cpuidWords returns the raw words x86Features decides from: CPUID leaf 0's
// EAX (the highest basic leaf), leaf 1's ECX, leaf 7 subleaf 0's EBX, and
// XCR0's low word (0 when the OS has not enabled XGETBV).
func cpuidWords() (maxLeaf, ecx1, ebx7, xcr0 uint32)

// x86Features decides which kernel sets may run. Each needs the CPU to
// report its instructions and the OS to save the registers they use:
// AVX2 needs AVX and OSXSAVE in leaf 1, AVX2 in leaf 7, and XMM and YMM
// state in XCR0; the AVX-512 kernels need that plus AVX-512F in leaf 7
// and opmask, ZMM0–15 upper-half and ZMM16–31 state in XCR0. Leaf 7's word
// is meaningless when leaf 0 reports a highest leaf below 7.
func x86Features(maxLeaf, ecx1, ebx7, xcr0 uint32) (avx2, avx512 bool) {
	const (
		ecx1OSXSAVE = 1 << 27
		ecx1AVX     = 1 << 28
		ebx7AVX2    = 1 << 5
		ebx7AVX512F = 1 << 16
		xcr0YMM     = 1<<1 | 1<<2        // XMM, YMM upper halves
		xcr0ZMM     = 1<<5 | 1<<6 | 1<<7 // opmask, ZMM0–15 upper halves, ZMM16–31
	)
	if maxLeaf < 7 || ecx1&(ecx1OSXSAVE|ecx1AVX) != ecx1OSXSAVE|ecx1AVX || xcr0&xcr0YMM != xcr0YMM {
		return false, false
	}
	avx2 = ebx7&ebx7AVX2 != 0
	return avx2, avx2 && ebx7&ebx7AVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
}

// inferTileAVX2 and inferTileAVX512 run one Dense layer over InferBatch's
// 8-sample lane tile: x is k-major (x[k*8+lane], in rows of eight), y is
// written o-major (y[o*8+lane], out rows) — the layout the next layer reads
// as its x. Every lane computes bias + Σ w·x in ascending k with a separate
// multiply and add, so each is bit-identical to the scalar Forward and the
// two kernels to each other; inferTileAVX512 holds a neuron's eight lanes in
// one zmm register, inferTileAVX2 in two ymm halves.
//
//go:noescape
func inferTileAVX2(w, bias, x, y *float64, in, out int)

//go:noescape
func inferTileAVX512(w, bias, x, y *float64, in, out int)

// laneTransposeAVX512 transposes `blocks` 8×8 blocks of doubles: block j
// reads eight rows of eight at src + j·srcBlock (rows srcRow elements apart)
// and writes its columns as eight rows at dst + j·dstBlock (dstRow apart).
// gatherLanes and scatterLanes move a full shard between rows and its lane
// tile with it.
//
//go:noescape
func laneTransposeAVX512(src, dst *float64, blocks, srcRow, srcBlock, dstRow, dstBlock int)

// dxTileAVX2 and dxTileAVX512 run one Dense layer's dX over the same tile,
// backwards: dy is o-major (dy[o*8+lane], out rows), gx is written k-major
// (gx[k*8+lane], in rows). Every lane computes Σ_o w[o*in+k]·dy[o*8+lane]
// from +0 in ascending o with a separate multiply and add — the generic
// batchDenseBackward's per-sample sequence — with the weights broadcast from
// W's rows (in elements apart); dxTileAVX512 holds a column's eight lanes in
// one zmm register, dxTileAVX2 in two ymm halves.
//
//go:noescape
func dxTileAVX2(w, dy, gx *float64, in, out int)

//go:noescape
func dxTileAVX512(w, dy, gx *float64, in, out int)

// gradWAVX2 assigns gw[o*in+k] = scale · Σ_shards (Σ_rows dy[r][o] *
// x[r][k]) for o in [0, nOut) and k in [0, cols&^3): rows in order from +0
// within each shard of `shard` rows, shards in ascending order, scale last
// (the caller handles the column tail and the bias). gw is the first
// neuron's gradient row (stride in), dy its entry in output-gradient row 0
// (row stride gStride), x input row 0 (row stride xStride). nOut must be at
// least 2. gradWAVX512 computes the same sums over k in [0, cols&^31).
//
//go:noescape
func gradWAVX2(gw, dy, x *float64, gStride, xStride, rows, in, cols, nOut int, scale float64, shard int)

//go:noescape
func gradWAVX512(gw, dy, x *float64, gStride, xStride, rows, in, cols, nOut int, scale float64, shard int)

// adamStepASM applies the Adam update to the first n&^3 elements of w/g/m/v
// (the caller handles the tail). VDIVPD and VSQRTPD are IEEE correctly
// rounded — identical to scalar / and math.Sqrt — so each lane is
// bit-identical to the scalar update loop. It skips the division by c1 once
// c1 is exactly 1.0.
//
//go:noescape
func adamStepASM(w, grad, m, v *float64, n int, b1, omb1, b2, omb2, c1, c2, rate, eps float64)

// Elementwise activation kernels over the first n&^3 elements (callers handle
// the tail). Each lane applies the identical correctly-rounded select/multiply
// as the scalar branch, so outputs are bit-identical.
//
//go:noescape
func leakyForwardASM(x, y *float64, n int, alpha float64)

//go:noescape
func leakyBackwardASM(x, grad, gx *float64, n int, alpha float64)
