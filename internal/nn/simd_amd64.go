//go:build amd64

package nn

// AVX2 kernels for the batched Dense layer. The vector lanes run ACROSS
// samples (or across k for the weight-gradient kernel), never across a single
// sample's reduction, so every lane performs exactly the scalar code's
// sequence of individually-rounded multiplies and adds — results are
// bit-identical to the pure-Go kernels (covered by TestSIMDMatchesGeneric).
// VMULPD+VADDPD are used instead of FMA on purpose: the Go compiler does not
// fuse multiply-add on amd64, and fusing here would change rounding.

// simdAvailable reports hardware+OS support for the AVX2 kernels;
// avx512Available, for the AVX-512 inference tile kernel as well.
var simdAvailable, avx512Available = x86Features(cpuidWords())

// simdEnabled gates the kernels at runtime and avx512Enabled picks
// InferBatch's tile kernel; tests flip them to prove the generic and vector
// paths, and the two tile kernels, agree bit-for-bit.
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
// state in XCR0; the AVX-512 tile kernel needs that plus AVX-512F in leaf 7
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

// denseForwardBlockASM computes, for one block of four samples (one per
// lane), out[o] = bias[o] + Σ_k w[o*in+k] * x[k] for o in [0, out),
// accumulating in ascending k order per lane. x is the first of four sample
// rows xStride elements apart, gathered into the k-major scratch tile xt; y
// is the first of four output rows yStride elements apart, written through
// an in-register transpose.
//
//go:noescape
func denseForwardBlockASM(w, bias, x, y *float64, xStride, yStride, in, out int, xt *float64)

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

// denseBackwardDXBlockASM computes, for one block of four samples, gx[k] =
// Σ_o dy[o] * w[o*in+k] from +0 in ascending o order per (k, sample). dy and
// gx are the first of four rows gStride / gxStride elements apart; gvt is a
// 4*out scratch tile. Every gx element is written exactly once.
//
//go:noescape
func denseBackwardDXBlockASM(w, dy, gx *float64, gStride, gxStride, in, out int, gvt *float64)

// denseGradWBlockASM assigns gw[o*in+k] = scale · Σ_shards (Σ_rows dy[r][o] *
// x[r][k]) for o in [0, nOut) and k in [0, in&^3): rows in order from +0
// within each shard of `shard` rows, shards in ascending order, scale last
// (the caller handles the k tail and the bias). gw is the first neuron's
// gradient row (stride in), dy its entry in output-gradient row 0 (row stride
// gStride), x input row 0 (row stride xStride). nOut must be at least 2.
//
//go:noescape
func denseGradWBlockASM(gw, dy, x *float64, gStride, xStride, rows, in, nOut int, scale float64, shard int)

// adamStepASM applies the Adam update to the first n&^3 elements of w/g/m/v
// (the caller handles the tail). VDIVPD and VSQRTPD are IEEE correctly
// rounded — identical to scalar / and math.Sqrt — so each lane is
// bit-identical to the scalar update loop.
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
