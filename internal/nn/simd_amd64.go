//go:build amd64

package nn

// AVX2 kernels for the batched Dense layer. The vector lanes run ACROSS
// samples (or across k for the weight-gradient kernel), never across a single
// sample's reduction, so every lane performs exactly the scalar code's
// sequence of individually-rounded multiplies and adds — results are
// bit-identical to the pure-Go kernels (covered by TestSIMDMatchesGeneric).
// VMULPD+VADDPD are used instead of FMA on purpose: the Go compiler does not
// fuse multiply-add on amd64, and fusing here would change rounding.

// simdAvailable reports hardware+OS support for the AVX2 kernels.
var simdAvailable = cpuidHasAVX2()

// simdEnabled gates the kernels at runtime; tests flip it to prove the
// generic and vector paths agree bit-for-bit.
var simdEnabled = simdAvailable

// cpuidHasAVX2 checks CPUID for AVX2 and XGETBV for OS-enabled YMM state.
func cpuidHasAVX2() bool

// denseForwardBlockASM computes, for one block of four samples (one per
// lane), out[o] = bias[o] + Σ_k w[o*in+k] * x[k] for o in [0, out),
// accumulating in ascending k order per lane. With xStride != 0, x is the
// first of four sample rows xStride elements apart and the kernel gathers
// them into the k-major tile xt itself; with xStride == 0, x already is that
// tile (xt is unused). With yStride != 0, y is the first of four output rows
// and results are transposed in registers and stored straight into them;
// with yStride == 0, y is an o-major tile — the layout the next layer's
// kernel reads, which is how InferBatch chains layers without leaving it.
//
//go:noescape
func denseForwardBlockASM(w, bias, x, y *float64, xStride, yStride, in, out int, xt *float64)

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
