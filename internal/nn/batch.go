package nn

import (
	"fmt"
	"math"
)

// shardRows is the fixed shard granularity of batched training: the forward,
// loss and backward passes walk the batch shardRows rows at a time (a shard's
// activations stay cache-resident across the layer stack), the batch loss is
// the ascending sum of per-shard sums, and parameter gradients are summed
// shard by shard in ascending order (see denseGradW). The partition depends
// only on the batch size; it is the summation order the golden bits pin. It
// is InferBatch's block height, so a shard runs as one lane tile.
const shardRows = inferLanes

// gradBlockOuts is how many output neurons of one Dense layer a denseGradW
// call covers (its register-resident bias accumulators are sized to it).
// Every weight gradient is computed whole by exactly one call, so the
// blocking never changes bits.
const gradBlockOuts = 32

// kernelSet names one implementation of the batched kernels: the lane-tile
// Dense forward and dX, the weight gradient, Adam and the activations.
// Every set computes the same bits; they differ only in speed.
type kernelSet int

const (
	genericKernels kernelSet = iota // pure Go, on every platform
	avx2Kernels                     // AVX2 (amd64)
	avx512Kernels                   // AVX-512 tile, transpose and weight-gradient kernels, AVX2 for the rest
)

// kernels is the set every batched pass and InferBatch run: the host's
// fastest, hostKernels. The tests switch it to show the sets agree.
var kernels = hostKernels

// scratch is the per-network reusable arena for batched compute: full-batch
// activation matrices for every layer boundary, and — once a backward pass
// has run — one gradient matrix per boundary, kept until the
// parameter-gradient pass has read them. All buffers grow monotonically and
// are reused, so the steady-state train loop performs zero heap allocations.
// Forward-only users never pay for the gradient side.
type scratch struct {
	net *Network

	widths []int // layer-boundary widths for the current input width
	acts   []Mat // acts[l] is the input to layer l; acts[len] the output (see tileStored for the tile layout)
	maxW   int
	rows   int

	// grads[l] is dLoss/d acts[l] for the current batch, backed by
	// gradBufs[l] — except the last, the loss gradient itself, which is the
	// caller's matrix for BatchBackward and lossG for a train step.
	gradBufs []Mat
	grads    []Mat
	lossG    Mat

	tmp []float64 // maxW: denseGradW partial-sum row
	// tile is the lane scratch, three inferLanes*maxW lane tiles: the
	// two a block or shard ping-pongs between across the layers, and the
	// one the backward pass gathers an activation stored as rows into.
	tile []float64

	// fwdOK records whether the activation matrices hold a full
	// BatchForward result for the current row count; InferBatch clears it
	// because its tile-resident pass never materializes them.
	fwdOK bool
}

// ensureScratch sizes the arena for a rows×inCols batch, building it on first
// use. The network topology must not change once batched training has started.
//
//lint:allow hotpathalloc first-batch arena construction; every later batch reuses or grows the same scratch
func (n *Network) ensureScratch(rows, inCols int) *scratch {
	sc := n.sc
	if sc == nil {
		sc = &scratch{net: n}
		sc.widths = make([]int, len(n.Layers)+1)
		sc.acts = make([]Mat, len(n.Layers)+1)
		sc.gradBufs = make([]Mat, len(n.Layers))
		sc.grads = make([]Mat, len(n.Layers)+1)
		n.sc = sc
	}

	// Recompute boundary widths for this input width (cheap integer walk);
	// mismatched Dense inputs are programmer errors, caught here once so the
	// kernels can skip per-row checks.
	w := inCols
	sc.widths[0] = w
	sc.maxW = w
	for li, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			if w != d.In {
				panic(fmt.Sprintf("nn: batch input width %d does not match Dense input %d at layer %d", w, d.In, li)) //lint:allow panicfree shape mismatch is a programmer error caught before training starts
			}
			w = d.Out
		}
		sc.widths[li+1] = w
		if w > sc.maxW {
			sc.maxW = w
		}
	}

	sc.rows = rows
	for i := range sc.acts {
		r := rows
		if sc.tileStored(i) {
			r = (rows + inferLanes - 1) &^ (inferLanes - 1)
		}
		sc.acts[i] = sc.acts[i].Resized(r, sc.widths[i])
	}
	if len(sc.tmp) < sc.maxW {
		sc.tmp = make([]float64, sc.maxW)
		sc.tile = make([]float64, 3*inferLanes*sc.maxW)
	}
	return sc
}

// sizeGrads shapes the per-boundary gradient matrices for the current batch
// below lossGrad, the gradient at the network's output.
func (sc *scratch) sizeGrads(lossGrad Mat) {
	for i := range sc.gradBufs {
		sc.gradBufs[i] = sc.gradBufs[i].Resized(sc.rows, sc.widths[i])
		sc.grads[i] = sc.gradBufs[i]
	}
	sc.grads[len(sc.gradBufs)] = lossGrad
}

// forwardTile runs the shard at row r0 through every layer on the lane
// tile: the shard is gathered once (padding lanes zeroed) and stays in lane
// tiles across the stack, as an InferBatch block does. Each boundary is
// stored in its own layout (see tileStored): an activation layer's input is
// written by the kernel straight into its shard tile, every other
// boundary's real rows are stored back into the row-major matrix the
// weight-gradient pass reads.
func (sc *scratch) forwardTile(r0 int) {
	q := inferLanes * sc.maxW
	a, b := sc.tile[:q], sc.tile[q:2*q]
	cur := a
	gatherLanes(cur, sc.acts[0], r0)
	for li, l := range sc.net.Layers {
		dst := b
		if &cur[0] == &b[0] {
			dst = a
		}
		stored := sc.tileStored(li + 1)
		if stored {
			dst = sc.shardTile(li+1, r0, nil)
		}
		tileForward(l, cur, dst, inferLanes*sc.widths[li])
		if !stored {
			scatterLanes(sc.acts[li+1], r0, dst)
		}
		cur = dst
	}
}

// tileStored reports whether boundary l is kept as shard tiles — shard s's
// lane tile at rows [8s, 8s+8) of its matrix, which is padded to whole
// shards — rather than as rows. That is the input of an activation layer,
// which only that layer's backward reads; the batch input and output and
// every Dense input (the weight-gradient pass reads it) stay row-major.
// Keeping it as tiles saves one scatter and one gather per activation layer
// and shard: storing it as rows made adapt_drift's period_mean_ms 3.8 %
// slower (DESIGN.md §10).
func (sc *scratch) tileStored(l int) bool {
	if l == 0 || l == len(sc.net.Layers) {
		return false
	}
	_, dense := sc.net.Layers[l].(*Dense)
	return !dense
}

// shardTile returns boundary l's activations for the shard at row r0 as a
// lane tile: a view of the boundary's storage when it is tile-stored,
// otherwise its rows gathered into buf.
func (sc *scratch) shardTile(l, r0 int, buf []float64) []float64 {
	m := sc.acts[l]
	if sc.tileStored(l) {
		return m.Data[r0*m.Cols : (r0+inferLanes)*m.Cols]
	}
	gatherLanes(buf, m, r0)
	return buf
}

// backwardTile propagates the loss gradient of the shard at row r0 back
// through the stack on the lane tile: the shard's output gradient is
// gathered once and stays in the tile down the stack — Dense layers run
// the dX tile kernel, LeakyReLU and Tanh read the activation tile
// shardTile gives them — and a boundary's real rows are stored back only
// where something reads them row-major: the output gradient of a Dense
// layer (the weight-gradient pass) and dLoss/dInput (the caller). It
// computes no parameter gradient itself.
func (sc *scratch) backwardTile(r0 int) {
	q := inferLanes * sc.maxW
	cur, nxt, at := sc.tile[:q], sc.tile[q:2*q], sc.tile[2*q:]
	layers := sc.net.Layers
	gatherLanes(cur, sc.grads[len(layers)], r0)
	for li := len(layers) - 1; li >= 0; li-- {
		n := inferLanes * sc.widths[li+1]
		switch t := layers[li].(type) {
		case *Dense:
			dxTile(t, cur, nxt)
			cur, nxt = nxt, cur
		case *LeakyReLU:
			x := sc.shardTile(li, r0, at)
			if kernels == genericKernels {
				for i, g := range cur[:n] {
					if x[i] >= 0 {
						cur[i] = g
					} else {
						cur[i] = t.Alpha * g
					}
				}
			} else {
				leakyBackwardASM(&x[0], &cur[0], &cur[0], n, t.Alpha)
			}
		case *Tanh:
			y := sc.shardTile(li+1, r0, at)
			for i, g := range cur[:n] {
				cur[i] = g * (1 - float64(y[i]*y[i]))
			}
		}
		if li == 0 {
			scatterLanes(sc.grads[0], r0, cur)
		} else if _, ok := layers[li-1].(*Dense); ok {
			scatterLanes(sc.grads[li], r0, cur)
		}
	}
}

// tileForward runs layer l over a lane tile: x holds its input, n values
// for an activation layer, and y receives its output. A Dense layer writes
// y o-major (y[o*8+lane]), which is the k-major input of the next layer;
// an activation layer may run in place (y = x), a Dense layer may not.
// Every lane computes bias + Σ w·x in ascending k, Dense.Forward's rounding
// sequence for its sample, on every kernel set.
func tileForward(l Layer, x, y []float64, n int) {
	switch t := l.(type) {
	case *Dense:
		w, bias := t.Weight.W, t.Bias.W
		switch kernels {
		case avx512Kernels:
			inferTileAVX512(&w[0], &bias[0], &x[0], &y[0], t.In, t.Out)
		case avx2Kernels:
			inferTileAVX2(&w[0], &bias[0], &x[0], &y[0], t.In, t.Out)
		default:
			for o := 0; o < t.Out; o++ {
				b := bias[o]
				s0, s1, s2, s3, s4, s5, s6, s7 := b, b, b, b, b, b, b, b
				for k, wv := range w[o*t.In : (o+1)*t.In] {
					c := (*[inferLanes]float64)(x[k*inferLanes:])
					s0 += float64(wv * c[0])
					s1 += float64(wv * c[1])
					s2 += float64(wv * c[2])
					s3 += float64(wv * c[3])
					s4 += float64(wv * c[4])
					s5 += float64(wv * c[5])
					s6 += float64(wv * c[6])
					s7 += float64(wv * c[7])
				}
				c := (*[inferLanes]float64)(y[o*inferLanes:])
				c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = s0, s1, s2, s3, s4, s5, s6, s7
			}
		}
	case *LeakyReLU:
		if kernels != genericKernels {
			leakyForwardASM(&x[0], &y[0], n, t.Alpha)
			return
		}
		for i, v := range x[:n] {
			if v >= 0 {
				y[i] = v
			} else {
				y[i] = t.Alpha * v
			}
		}
	case *Tanh:
		for i, v := range x[:n] {
			y[i] = math.Tanh(v)
		}
	}
}

// dxTile runs Dense d's dX over a lane tile: dy is o-major (dy[o*8+lane]),
// gx is written k-major (gx[k*8+lane]). Every lane computes
// Σ_o dy[o]·w[o*in+k] from +0 in ascending o, with no skip of exact-zero
// gradients (a +Inf or NaN weight then makes a NaN on every kernel set).
func dxTile(d *Dense, dy, gx []float64) {
	w := d.Weight.W
	switch kernels {
	case avx512Kernels:
		dxTileAVX512(&w[0], &dy[0], &gx[0], d.In, d.Out)
	case avx2Kernels:
		dxTileAVX2(&w[0], &dy[0], &gx[0], d.In, d.Out)
	default:
		for k := 0; k < d.In; k++ {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for o := 0; o < d.Out; o++ {
				wv := w[o*d.In+k]
				g := (*[inferLanes]float64)(dy[o*inferLanes:])
				s0 += float64(g[0] * wv)
				s1 += float64(g[1] * wv)
				s2 += float64(g[2] * wv)
				s3 += float64(g[3] * wv)
				s4 += float64(g[4] * wv)
				s5 += float64(g[5] * wv)
				s6 += float64(g[6] * wv)
				s7 += float64(g[7] * wv)
			}
			c := (*[inferLanes]float64)(gx[k*inferLanes:])
			c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
	}
}

// gradW runs the parameter-gradient pass over the whole batch: every p.G is
// assigned scale·Σ over the batch rows (denseGradW fixes the summation
// order), whatever it held before.
func (sc *scratch) gradW(scale float64) {
	for li, l := range sc.net.Layers {
		d, ok := l.(*Dense)
		if !ok {
			continue
		}
		for o0 := 0; o0 < d.Out; o0 += gradBlockOuts {
			denseGradW(d, sc.acts[li], sc.grads[li+1], o0, min(o0+gradBlockOuts, d.Out), scale, sc.tmp)
		}
	}
}

// BatchForward runs a whole batch through the network, returning an
// x.Rows×OutSize matrix view into the scratch arena (valid until the next
// batch operation on this network). Outputs are byte-identical to calling
// Forward row by row.
func (n *Network) BatchForward(x Mat) Mat {
	if x.Rows == 0 {
		return Mat{}
	}
	sc := n.ensureScratch(x.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		copy(sc.acts[0].Row(r), x.Row(r))
	}
	for r0 := 0; r0 < sc.rows; r0 += shardRows {
		sc.forwardTile(r0)
	}
	sc.fwdOK = true
	return sc.acts[len(sc.acts)-1]
}

// inferLanes is InferBatch's block height: one sample per lane of the
// inference tile (one zmm register per neuron, or two ymm halves).
const inferLanes = 8

// InferBatch is the forward-only inference fast path. It runs the rows in
// blocks of inferLanes samples, one per vector lane: a block is gathered
// into a k-major lane tile once, the last partial block zero-padded, and
// stays in the tile across the entire layer stack — the tile a Dense kernel
// writes (o-major) is laid out exactly as the next kernel's input (k-major),
// and the activation layers are elementwise — so only the final scalar
// output leaves it. Each lane's arithmetic runs in the scalar Forward's
// order, so out is byte-identical to it whichever kernel set runs. It writes
// each row's single output into out[r]; the network must end in one output.
// Unlike BatchForward it does not fill the activation matrices, so it
// cannot seed a BatchBackward.
func (n *Network) InferBatch(x Mat, out []float64) {
	if x.Rows == 0 {
		return
	}
	sc := n.ensureScratch(x.Rows, x.Cols)
	if sc.widths[len(sc.widths)-1] != 1 {
		panic("nn: InferBatch needs a single-output network") //lint:allow panicfree a wider head is a programmer error, like a Dense width mismatch
	}
	sc.fwdOK = false
	q := inferLanes * sc.maxW
	for r := 0; r < x.Rows; r += inferLanes {
		cur, nxt := sc.tile[:q], sc.tile[q:2*q]
		gatherLanes(cur, x, r)
		for li, l := range n.Layers {
			dst := cur
			if _, dense := l.(*Dense); dense {
				dst, nxt = nxt, cur
			}
			tileForward(l, cur, dst, inferLanes*sc.widths[li])
			cur = dst
		}
		copy(out[r:min(r+inferLanes, x.Rows)], cur)
	}
}

// gatherLanes writes rows [r, r+inferLanes) of x into the k-major lane tile
// t, t[k*inferLanes+lane] = x[r+lane][k], and zeroes the lanes past x's last
// row: padding lanes then compute the network on the zero row, never on
// whatever an earlier block left there (a NaN or a subnormal costs time,
// not bits — the lanes are independent). A full block's whole 8-column
// blocks go through the AVX-512 transpose where it runs.
func gatherLanes(t []float64, x Mat, r int) {
	nr := min(inferLanes, x.Rows-r)
	if nr == inferLanes {
		k0 := 0
		if kernels == avx512Kernels && x.Cols >= inferLanes {
			k0 = x.Cols &^ (inferLanes - 1)
			laneTransposeAVX512(&x.Data[r*x.Stride], &t[0], k0/inferLanes, x.Stride, inferLanes, inferLanes, inferLanes*inferLanes)
		}
		x0 := x.Row(r)
		x1, x2, x3 := x.Row(r + 1)[:len(x0)], x.Row(r + 2)[:len(x0)], x.Row(r + 3)[:len(x0)]
		x4, x5, x6 := x.Row(r + 4)[:len(x0)], x.Row(r + 5)[:len(x0)], x.Row(r + 6)[:len(x0)]
		x7 := x.Row(r + 7)[:len(x0)]
		for k := k0; k < len(x0); k++ {
			c := (*[inferLanes]float64)(t[k*inferLanes:])
			c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = x0[k], x1[k], x2[k], x3[k], x4[k], x5[k], x6[k], x7[k]
		}
		return
	}
	for l := 0; l < nr; l++ {
		for k, v := range x.Row(r + l) {
			t[k*inferLanes+l] = v
		}
	}
	for l := nr; l < inferLanes; l++ {
		for k := 0; k < x.Cols; k++ {
			t[k*inferLanes+l] = 0
		}
	}
}

// scatterLanes is gatherLanes' inverse for the real rows: it writes lane l of
// the lane tile t to row r+l of m for every row m has, m[r+l][k] =
// t[k*inferLanes+l].
func scatterLanes(m Mat, r int, t []float64) {
	nr := min(inferLanes, m.Rows-r)
	if nr == inferLanes {
		k0 := 0
		if kernels == avx512Kernels && m.Cols >= inferLanes {
			k0 = m.Cols &^ (inferLanes - 1)
			laneTransposeAVX512(&t[0], &m.Data[r*m.Stride], k0/inferLanes, inferLanes, inferLanes*inferLanes, m.Stride, inferLanes)
		}
		y0 := m.Row(r)
		y1, y2, y3 := m.Row(r + 1)[:len(y0)], m.Row(r + 2)[:len(y0)], m.Row(r + 3)[:len(y0)]
		y4, y5, y6 := m.Row(r + 4)[:len(y0)], m.Row(r + 5)[:len(y0)], m.Row(r + 6)[:len(y0)]
		y7 := m.Row(r + 7)[:len(y0)]
		for k := k0; k < len(y0); k++ {
			c := (*[inferLanes]float64)(t[k*inferLanes:])
			y0[k], y1[k], y2[k], y3[k], y4[k], y5[k], y6[k], y7[k] = c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
		}
		return
	}
	for l := 0; l < nr; l++ {
		for k := range m.Row(r + l) {
			m.Data[(r+l)*m.Stride+k] = t[k*inferLanes+l]
		}
	}
}

// BatchBackward propagates a full batch of output gradients back through the
// network and returns dLoss/dInput as a scratch view. It owns the parameter
// gradients outright: every p.G is assigned scale·Σ_rows of that row's
// gradient — nothing is accumulated into what p.G held before, so callers
// neither zero nor rescale it. The sum runs shard by shard in ascending order
// (see denseGradW); a gradOut with no rows assigns zero. BatchForward must
// have been called immediately before with the same row count.
func (n *Network) BatchBackward(gradOut Mat, scale float64) Mat {
	if gradOut.Rows == 0 {
		for _, p := range n.params() {
			clear(p.G)
		}
		return Mat{}
	}
	sc := n.sc
	if sc == nil || !sc.fwdOK || sc.rows != gradOut.Rows || gradOut.Cols != sc.widths[len(sc.widths)-1] {
		panic("nn: BatchBackward requires a matching BatchForward") //lint:allow panicfree out-of-order batch API use is a programmer error
	}
	sc.sizeGrads(gradOut)
	for r0 := 0; r0 < sc.rows; r0 += shardRows {
		sc.backwardTile(r0)
	}
	sc.gradW(scale)
	return sc.grads[0]
}

// trainBatch is the minibatch step behind TrainBatch: copy the batch into the
// arena, run fused forward/loss/backward shard by shard, compute the averaged
// parameter gradients in one pass, and step the optimizer. Steady state
// allocates nothing.
func (sc *scratch) trainBatch(xs, ys [][]float64, loss Loss, opt *Adam) float64 {
	for i := range xs {
		copy(sc.acts[0].Row(i), xs[i])
	}
	sc.lossG = sc.lossG.Resized(sc.rows, sc.widths[len(sc.widths)-1])
	sc.sizeGrads(sc.lossG)
	out := sc.acts[len(sc.acts)-1]
	var total float64
	for r0 := 0; r0 < sc.rows; r0 += shardRows {
		r1 := min(r0+shardRows, sc.rows)
		sc.forwardTile(r0)
		var sum float64
		for r := r0; r < r1; r++ {
			sum += LossGradInto(loss, sc.lossG.Row(r), out.Row(r), ys[r])
		}
		total += sum
		sc.backwardTile(r0)
	}
	sc.fwdOK = true
	sc.gradW(1 / float64(len(xs)))
	opt.Step(sc.net.params())
	return total / float64(len(xs))
}

// denseGradW assigns the weight and bias gradients of outputs [o0, o1) of d
// for the whole batch: x holds the layer's input rows, g its output-gradient
// rows. Each gradient is
//
//	scale · (S_0 + S_1 + … )    S_s = ((0 + g_r·x_r) + g_r+1·x_r+1) + …
//
// with one partial sum S_s per shard of shardRows consecutive rows, rows
// added in order from +0, and the shards added in ascending order — the value
// sequence of per-shard gradient buffers reduced in shard order and scaled
// last, without the buffers. The kernel is output-stationary: a shard's
// partial sum lives in registers and the running total is parked in the
// gradient itself, so there is nothing to zero, reduce or rescale
// afterwards. No multiply-add is fused
// (the Go compiler does not fuse on amd64 and the assembly uses separate
// VMULPD/VADDPD), so the generic and AVX2 paths agree bit for bit. Exact-zero
// output gradients are not skipped: their products are ±0, and a partial sum
// that started at +0 is never −0, so adding them is the identity.
func denseGradW(d *Dense, x, g Mat, o0, o1 int, scale float64, tmp []float64) {
	rows, n := g.Rows, o1-o0
	// Bias: one lane per output, rows read contiguously.
	var acc, tot [gradBlockOuts]float64
	for s0 := 0; s0 < rows; s0 += shardRows {
		clear(acc[:n])
		for r := s0; r < min(s0+shardRows, rows); r++ {
			for i, gv := range g.Data[r*g.Stride+o0 : r*g.Stride+o1] {
				acc[i] += gv
			}
		}
		if s0 == 0 {
			tot = acc
			continue
		}
		for i := range tot[:n] {
			tot[i] += acc[i]
		}
	}
	for i, t := range tot[:n] {
		d.Bias.G[o0+i] = t * scale
	}

	k0 := 0
	if kernels != genericKernels && n >= 2 {
		// The AVX-512 kernel covers whole 32-column blocks, the AVX2 kernel
		// the column quads after them; the loop below finishes the 0–3
		// columns left over.
		if kernels == avx512Kernels && d.In >= 32 {
			k0 = d.In &^ 31
			gradWAVX512(&d.Weight.G[o0*d.In], &g.Data[o0], &x.Data[0], g.Stride, x.Stride, rows, d.In, k0, n, scale, shardRows)
		}
		if k1 := d.In &^ 3; k1 > k0 {
			gradWAVX2(&d.Weight.G[o0*d.In+k0], &g.Data[o0], &x.Data[k0], g.Stride, x.Stride, rows, d.In, k1-k0, n, scale, shardRows)
			k0 = k1
		}
	}
	if k0 == d.In {
		return
	}
	part := tmp[:d.In-k0]
	for o := o0; o < o1; o++ {
		gw := d.Weight.G[o*d.In+k0 : (o+1)*d.In]
		for s0 := 0; s0 < rows; s0 += shardRows {
			clear(part)
			for r := s0; r < min(s0+shardRows, rows); r++ {
				gv := g.Data[r*g.Stride+o]
				for k, xv := range x.Data[r*x.Stride+k0 : r*x.Stride+d.In] {
					part[k] += float64(gv * xv)
				}
			}
			if s0 == 0 {
				copy(gw, part)
				continue
			}
			for k, p := range part {
				gw[k] += p
			}
		}
		for k := range gw {
			gw[k] *= scale
		}
	}
}
