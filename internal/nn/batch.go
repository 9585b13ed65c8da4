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
// only on the batch size; it is the summation order the golden bits pin.
const shardRows = 8

// gradBlockOuts is how many output neurons of one Dense layer a denseGradW
// call covers (its register-resident bias accumulators are sized to it).
// Every weight gradient is computed whole by exactly one call, so the
// blocking never changes bits.
const gradBlockOuts = 32

// scratch is the per-network reusable arena for batched compute: full-batch
// activation matrices for every layer boundary, and — once a backward pass
// has run — one gradient matrix per boundary, kept until the
// parameter-gradient pass has read them. All buffers grow monotonically and
// are reused, so the steady-state train loop performs zero heap allocations.
// Forward-only users never pay for the gradient side.
type scratch struct {
	net *Network

	widths []int // layer-boundary widths for the current input width
	acts   []Mat // acts[l] is the input to layer l; acts[len] the output
	maxW   int
	rows   int

	// grads[l] is dLoss/d acts[l] for the current batch, backed by
	// gradBufs[l] — except the last, the loss gradient itself, which is the
	// caller's matrix for BatchBackward and lossG for a train step.
	gradBufs []Mat
	grads    []Mat
	lossG    Mat

	tmp  []float64 // maxW: softmax scratch, denseGradW partial-sum row
	tile []float64 // SIMD lane tiles (2 halves of 4*maxW)

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
		sc.acts[i] = sc.acts[i].Resized(rows, sc.widths[i])
	}
	if len(sc.tmp) < sc.maxW {
		sc.tmp = make([]float64, sc.maxW)
		sc.tile = make([]float64, 8*sc.maxW)
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

// forwardRange runs rows [r0, r1) through every layer, filling the activation
// matrices. Per-sample accumulation order inside each kernel matches the
// scalar Forward path exactly, so outputs are byte-identical to it.
func (sc *scratch) forwardRange(r0, r1 int) {
	for li, l := range sc.net.Layers {
		in, out := sc.acts[li], sc.acts[li+1]
		switch t := l.(type) {
		case *Dense:
			batchDenseForward(t, in, out, r0, r1, sc.tile)
		case *LeakyReLU:
			for r := r0; r < r1; r++ {
				x, y := in.Row(r), out.Row(r)
				i := 0
				if simdEnabled && len(x) >= 4 {
					n4 := len(x) &^ 3
					leakyForwardASM(&x[0], &y[0], n4, t.Alpha)
					i = n4
				}
				for ; i < len(x); i++ {
					if v := x[i]; v >= 0 {
						y[i] = v
					} else {
						y[i] = t.Alpha * v
					}
				}
			}
		case *Tanh:
			for r := r0; r < r1; r++ {
				x, y := in.Row(r), out.Row(r)
				for i, v := range x {
					y[i] = math.Tanh(v)
				}
			}
		}
	}
}

// backwardRange propagates the loss-gradient rows [r0, r1) back through the
// stack: layer li reads grads[li+1] and writes grads[li], so after every shard
// has run, grads[0] is dLoss/dInput and each Dense layer's output gradient is
// still in place for the parameter-gradient pass. It computes no parameter
// gradient itself.
func (sc *scratch) backwardRange(r0, r1 int) {
	for li := len(sc.net.Layers) - 1; li >= 0; li-- {
		cur, dst := sc.grads[li+1], sc.grads[li]
		switch t := sc.net.Layers[li].(type) {
		case *Dense:
			batchDenseBackward(t, cur, dst, r0, r1, sc.tile)
		case *LeakyReLU:
			in := sc.acts[li]
			for r := r0; r < r1; r++ {
				x, g, gx := in.Row(r), cur.Row(r), dst.Row(r)
				i := 0
				if simdEnabled && len(g) >= 4 {
					n4 := len(g) &^ 3
					leakyBackwardASM(&x[0], &g[0], &gx[0], n4, t.Alpha)
					i = n4
				}
				for ; i < len(g); i++ {
					if x[i] >= 0 {
						gx[i] = g[i]
					} else {
						gx[i] = t.Alpha * g[i]
					}
				}
			}
		case *Tanh:
			out := sc.acts[li+1]
			for r := r0; r < r1; r++ {
				y, g, gx := out.Row(r), cur.Row(r), dst.Row(r)
				for i, gi := range g {
					t := y[i]
					gx[i] = gi * (1 - t*t)
				}
			}
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
		sc.forwardRange(r0, min(r0+shardRows, sc.rows))
	}
	sc.fwdOK = true
	return sc.acts[len(sc.acts)-1]
}

// InferBatch is the forward-only inference fast path: full 4-row blocks stay
// in the SIMD lane tile across the entire layer stack — the tile an output
// kernel writes (o-major) is laid out exactly as the next kernel's input
// (k-major), and the activation layers are elementwise, so the per-layer
// gather/scatter that BatchForward pays disappears and only the final scalar
// output leaves the tile. Each sample's arithmetic runs in the same order as
// the scalar Forward, so out is byte-identical to it. It writes each row's
// single output into out[r] and reports false — leaving out untouched — when
// this network or platform cannot run it (head wider than one output, SIMD
// unavailable, narrow layers); callers then fall back to BatchForward. Unlike
// BatchForward it does not fill the activation matrices, so it cannot seed a
// BatchBackward.
func (n *Network) InferBatch(x Mat, out []float64) bool {
	if !simdEnabled || x.Rows == 0 || len(out) < x.Rows {
		return false
	}
	sc := n.ensureScratch(x.Rows, x.Cols)
	if sc.widths[len(sc.widths)-1] != 1 {
		return false
	}
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok && d.In < 4 {
			return false
		}
	}
	sc.fwdOK = false
	tile := sc.tile
	q := len(tile) / 2
	r := 0
	for ; r+4 <= x.Rows; r += 4 {
		// The first Dense gathers the four sample rows into cur itself
		// (non-zero input stride); every later one finds its input tile
		// where the previous kernel left it.
		cur, nxt := tile[:q], tile[q:]
		src, stride := &x.Data[r*x.Stride], x.Stride
		w := x.Cols
		for _, l := range n.Layers {
			switch t := l.(type) {
			case *Dense:
				denseForwardBlockASM(&t.Weight.W[0], &t.Bias.W[0], src, &nxt[0], stride, 0, t.In, t.Out, &cur[0])
				cur, nxt = nxt, cur
				src, stride = &cur[0], 0
				w = t.Out
			case *LeakyReLU:
				leakyForwardASM(&cur[0], &cur[0], 4*w, t.Alpha)
			case *Tanh:
				for i := 0; i < 4*w; i++ {
					cur[i] = math.Tanh(cur[i])
				}
			}
		}
		out[r], out[r+1], out[r+2], out[r+3] = cur[0], cur[1], cur[2], cur[3]
	}
	for ; r < x.Rows; r++ {
		out[r] = n.Forward(x.Row(r))[0]
	}
	return true
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
	sc := n.backwardData(gradOut)
	sc.gradW(scale)
	return sc.grads[0]
}

// BatchBackwardData is BatchBackward without the parameter gradients: it only
// computes dLoss/dInput and leaves every p.G alone. The GAN generator step
// uses it to chain gradients through the frozen discriminator and encoder.
func (n *Network) BatchBackwardData(gradOut Mat) Mat {
	return n.backwardData(gradOut).grads[0]
}

func (n *Network) backwardData(gradOut Mat) *scratch {
	sc := n.sc
	if sc == nil || !sc.fwdOK || sc.rows != gradOut.Rows || gradOut.Cols != sc.widths[len(sc.widths)-1] {
		panic("nn: BatchBackward requires a matching BatchForward") //lint:allow panicfree out-of-order batch API use is a programmer error
	}
	sc.sizeGrads(gradOut)
	for r0 := 0; r0 < sc.rows; r0 += shardRows {
		sc.backwardRange(r0, min(r0+shardRows, sc.rows))
	}
	return sc
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
		sc.forwardRange(r0, r1)
		var sum float64
		for r := r0; r < r1; r++ {
			sum += LossGradInto(loss, sc.lossG.Row(r), sc.tmp, out.Row(r), ys[r])
		}
		total += sum
		sc.backwardRange(r0, r1)
	}
	sc.fwdOK = true
	sc.gradW(1 / float64(len(xs)))
	opt.Step(sc.net.params())
	return total / float64(len(xs))
}

// batchDenseForward computes y = W·x + b for rows [r0, r1), four samples at a
// time so the weight row stays hot and the four independent accumulators hide
// FMA latency. Each sample's dot product runs in ascending k order — the same
// order as the scalar Forward — so results are byte-identical to it. On AVX2
// hardware full 4-row blocks go through the assembly kernel (one sample per
// vector lane, same per-lane accumulation order, still byte-identical), which
// reads the four sample rows and writes the four output rows itself.
func batchDenseForward(d *Dense, in, out Mat, r0, r1 int, tile []float64) {
	r := r0
	if simdEnabled && d.In >= 4 {
		for ; r+4 <= r1; r += 4 {
			denseForwardBlockASM(&d.Weight.W[0], &d.Bias.W[0], &in.Data[r*in.Stride], &out.Data[r*out.Stride],
				in.Stride, out.Stride, d.In, d.Out, &tile[0])
		}
	}
	for ; r+4 <= r1; r += 4 {
		x0, x1, x2, x3 := in.Row(r), in.Row(r+1), in.Row(r+2), in.Row(r+3)
		y0, y1, y2, y3 := out.Row(r), out.Row(r+1), out.Row(r+2), out.Row(r+3)
		for o := 0; o < d.Out; o++ {
			b := d.Bias.W[o]
			s0, s1, s2, s3 := b, b, b, b
			for k, w := range d.Weight.W[o*d.In : (o+1)*d.In] {
				s0 += w * x0[k]
				s1 += w * x1[k]
				s2 += w * x2[k]
				s3 += w * x3[k]
			}
			y0[o], y1[o], y2[o], y3[o] = s0, s1, s2, s3
		}
	}
	for ; r < r1; r++ {
		x, y := in.Row(r), out.Row(r)
		for o := 0; o < d.Out; o++ {
			s := d.Bias.W[o]
			for k, w := range d.Weight.W[o*d.In : (o+1)*d.In] {
				s += w * x[k]
			}
			y[o] = s
		}
	}
}

// batchDenseBackward computes dX = Wᵀ·g for rows [r0, r1). Each sample's
// accumulation is independent and runs in ascending output order from +0,
// skipping exact-zero gradients (adding their ±0 products would change
// nothing: a sum that starts at +0 is never −0). On AVX2 hardware full 4-row
// blocks go through the assembly kernel, one sample per lane in the same
// order, so the two paths agree bit for bit.
func batchDenseBackward(d *Dense, gout, gin Mat, r0, r1 int, tile []float64) {
	r := r0
	if simdEnabled && d.In >= 4 {
		for ; r+4 <= r1; r += 4 {
			denseBackwardDXBlockASM(&d.Weight.W[0], &gout.Data[r*gout.Stride], &gin.Data[r*gin.Stride],
				gout.Stride, gin.Stride, d.In, d.Out, &tile[0])
		}
	}
	for ; r < r1; r++ {
		g, gx := gout.Row(r), gin.Row(r)
		clear(gx)
		for o, gv := range g {
			if gv == 0 {
				continue
			}
			for k, w := range d.Weight.W[o*d.In : (o+1)*d.In] {
				gx[k] += gv * w
			}
		}
	}
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
	if simdEnabled && d.In >= 4 && n >= 2 {
		// The kernel covers whole quads of input columns; the loop below
		// finishes the 0–3 columns left over.
		k0 = d.In &^ 3
		denseGradWBlockASM(&d.Weight.G[o0*d.In], &g.Data[o0], &x.Data[0], g.Stride, x.Stride, rows, d.In, n, scale, shardRows)
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
					part[k] += gv * xv
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
