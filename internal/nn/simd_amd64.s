//go:build amd64

#include "textflag.h"

// TRANSPOSE4 transposes the 4×4 block of doubles held in A, B, C, D (one row
// per register) in place: afterwards A holds the four first elements, B the
// second ones, and so on. T0–T3 are clobbered. Pure data movement.
#define TRANSPOSE4(A, B, C, D, T0, T1, T2, T3) \
	VUNPCKLPD B, A, T0; \
	VUNPCKHPD B, A, T1; \
	VUNPCKLPD D, C, T2; \
	VUNPCKHPD D, C, T3; \
	VPERM2F128 $0x20, T2, T0, A; \
	VPERM2F128 $0x20, T3, T1, B; \
	VPERM2F128 $0x31, T2, T0, C; \
	VPERM2F128 $0x31, T3, T1, D

// GATHER4 copies N columns of the four rows at R9, R10, R11, R12 into the
// lane tile at DI (element [c*4+lane] = row lane's column c), four columns at
// a time through an in-register transpose, the 0–3 left over one by one.
// Clobbers R9–R14, DI and Y0–Y7.
#define GATHER4(N, QUAD, TAIL, DONE) \
	MOVQ N, R14; \
QUAD: \
	CMPQ R14, $4; \
	JLT  TAIL; \
	VMOVUPD (R9), Y0; \
	VMOVUPD (R10), Y1; \
	VMOVUPD (R11), Y2; \
	VMOVUPD (R12), Y3; \
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7); \
	VMOVUPD Y0, (DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, 64(DI); \
	VMOVUPD Y3, 96(DI); \
	ADDQ $32, R9; \
	ADDQ $32, R10; \
	ADDQ $32, R11; \
	ADDQ $32, R12; \
	ADDQ $128, DI; \
	SUBQ $4, R14; \
	JMP  QUAD; \
TAIL: \
	TESTQ R14, R14; \
	JZ   DONE; \
	MOVQ (R9), R13; \
	MOVQ R13, (DI); \
	MOVQ (R10), R13; \
	MOVQ R13, 8(DI); \
	MOVQ (R11), R13; \
	MOVQ R13, 16(DI); \
	MOVQ (R12), R13; \
	MOVQ R13, 24(DI); \
	ADDQ $8, R9; \
	ADDQ $8, R10; \
	ADDQ $8, R11; \
	ADDQ $8, R12; \
	ADDQ $32, DI; \
	DECQ R14; \
	JMP  TAIL; \
DONE:

// DXSTEP adds one output neuron's contribution to accumulator ACC: the weight
// at OFF(R9) broadcast across the four sample lanes, times the neuron's
// gradient quad in Y8.
#define DXSTEP(OFF, TMP, ACC) \
	VBROADCASTSD OFF(R9), TMP; \
	VMULPD Y8, TMP, TMP; \
	VADDPD TMP, ACC, ACC

// DXSTORE4 transposes accumulators A–D (four consecutive input columns, lanes
// across samples) and stores them at byte offset OFF of the four dX rows DI,
// DI+AX, R10 = DI+2·AX, R10+AX.
#define DXSTORE4(A, B, C, D, OFF) \
	TRANSPOSE4(A, B, C, D, Y8, Y9, Y10, Y11); \
	VMOVUPD A, OFF(DI); \
	VMOVUPD B, OFF(DI)(AX*1); \
	VMOVUPD C, OFF(R10); \
	VMOVUPD D, OFF(R10)(AX*1)

// GWSTEP adds one sample row's contribution to the accumulators of two output
// neurons for four consecutive input columns: the inputs at OFF(R9) times the
// row's two output gradients, broadcast in Y8 and Y9.
#define GWSTEP(OFF, ACC0, ACC1) \
	VMOVUPD OFF(R9), Y10; \
	VMULPD Y10, Y8, Y11; \
	VADDPD Y11, ACC0, ACC0; \
	VMULPD Y10, Y9, Y12; \
	VADDPD Y12, ACC1, ACC1

// GWROW16 / GWROW4 are one sample row of the 16-column and 4-column passes:
// broadcast the two neurons' gradients, add the products, move to the next row.
#define GWROW16 \
	VBROADCASTSD (R10), Y8; \
	VBROADCASTSD 8(R10), Y9; \
	GWSTEP(0, Y0, Y4); \
	GWSTEP(32, Y1, Y5); \
	GWSTEP(64, Y2, Y6); \
	GWSTEP(96, Y3, Y7); \
	ADDQ R11, R10; \
	ADDQ R12, R9

#define GWROW4 \
	VBROADCASTSD (R10), Y8; \
	VBROADCASTSD 8(R10), Y9; \
	GWSTEP(0, Y0, Y4); \
	ADDQ R11, R10; \
	ADDQ R12, R9

// GWSHARD loads the row count of the next shard into CX (min(shard, rows
// left)) and takes it off the rows left in R13.
#define GWSHARD \
	MOVQ shard+72(FP), CX; \
	CMPQ R13, CX; \
	CMOVQLT R13, CX; \
	SUBQ CX, R13

// GWPAIR points the pass at the next two neurons: R14 = their first gradient
// row, BX = their entry in output-gradient row 0, R8 = neurons left. An odd
// last neuron is paired with its predecessor, which is computed twice (the
// same bits are stored again). Jumps to DONE when no neuron is left.
#define GWPAIR(PAIR, DONE) \
	CMPQ R8, $2; \
	JGE  PAIR; \
	TESTQ R8, R8; \
	JZ   DONE; \
	SUBQ AX, R14; \
	SUBQ $8, BX; \
	MOVQ $2, R8; \
PAIR: \
	MOVQ R15, R13; \
	MOVQ SI, R9; \
	MOVQ BX, R10

// func cpuidHasAVX2() bool
// AVX2 requires: CPUID.1:ECX.OSXSAVE[27] and AVX[28], XCR0 XMM+YMM state
// enabled by the OS, and CPUID.7.0:EBX.AVX2[5].
TEXT ·cpuidHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  novx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  novx
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   novx
	MOVB $1, ret+0(FP)
	RET

novx:
	MOVB $0, ret+0(FP)
	RET

// func denseForwardBlockASM(w, bias, x, y *float64, xStride, yStride, in, out int, xt *float64)
//
// Four output neurons per iteration, four samples per vector lane. Y0..Y3
// are the accumulators for neurons o..o+3; each k step broadcasts one weight
// per neuron and does a separate VMULPD+VADDPD so every lane reproduces the
// scalar "s += w*x" rounding sequence in ascending k order.
//
// xStride != 0: x is the first of four sample rows xStride elements apart,
// gathered into the k-major tile xt first. xStride == 0: x already is that
// tile. yStride != 0: y is the first of four output rows; each finished
// neuron quad is transposed in registers and stored straight into them.
// yStride == 0: y is an o-major tile (the layout the next layer reads).
TEXT ·denseForwardBlockASM(SB), NOSPLIT, $0-72
	MOVQ x+16(FP), DX
	MOVQ xStride+32(FP), AX
	MOVQ in+48(FP), CX
	TESTQ CX, CX
	JZ   fdone
	TESTQ AX, AX
	JZ   fcore
	SHLQ $3, AX
	MOVQ DX, R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	MOVQ xt+64(FP), DI
	MOVQ DI, DX
	GATHER4(CX, fgquad, fgtail, fcore)
	MOVQ w+0(FP), SI
	MOVQ bias+8(FP), BX
	MOVQ y+24(FP), DI
	MOVQ yStride+40(FP), AX
	SHLQ $3, AX           // output row stride in bytes (0: tile output)
	MOVQ out+56(FP), R8
	MOVQ CX, R15
	SHLQ $3, R15          // weight row stride in bytes

fquad:
	CMPQ R8, $4
	JLT  ftail
	MOVQ SI, R9
	LEAQ (SI)(R15*1), R10
	LEAQ (R10)(R15*1), R11
	LEAQ (R11)(R15*1), R12
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	MOVQ DX, R13
	MOVQ CX, R14

fkloop:
	VMOVUPD (R13), Y4
	VBROADCASTSD (R9), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD (R10), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y1, Y1
	VBROADCASTSD (R11), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y2, Y2
	VBROADCASTSD (R12), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y3, Y3
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $32, R13
	DECQ R14
	JNZ  fkloop
	TESTQ AX, AX
	JZ   fqtile
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	LEAQ (DI)(AX*2), R9
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, (R9)(AX*1)
	ADDQ $32, DI
	JMP  fqnext

fqtile:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI

fqnext:
	LEAQ (SI)(R15*4), SI
	ADDQ $32, BX
	SUBQ $4, R8
	JMP  fquad

ftail:
	TESTQ R8, R8
	JZ   fdone
	VBROADCASTSD 0(BX), Y0
	MOVQ SI, R9
	MOVQ DX, R13
	MOVQ CX, R14

ftk:
	VMOVUPD (R13), Y4
	VBROADCASTSD (R9), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, R9
	ADDQ $32, R13
	DECQ R14
	JNZ  ftk
	TESTQ AX, AX
	JZ   fttile
	VEXTRACTF128 $1, Y0, X1
	LEAQ (DI)(AX*2), R9
	VMOVLPD X0, (DI)
	VMOVHPD X0, (DI)(AX*1)
	VMOVLPD X1, (R9)
	VMOVHPD X1, (R9)(AX*1)
	ADDQ $8, DI
	JMP  ftnext

fttile:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI

ftnext:
	ADDQ R15, SI
	ADDQ $8, BX
	DECQ R8
	JMP  ftail

fdone:
	VZEROUPPER
	RET

// func denseBackwardDXBlockASM(w, dy, gx *float64, gStride, gxStride, in, out int, gvt *float64)
//
// dX for one block of four samples, lanes across samples. dy is the first of
// four output-gradient rows (gStride elements apart); they are gathered into
// the o-major tile gvt first. The kernel is output-stationary: eight (then
// four, then one) input columns at a time it keeps gx[k] for the four samples
// in a register that starts at +0 and adds dy[o]·w[o][k] in ascending o order
// — the scalar backward's per-sample sequence — then transposes the finished
// columns in registers and stores them straight into the four dX rows
// (gxStride apart). Nothing is read back, pre-zeroed or accumulated in
// memory. Exact-zero gradients are not skipped the way the scalar path skips
// them: with finite weights their products are ±0, and adding ±0 to a sum
// that started at +0 (and therefore is never −0) changes nothing.
TEXT ·denseBackwardDXBlockASM(SB), NOSPLIT, $0-64
	MOVQ dy+8(FP), R9
	MOVQ gStride+24(FP), AX
	MOVQ out+48(FP), R8
	SHLQ $3, AX
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	MOVQ gvt+56(FP), DI
	GATHER4(R8, xgquad, xgtail, xgdone)
	MOVQ w+0(FP), SI          // column base: w[0][k]
	MOVQ gvt+56(FP), DX
	MOVQ gx+16(FP), DI        // dX row 0 at column k
	MOVQ gxStride+32(FP), AX
	SHLQ $3, AX
	LEAQ (DI)(AX*2), R10      // dX row 2 at column k
	MOVQ in+40(FP), CX        // input columns left
	MOVQ CX, R15
	SHLQ $3, R15              // weight row stride in bytes

xk8:
	CMPQ CX, $8
	JLT  xk4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R9
	MOVQ DX, BX
	MOVQ R8, R14

xo8:
	VMOVUPD (BX), Y8
	DXSTEP(0, Y9, Y0)
	DXSTEP(8, Y10, Y1)
	DXSTEP(16, Y11, Y2)
	DXSTEP(24, Y12, Y3)
	DXSTEP(32, Y9, Y4)
	DXSTEP(40, Y10, Y5)
	DXSTEP(48, Y11, Y6)
	DXSTEP(56, Y12, Y7)
	ADDQ $32, BX
	ADDQ R15, R9
	DECQ R14
	JNZ  xo8
	DXSTORE4(Y0, Y1, Y2, Y3, 0)
	DXSTORE4(Y4, Y5, Y6, Y7, 32)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R10
	SUBQ $8, CX
	JMP  xk8

xk4:
	CMPQ CX, $4
	JLT  xk1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R9
	MOVQ DX, BX
	MOVQ R8, R14

xo4:
	VMOVUPD (BX), Y8
	DXSTEP(0, Y9, Y0)
	DXSTEP(8, Y10, Y1)
	DXSTEP(16, Y11, Y2)
	DXSTEP(24, Y12, Y3)
	ADDQ $32, BX
	ADDQ R15, R9
	DECQ R14
	JNZ  xo4
	DXSTORE4(Y0, Y1, Y2, Y3, 0)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R10
	SUBQ $4, CX
	JMP  xk4

xk1:
	TESTQ CX, CX
	JZ   xdone
	VXORPD Y0, Y0, Y0
	MOVQ SI, R9
	MOVQ DX, BX
	MOVQ R8, R14

xo1:
	VMOVUPD (BX), Y8
	DXSTEP(0, Y9, Y0)
	ADDQ $32, BX
	ADDQ R15, R9
	DECQ R14
	JNZ  xo1
	VEXTRACTF128 $1, Y0, X1
	VMOVLPD X0, (DI)
	VMOVHPD X0, (DI)(AX*1)
	VMOVLPD X1, (R10)
	VMOVHPD X1, (R10)(AX*1)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R10
	DECQ CX
	JMP  xk1

xdone:
	VZEROUPPER
	RET

// func denseGradWBlockASM(gw, dy, x *float64, gStride, xStride, rows, in, nOut int, scale float64, shard int)
//
// Weight gradients of nOut >= 2 consecutive output neurons over the whole
// batch, output-stationary, lanes across four consecutive input columns k. gw
// is the first neuron's gradient row (row stride in), dy the first neuron's
// entry in output-gradient row 0 (row stride gStride), x input row 0 (row
// stride xStride). For every (neuron, k quad) the kernel walks the batch in
// shards of `shard` rows: a register that starts at +0 adds dy_r·x_r[k] row
// by row (the per-shard partial sum, in row order); at the end of a shard the
// running total of the earlier shards — parked in gw itself, which stays in
// L1 — is added to it, and after the last shard the total is multiplied by
// scale and stored. That is the value sequence of per-shard buffers reduced
// in ascending order and scaled last, with no buffer to clear or reduce. Two
// neurons and sixteen columns per pass (eight independent accumulators that
// share every input load), then two neurons and one column quad per pass.
// The caller finishes the in%4 column tail and the bias.
TEXT ·denseGradWBlockASM(SB), NOSPLIT, $0-80
	MOVQ gw+0(FP), DI
	MOVQ x+16(FP), SI
	MOVQ gStride+24(FP), R11
	MOVQ xStride+32(FP), R12
	MOVQ in+48(FP), AX
	VBROADCASTSD scale+64(FP), Y13
	SHLQ $3, R11
	SHLQ $3, R12
	MOVQ AX, DX
	SHRQ $2, DX               // k quads left
	SHLQ $3, AX               // gw row stride in bytes
	MOVQ rows+40(FP), R15
	TESTQ R15, R15
	JZ   wdone

wk16:
	CMPQ DX, $4
	JLT  wk4
	MOVQ DI, R14
	MOVQ dy+8(FP), BX
	MOVQ nOut+56(FP), R8

wo16:
	GWPAIR(wo16pair, wk16next)
	GWSHARD
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

wr16first:
	GWROW16
	DECQ CX
	JNZ  wr16first

wsh16:
	TESTQ R13, R13
	JZ   wst16
	VMOVUPD Y0, (R14)         // park the running total
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, 64(R14)
	VMOVUPD Y3, 96(R14)
	VMOVUPD Y4, (R14)(AX*1)
	VMOVUPD Y5, 32(R14)(AX*1)
	VMOVUPD Y6, 64(R14)(AX*1)
	VMOVUPD Y7, 96(R14)(AX*1)
	GWSHARD
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

wr16:
	GWROW16
	DECQ CX
	JNZ  wr16
	VADDPD (R14), Y0, Y0      // total so far + this shard's sum
	VADDPD 32(R14), Y1, Y1
	VADDPD 64(R14), Y2, Y2
	VADDPD 96(R14), Y3, Y3
	VADDPD (R14)(AX*1), Y4, Y4
	VADDPD 32(R14)(AX*1), Y5, Y5
	VADDPD 64(R14)(AX*1), Y6, Y6
	VADDPD 96(R14)(AX*1), Y7, Y7
	JMP  wsh16

wst16:
	VMULPD Y13, Y0, Y0
	VMULPD Y13, Y1, Y1
	VMULPD Y13, Y2, Y2
	VMULPD Y13, Y3, Y3
	VMULPD Y13, Y4, Y4
	VMULPD Y13, Y5, Y5
	VMULPD Y13, Y6, Y6
	VMULPD Y13, Y7, Y7
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, 64(R14)
	VMOVUPD Y3, 96(R14)
	VMOVUPD Y4, (R14)(AX*1)
	VMOVUPD Y5, 32(R14)(AX*1)
	VMOVUPD Y6, 64(R14)(AX*1)
	VMOVUPD Y7, 96(R14)(AX*1)
	LEAQ (R14)(AX*2), R14
	ADDQ $16, BX
	SUBQ $2, R8
	JMP  wo16

wk16next:
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $4, DX
	JMP  wk16

wk4:
	TESTQ DX, DX
	JZ   wdone
	MOVQ DI, R14
	MOVQ dy+8(FP), BX
	MOVQ nOut+56(FP), R8

wo4:
	GWPAIR(wo4pair, wk4next)
	GWSHARD
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4

wr4first:
	GWROW4
	DECQ CX
	JNZ  wr4first

wsh4:
	TESTQ R13, R13
	JZ   wst4
	VMOVUPD Y0, (R14)
	VMOVUPD Y4, (R14)(AX*1)
	GWSHARD
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4

wr4:
	GWROW4
	DECQ CX
	JNZ  wr4
	VADDPD (R14), Y0, Y0
	VADDPD (R14)(AX*1), Y4, Y4
	JMP  wsh4

wst4:
	VMULPD Y13, Y0, Y0
	VMULPD Y13, Y4, Y4
	VMOVUPD Y0, (R14)
	VMOVUPD Y4, (R14)(AX*1)
	LEAQ (R14)(AX*2), R14
	ADDQ $16, BX
	SUBQ $2, R8
	JMP  wo4

wk4next:
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ DX
	JMP  wk4

wdone:
	VZEROUPPER
	RET

// func adamStepASM(w, grad, m, v *float64, n int, b1, omb1, b2, omb2, c1, c2, rate, eps float64)
//
// Vectorized Adam update over n/4 quads (the Go caller handles the tail).
// Every operation is an IEEE-correctly-rounded elementwise VMULPD / VADDPD /
// VDIVPD / VSQRTPD in the exact expression order of the scalar Step loop, so
// each lane is bit-identical to the scalar update.
TEXT ·adamStepASM(SB), NOSPLIT, $0-104
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R9
	MOVQ v+24(FP), R10
	MOVQ n+32(FP), CX
	VBROADCASTSD b1+40(FP), Y8
	VBROADCASTSD omb1+48(FP), Y9
	VBROADCASTSD b2+56(FP), Y10
	VBROADCASTSD omb2+64(FP), Y11
	VBROADCASTSD c1+72(FP), Y12
	VBROADCASTSD c2+80(FP), Y13
	VBROADCASTSD rate+88(FP), Y14
	VBROADCASTSD eps+96(FP), Y15
	SHRQ $2, CX
	JZ   adone

aloop:
	VMOVUPD (SI), Y4          // g
	VMOVUPD (R9), Y5          // m
	VMULPD Y8, Y5, Y5         // b1*m
	VMULPD Y9, Y4, Y0         // (1-b1)*g
	VADDPD Y0, Y5, Y5         // m'
	VMOVUPD Y5, (R9)
	VMOVUPD (R10), Y6         // v
	VMULPD Y10, Y6, Y6        // b2*v
	VMULPD Y11, Y4, Y0        // (1-b2)*g
	VMULPD Y4, Y0, Y0         // ((1-b2)*g)*g
	VADDPD Y0, Y6, Y6         // v'
	VMOVUPD Y6, (R10)
	VDIVPD Y12, Y5, Y5        // mHat = m'/c1
	VDIVPD Y13, Y6, Y6        // vHat = v'/c2
	VSQRTPD Y6, Y6            // sqrt(vHat)
	VADDPD Y15, Y6, Y6        // + eps
	VMULPD Y14, Y5, Y5        // rate*mHat
	VDIVPD Y6, Y5, Y5         // / den
	VMOVUPD (DI), Y7
	VSUBPD Y5, Y7, Y7         // w -= update
	VMOVUPD Y7, (DI)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, DI
	DECQ CX
	JNZ  aloop

adone:
	VZEROUPPER
	RET

// func leakyForwardASM(x, y *float64, n int, alpha float64)
//
// y[i] = x[i] >= 0 ? x[i] : alpha*x[i] for i in [0, n&^3). Elementwise and
// branch-free: a GE_OQ compare mask selects between x and the correctly
// rounded alpha*x, matching the scalar branch exactly (NaN takes the
// alpha*x arm in both).
TEXT ·leakyForwardASM(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y3
	VXORPD Y2, Y2, Y2
	SHRQ $2, CX
	JZ   lfdone

lfloop:
	VMOVUPD (SI), Y0
	VMULPD Y3, Y0, Y1         // alpha*x
	VCMPPD $0x1D, Y2, Y0, Y4  // mask = x >= 0
	VBLENDVPD Y4, Y0, Y1, Y0  // mask ? x : alpha*x
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  lfloop

lfdone:
	VZEROUPPER
	RET

// func leakyBackwardASM(x, grad, gx *float64, n int, alpha float64)
//
// gx[i] = x[i] >= 0 ? grad[i] : alpha*grad[i] for i in [0, n&^3).
TEXT ·leakyBackwardASM(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ grad+8(FP), BX
	MOVQ gx+16(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTSD alpha+32(FP), Y3
	VXORPD Y2, Y2, Y2
	SHRQ $2, CX
	JZ   lbdone

lbloop:
	VMOVUPD (SI), Y0
	VMOVUPD (BX), Y5
	VMULPD Y3, Y5, Y1         // alpha*g
	VCMPPD $0x1D, Y2, Y0, Y4  // mask = x >= 0
	VBLENDVPD Y4, Y5, Y1, Y0  // mask ? g : alpha*g
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	DECQ CX
	JNZ  lbloop

lbdone:
	VZEROUPPER
	RET
