//go:build amd64

#include "textflag.h"

// GWSTEP / GWSTEPZ add one sample row's contribution to the accumulators of
// two output neurons for four (ymm) or eight (zmm) consecutive input columns:
// the inputs at OFF(R9) times the row's two output gradients, broadcast in
// register 8 and 9.
#define GWSTEP(OFF, ACC0, ACC1) \
	VMOVUPD OFF(R9), Y10; \
	VMULPD Y10, Y8, Y11; \
	VADDPD Y11, ACC0, ACC0; \
	VMULPD Y10, Y9, Y12; \
	VADDPD Y12, ACC1, ACC1

#define GWSTEPZ(OFF, ACC0, ACC1) \
	VMOVUPD OFF(R9), Z10; \
	VMULPD Z10, Z8, Z11; \
	VADDPD Z11, ACC0, ACC0; \
	VMULPD Z10, Z9, Z12; \
	VADDPD Z12, ACC1, ACC1

// GWROW32 / GWROW16 / GWROW4 are one sample row of the 32-, 16- and 4-column
// passes: broadcast the two neurons' gradients, add the products, move to the
// next row.
#define GWROW32 \
	VBROADCASTSD (R10), Z8; \
	VBROADCASTSD 8(R10), Z9; \
	GWSTEPZ(0, Z0, Z4); \
	GWSTEPZ(64, Z1, Z5); \
	GWSTEPZ(128, Z2, Z6); \
	GWSTEPZ(192, Z3, Z7); \
	ADDQ R11, R10; \
	ADDQ R12, R9

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
	MOVQ shard+80(FP), CX; \
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

// GWZERO, GWPARK, GWADDPARKED and GWSCALE handle a wide pass's eight
// accumulators: A0–A3 hold the first neuron's columns, B0–B3 the second's,
// register i of each covering the columns at byte offset Oi of its gradient
// row (R14, and R14+AX for the second neuron). Both wide passes keep them in
// registers 0–7; GWZERO clears those through their xmm names, which zeroes
// the ymm and zmm registers whole and needs nothing past AVX.
#define GWZERO \
	VXORPD X0, X0, X0; \
	VXORPD X1, X1, X1; \
	VXORPD X2, X2, X2; \
	VXORPD X3, X3, X3; \
	VXORPD X4, X4, X4; \
	VXORPD X5, X5, X5; \
	VXORPD X6, X6, X6; \
	VXORPD X7, X7, X7

#define GWPARK(A0, A1, A2, A3, B0, B1, B2, B3, O1, O2, O3) \
	VMOVUPD A0, (R14); \
	VMOVUPD A1, O1(R14); \
	VMOVUPD A2, O2(R14); \
	VMOVUPD A3, O3(R14); \
	VMOVUPD B0, (R14)(AX*1); \
	VMOVUPD B1, O1(R14)(AX*1); \
	VMOVUPD B2, O2(R14)(AX*1); \
	VMOVUPD B3, O3(R14)(AX*1)

#define GWADDPARKED(A0, A1, A2, A3, B0, B1, B2, B3, O1, O2, O3) \
	VADDPD (R14), A0, A0; \
	VADDPD O1(R14), A1, A1; \
	VADDPD O2(R14), A2, A2; \
	VADDPD O3(R14), A3, A3; \
	VADDPD (R14)(AX*1), B0, B0; \
	VADDPD O1(R14)(AX*1), B1, B1; \
	VADDPD O2(R14)(AX*1), B2, B2; \
	VADDPD O3(R14)(AX*1), B3, B3

#define GWSCALE(A0, A1, A2, A3, B0, B1, B2, B3, S) \
	VMULPD S, A0, A0; \
	VMULPD S, A1, A1; \
	VMULPD S, A2, A2; \
	VMULPD S, A3, A3; \
	VMULPD S, B0, B0; \
	VMULPD S, B1, B1; \
	VMULPD S, B2, B2; \
	VMULPD S, B3, B3

// GWPASS runs one wide column block over every neuron pair, starting at the
// gradient row DI, the inputs at SI and the first neuron's output gradient:
// ROW adds one sample row to the eight accumulators (see GWZERO), S holds the
// broadcast scale, and the rest are the pass's labels. For every pair it
// sums the first shard, then parks the running total in gw and adds each
// later shard's sum to it, and scales and stores the total last.
#define GWPASS(ROW, A0, A1, A2, A3, B0, B1, B2, B3, O1, O2, O3, S, NEXT, PAIR, FIRST, SHARD, REST, STORE, DONE) \
	MOVQ DI, R14; \
	MOVQ dy+8(FP), BX; \
	MOVQ nOut+64(FP), R8; \
NEXT: \
	GWPAIR(PAIR, DONE); \
	GWSHARD; \
	GWZERO; \
FIRST: \
	ROW; \
	DECQ CX; \
	JNZ  FIRST; \
SHARD: \
	TESTQ R13, R13; \
	JZ   STORE; \
	GWPARK(A0, A1, A2, A3, B0, B1, B2, B3, O1, O2, O3); \
	GWSHARD; \
	GWZERO; \
REST: \
	ROW; \
	DECQ CX; \
	JNZ  REST; \
	GWADDPARKED(A0, A1, A2, A3, B0, B1, B2, B3, O1, O2, O3); \
	JMP  SHARD; \
STORE: \
	GWSCALE(A0, A1, A2, A3, B0, B1, B2, B3, S); \
	GWPARK(A0, A1, A2, A3, B0, B1, B2, B3, O1, O2, O3); \
	LEAQ (R14)(AX*2), R14; \
	ADDQ $16, BX; \
	SUBQ $2, R8; \
	JMP  NEXT; \
DONE:

// func cpuidWords() (maxLeaf, ecx1, ebx7, xcr0 uint32)
//
// The raw words x86Features decides from: CPUID leaf 0's EAX (the highest
// basic leaf), leaf 1's ECX, leaf 7 subleaf 0's EBX and XCR0's low word.
// Leaf 7 is read whatever leaf 0 says — a CPU answers an out-of-range leaf
// with its highest basic leaf's data, which is harmless to read and which
// x86Features discards. XGETBV faults unless the OS has set CR4.OSXSAVE,
// which leaf 1 reports in ECX bit 27, so xcr0 is 0 without it.
TEXT ·cpuidWords(SB), NOSPLIT, $0-16
	XORL AX, AX
	XORL CX, CX
	CPUID
	MOVL AX, maxLeaf+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx1+4(FP)
	MOVL CX, R8
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ebx7+8(FP)
	MOVL $0, xcr0+12(FP)
	TESTL $0x08000000, R8
	JZ   cpudone
	XORL CX, CX
	XGETBV
	MOVL AX, xcr0+12(FP)

cpudone:
	RET

// LANES8 adds one weight's products to the two ymm halves LO (lanes 0–3)
// and HI (lanes 4–7) of one neuron's accumulator: the weight at W is
// broadcast once and multiplied by the tile row's halves in Y8 and Y9.
#define LANES8(W, LO, HI) \
	VBROADCASTSD W, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, LO, LO; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y12, HI, HI

// func inferTileAVX2(w, bias, x, y *float64, in, out int)
//
// One Dense layer over an 8-sample lane tile: x is k-major (x[k*8+lane]),
// y is written o-major (y[o*8+lane]) — the layout the next layer reads as
// its x. y[o*8+lane] = bias[o] + Σ_k w[o*in+k]·x[k*8+lane], one accumulator
// per (neuron, lane) adding the products in ascending k with separate
// VMULPD and VADDPD: the scalar Forward's rounding sequence in every lane.
// Four neurons per pass, each neuron's eight lanes in two ymm halves that
// share one weight broadcast, then the 0–3 neurons left over one at a time.
TEXT ·inferTileAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ bias+8(FP), BX
	MOVQ x+16(FP), DX
	MOVQ y+24(FP), DI
	MOVQ in+32(FP), CX
	MOVQ out+40(FP), R8
	MOVQ CX, R15
	SHLQ $3, R15              // weight row stride in bytes
	LEAQ (R15)(R15*2), AX     // three weight rows in bytes

yquad:
	CMPQ R8, $4
	JLT  yone
	MOVQ SI, R9               // neurons 0–2: (R9), (R9)(R15*1), (R9)(R15*2)
	LEAQ (SI)(AX*1), R10      // neuron 3
	VBROADCASTSD 0(BX), Y0
	VMOVAPD Y0, Y1
	VBROADCASTSD 8(BX), Y2
	VMOVAPD Y2, Y3
	VBROADCASTSD 16(BX), Y4
	VMOVAPD Y4, Y5
	VBROADCASTSD 24(BX), Y6
	VMOVAPD Y6, Y7
	MOVQ DX, R13
	MOVQ CX, R14
	TESTQ R14, R14
	JZ   yqstore

yqk:
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	LANES8((R9), Y0, Y1)
	LANES8((R9)(R15*1), Y2, Y3)
	LANES8((R9)(R15*2), Y4, Y5)
	LANES8((R10), Y6, Y7)
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $64, R13
	DECQ R14
	JNZ  yqk

yqstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	LEAQ (SI)(R15*4), SI
	ADDQ $32, BX
	SUBQ $4, R8
	JMP  yquad

yone:
	TESTQ R8, R8
	JZ   ydone
	VBROADCASTSD (BX), Y0
	VMOVAPD Y0, Y1
	MOVQ SI, R9
	MOVQ DX, R13
	MOVQ CX, R14
	TESTQ R14, R14
	JZ   yostore

yok:
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	LANES8((R9), Y0, Y1)
	ADDQ $8, R9
	ADDQ $64, R13
	DECQ R14
	JNZ  yok

yostore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ R15, SI
	ADDQ $8, BX
	DECQ R8
	JMP  yone

ydone:
	VZEROUPPER
	RET

// LANE8 adds one weight's products to a neuron's zmm accumulator ACC: the
// weight at W is broadcast from memory and multiplied by the tile row in Z8.
#define LANE8(W, TMP, ACC) \
	VMULPD.BCST W, Z8, TMP; \
	VADDPD TMP, ACC, ACC

// func inferTileAVX512(w, bias, x, y *float64, in, out int)
//
// inferTileAVX2's contract and layout with each neuron's eight lanes in one
// zmm register: eight neurons per pass (Z0–Z7), then the 0–7 left over one
// at a time. Every lane still does a separate multiply and add per k, in
// ascending k, so the two kernels agree bit for bit.
TEXT ·inferTileAVX512(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ bias+8(FP), BX
	MOVQ x+16(FP), DX
	MOVQ y+24(FP), DI
	MOVQ in+32(FP), CX
	MOVQ out+40(FP), R8
	MOVQ CX, R15
	SHLQ $3, R15              // weight row stride in bytes
	LEAQ (R15)(R15*2), AX     // three weight rows in bytes

zoct:
	CMPQ R8, $8
	JLT  zone
	MOVQ SI, R9               // neurons 0–2: (R9), (R9)(R15*1), (R9)(R15*2)
	LEAQ (SI)(AX*1), R10      // neurons 3–5
	LEAQ (R10)(AX*1), R11     // neurons 6–7
	VBROADCASTSD 0(BX), Z0
	VBROADCASTSD 8(BX), Z1
	VBROADCASTSD 16(BX), Z2
	VBROADCASTSD 24(BX), Z3
	VBROADCASTSD 32(BX), Z4
	VBROADCASTSD 40(BX), Z5
	VBROADCASTSD 48(BX), Z6
	VBROADCASTSD 56(BX), Z7
	MOVQ DX, R13
	MOVQ CX, R14
	TESTQ R14, R14
	JZ   zostore

zok:
	VMOVUPD (R13), Z8
	LANE8((R9), Z9, Z0)
	LANE8((R9)(R15*1), Z10, Z1)
	LANE8((R9)(R15*2), Z11, Z2)
	LANE8((R10), Z12, Z3)
	LANE8((R10)(R15*1), Z13, Z4)
	LANE8((R10)(R15*2), Z14, Z5)
	LANE8((R11), Z15, Z6)
	LANE8((R11)(R15*1), Z16, Z7)
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $64, R13
	DECQ R14
	JNZ  zok

zostore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, DI
	LEAQ (SI)(R15*8), SI
	ADDQ $64, BX
	SUBQ $8, R8
	JMP  zoct

zone:
	TESTQ R8, R8
	JZ   zdone
	VBROADCASTSD (BX), Z0
	MOVQ SI, R9
	MOVQ DX, R13
	MOVQ CX, R14
	TESTQ R14, R14
	JZ   z1store

z1k:
	VMOVUPD (R13), Z8
	LANE8((R9), Z9, Z0)
	ADDQ $8, R9
	ADDQ $64, R13
	DECQ R14
	JNZ  z1k

z1store:
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ R15, SI
	ADDQ $8, BX
	DECQ R8
	JMP  zone

zdone:
	VZEROUPPER
	RET

// func laneTransposeAVX512(src, dst *float64, blocks, srcRow, srcBlock, dstRow, dstBlock int)
//
// Transposes `blocks` 8×8 blocks of doubles: block j reads eight rows of
// eight at src + j·srcBlock, srcRow elements apart, and writes its eight
// columns as eight rows at dst + j·dstBlock, dstRow elements apart. Pure data
// movement: 128-bit lane pairs by VUNPCKLPD/VUNPCKHPD, then two rounds of
// VSHUFF64X2 across lanes.
TEXT ·laneTransposeAVX512(SB), NOSPLIT, $0-56
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ blocks+16(FP), CX
	MOVQ srcRow+24(FP), AX
	MOVQ srcBlock+32(FP), BX
	MOVQ dstRow+40(FP), DX
	MOVQ dstBlock+48(FP), R8
	SHLQ $3, AX
	SHLQ $3, BX
	SHLQ $3, DX
	SHLQ $3, R8
	LEAQ (AX)(AX*2), R9       // three source rows in bytes
	LEAQ (DX)(DX*2), R10      // three destination rows in bytes
	TESTQ CX, CX
	JZ   tdone

tblock:
	LEAQ (SI)(AX*4), R11
	VMOVUPD (SI), Z0
	VMOVUPD (SI)(AX*1), Z1
	VMOVUPD (SI)(AX*2), Z2
	VMOVUPD (SI)(R9*1), Z3
	VMOVUPD (R11), Z4
	VMOVUPD (R11)(AX*1), Z5
	VMOVUPD (R11)(AX*2), Z6
	VMOVUPD (R11)(R9*1), Z7
	VUNPCKLPD Z1, Z0, Z8      // rows 0,1: columns 0,2,4,6
	VUNPCKHPD Z1, Z0, Z9      // rows 0,1: columns 1,3,5,7
	VUNPCKLPD Z3, Z2, Z10
	VUNPCKHPD Z3, Z2, Z11
	VUNPCKLPD Z5, Z4, Z12
	VUNPCKHPD Z5, Z4, Z13
	VUNPCKLPD Z7, Z6, Z14
	VUNPCKHPD Z7, Z6, Z15
	VSHUFF64X2 $0x44, Z10, Z8, Z0 // rows 0–3: columns 0,2
	VSHUFF64X2 $0xEE, Z10, Z8, Z1 // rows 0–3: columns 4,6
	VSHUFF64X2 $0x44, Z14, Z12, Z2
	VSHUFF64X2 $0xEE, Z14, Z12, Z3
	VSHUFF64X2 $0x44, Z11, Z9, Z4 // rows 0–3: columns 1,3
	VSHUFF64X2 $0xEE, Z11, Z9, Z5
	VSHUFF64X2 $0x44, Z15, Z13, Z6
	VSHUFF64X2 $0xEE, Z15, Z13, Z7
	VSHUFF64X2 $0x88, Z2, Z0, Z8  // column 0
	VSHUFF64X2 $0x88, Z6, Z4, Z9  // column 1
	VSHUFF64X2 $0xDD, Z2, Z0, Z10 // column 2
	VSHUFF64X2 $0xDD, Z6, Z4, Z11 // column 3
	VSHUFF64X2 $0x88, Z3, Z1, Z12 // column 4
	VSHUFF64X2 $0x88, Z7, Z5, Z13 // column 5
	VSHUFF64X2 $0xDD, Z3, Z1, Z14 // column 6
	VSHUFF64X2 $0xDD, Z7, Z5, Z15 // column 7
	LEAQ (DI)(DX*4), R11
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, (DI)(DX*1)
	VMOVUPD Z10, (DI)(DX*2)
	VMOVUPD Z11, (DI)(R10*1)
	VMOVUPD Z12, (R11)
	VMOVUPD Z13, (R11)(DX*1)
	VMOVUPD Z14, (R11)(DX*2)
	VMOVUPD Z15, (R11)(R10*1)
	ADDQ BX, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  tblock

tdone:
	VZEROUPPER
	RET

// func dxTileAVX2(w, dy, gx *float64, in, out int)
//
// dX for one 8-sample lane tile, the inference tile run backwards: dy is
// o-major (dy[o*8+lane], out rows), gx is written k-major (gx[k*8+lane], in
// rows). gx[k*8+lane] = Σ_o w[o*in+k]·dy[o*8+lane], one accumulator per
// (column, lane) that starts at +0 and adds the products in ascending o with
// separate VMULPD and VADDPD — the scalar backward's per-sample sequence.
// The weights are broadcast straight from W's rows, in elements apart, so no
// transposed copy of W exists. Four columns per pass, each column's eight
// lanes in two ymm halves that share one dy load pair, then the 0–3 columns
// left over one at a time. Exact-zero gradients are not skipped the way the
// scalar path skips them: with finite weights their products are ±0, and
// adding ±0 to a sum that started at +0 (so is never −0) changes nothing.
TEXT ·dxTileAVX2(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI          // w[0][k]
	MOVQ dy+8(FP), DX
	MOVQ gx+16(FP), DI
	MOVQ in+24(FP), CX        // columns left
	MOVQ out+32(FP), R8
	MOVQ CX, R15
	SHLQ $3, R15              // weight row stride in bytes

xquad:
	CMPQ CX, $4
	JLT  xone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R9
	MOVQ DX, R13
	MOVQ R8, R14

xqo:
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	LANES8(0(R9), Y0, Y1)
	LANES8(8(R9), Y2, Y3)
	LANES8(16(R9), Y4, Y5)
	LANES8(24(R9), Y6, Y7)
	ADDQ R15, R9
	ADDQ $64, R13
	DECQ R14
	JNZ  xqo
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  xquad

xone:
	TESTQ CX, CX
	JZ   xdone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, R9
	MOVQ DX, R13
	MOVQ R8, R14

xoo:
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	LANES8((R9), Y0, Y1)
	ADDQ R15, R9
	ADDQ $64, R13
	DECQ R14
	JNZ  xoo
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $8, SI
	DECQ CX
	JMP  xone

xdone:
	VZEROUPPER
	RET

// func dxTileAVX512(w, dy, gx *float64, in, out int)
//
// dxTileAVX2's contract and layout with each column's eight lanes in one zmm
// register: eight columns per pass (Z0–Z7, one 64-byte run of each weight
// row), then the 0–7 left over one at a time. Every lane still does a
// separate multiply and add per o, in ascending o, so the two kernels agree
// bit for bit.
TEXT ·dxTileAVX512(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ dy+8(FP), DX
	MOVQ gx+16(FP), DI
	MOVQ in+24(FP), CX
	MOVQ out+32(FP), R8
	MOVQ CX, R15
	SHLQ $3, R15

zxoct:
	CMPQ CX, $8
	JLT  zxone
	VXORPD X0, X0, X0         // the xmm zero idiom clears the whole zmm
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	MOVQ SI, R9
	MOVQ DX, R13
	MOVQ R8, R14

zxo:
	VMOVUPD (R13), Z8
	LANE8(0(R9), Z9, Z0)
	LANE8(8(R9), Z10, Z1)
	LANE8(16(R9), Z11, Z2)
	LANE8(24(R9), Z12, Z3)
	LANE8(32(R9), Z13, Z4)
	LANE8(40(R9), Z14, Z5)
	LANE8(48(R9), Z15, Z6)
	LANE8(56(R9), Z16, Z7)
	ADDQ R15, R9
	ADDQ $64, R13
	DECQ R14
	JNZ  zxo
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $64, SI
	SUBQ $8, CX
	JMP  zxoct

zxone:
	TESTQ CX, CX
	JZ   zxdone
	VXORPD X0, X0, X0
	MOVQ SI, R9
	MOVQ DX, R13
	MOVQ R8, R14

zxo1:
	VMOVUPD (R13), Z8
	LANE8((R9), Z9, Z0)
	ADDQ R15, R9
	ADDQ $64, R13
	DECQ R14
	JNZ  zxo1
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ $8, SI
	DECQ CX
	JMP  zxone

zxdone:
	VZEROUPPER
	RET

// func gradWAVX2(gw, dy, x *float64, gStride, xStride, rows, in, cols, nOut int, scale float64, shard int)
//
// Weight gradients of nOut >= 2 consecutive output neurons over the whole
// batch, output-stationary, lanes across consecutive input columns k. gw is
// the first neuron's gradient row (row stride in), dy the first neuron's
// entry in output-gradient row 0 (row stride gStride), x input row 0 (row
// stride xStride); the kernel covers columns [0, cols&^3). For every
// (neuron, column block) it walks the batch in shards of `shard` rows: a
// register that starts at +0 adds dy_r·x_r[k] row by row (the per-shard
// partial sum, in row order); at the end of a shard the running total of the
// earlier shards — parked in gw itself, which stays in L1 — is added to it,
// and after the last shard the total is multiplied by scale and stored. That
// is the value sequence of per-shard buffers reduced in ascending order and
// scaled last, with no buffer to clear or reduce. Two neurons and sixteen
// columns per pass (eight independent accumulators that share every input
// load), then two neurons and one column quad per pass. The caller finishes
// the cols%4 column tail and the bias.
TEXT ·gradWAVX2(SB), NOSPLIT, $0-88
	MOVQ gw+0(FP), DI
	MOVQ x+16(FP), SI
	MOVQ gStride+24(FP), R11
	MOVQ xStride+32(FP), R12
	MOVQ in+48(FP), AX
	MOVQ cols+56(FP), DX
	VBROADCASTSD scale+72(FP), Y13
	SHLQ $3, R11
	SHLQ $3, R12
	SHRQ $2, DX               // k quads left
	SHLQ $3, AX               // gw row stride in bytes
	MOVQ rows+40(FP), R15
	TESTQ R15, R15
	JZ   wdone

wk16:
	CMPQ DX, $4
	JLT  wk4
	GWPASS(GWROW16, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, 32, 64, 96, Y13, wo16, wo16pair, wr16first, wsh16, wr16, wst16, wk16next)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $4, DX
	JMP  wk16

wk4:
	TESTQ DX, DX
	JZ   wdone
	MOVQ DI, R14
	MOVQ dy+8(FP), BX
	MOVQ nOut+64(FP), R8

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

// func gradWAVX512(gw, dy, x *float64, gStride, xStride, rows, in, cols, nOut int, scale float64, shard int)
//
// gradWAVX2's contract and sums over columns [0, cols&^31): two neurons and
// 32 columns per pass, four zmm accumulators per neuron. The caller hands
// the columns left over to gradWAVX2.
TEXT ·gradWAVX512(SB), NOSPLIT, $0-88
	MOVQ gw+0(FP), DI
	MOVQ x+16(FP), SI
	MOVQ gStride+24(FP), R11
	MOVQ xStride+32(FP), R12
	MOVQ in+48(FP), AX
	MOVQ cols+56(FP), DX
	VBROADCASTSD scale+72(FP), Z13
	SHLQ $3, R11
	SHLQ $3, R12
	SHRQ $5, DX               // 32-column blocks left
	SHLQ $3, AX
	MOVQ rows+40(FP), R15
	TESTQ R15, R15
	JZ   vdone

vk32:
	TESTQ DX, DX
	JZ   vdone
	GWPASS(GWROW32, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, 64, 128, 192, Z13, vo32, vo32pair, vr32first, vsh32, vr32, vst32, vk32next)
	ADDQ $256, DI
	ADDQ $256, SI
	DECQ DX
	JMP  vk32

vdone:
	VZEROUPPER
	RET

// func adamStepASM(w, grad, m, v *float64, n int, b1, omb1, b2, omb2, c1, c2, rate, eps float64)
//
// Vectorized Adam update over n/4 quads (the Go caller handles the tail).
// Every operation is an IEEE-correctly-rounded elementwise VMULPD / VADDPD /
// VDIVPD / VSQRTPD in the exact expression order of the scalar Step loop, so
// each lane is bit-identical to the scalar update. Once c1 = 1 − β1^t has
// rounded to exactly 1.0 (from t = 356 on) the division by it is skipped:
// x/1.0 is x for every double, and the loop is divider-bound.
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
	MOVQ c1+72(FP), R11
	MOVQ $0x3ff0000000000000, AX // 1.0
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
	CMPQ R11, AX              // c1 == 1.0: mHat is m' itself
	JEQ  anodiv
	VDIVPD Y12, Y5, Y5        // mHat = m'/c1

anodiv:
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
