#include "textflag.h"

// AVX2 forms of the training kernels, the kNN distance scan and the
// loss pass's logarithm in kernels.go. Each lane repeats the
// scalar loop's fold for one output: products and sums round separately
// (VMULPD, then VADDPD) in the scalar order, so every output is
// bit-identical to the scalar kernel. FMA appears only in the exp replica
// (EXP_FMA, used by sigmoidAVX2 and tanhAVX2), exactly where math.Exp's
// amd64 FMA path fuses; the log replica (logAVX2) fuses nothing, because
// log_amd64.s has no FMA path.

// Constants of math.Exp's amd64 implementation ($GOROOT/src/math/exp_amd64.s).
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// Constants of math.Log's amd64 implementation ($GOROOT/src/math/log_amd64.s).
#define HSqrt2 7.07106781186547524401e-01 // sqrt(2)/2
#define Ln2Hi  6.93147180369123816490e-01 // 0x3fe62e42fee00000
#define Ln2Lo  1.90821492927058770002e-10 // 0x3dea39ef35793c76
#define L1     6.666666666666735130e-01   // 0x3FE5555555555593
#define L2     3.999999999940941908e-01   // 0x3FD999999997FA04
#define L3     2.857142874366239149e-01   // 0x3FD2492494229359
#define L4     2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
#define L5     1.818357216161805012e-01   // 0x3FC7466496CB03DE
#define L6     1.531383769920937332e-01   // 0x3FC39A09D078C69F
#define L7     1.479819860511658591e-01   // 0x3FC2F112DF3E5244

DATA kconst<>+0(SB)/8, $0x8000000000000000 // sign bit
DATA kconst<>+8(SB)/8, $-708.0             // lowest -|z| the vector exp takes
DATA kconst<>+16(SB)/8, $LOG2E
DATA kconst<>+24(SB)/8, $LN2U
DATA kconst<>+32(SB)/8, $LN2L
DATA kconst<>+40(SB)/8, $0.0625
DATA kconst<>+48(SB)/8, $2.4801587301587301587e-5 // Taylor coefficients, highest first
DATA kconst<>+56(SB)/8, $1.9841269841269841270e-4
DATA kconst<>+64(SB)/8, $1.3888888888888888889e-3
DATA kconst<>+72(SB)/8, $8.3333333333333333333e-3
DATA kconst<>+80(SB)/8, $4.1666666666666666667e-2
DATA kconst<>+88(SB)/8, $1.6666666666666666667e-1
DATA kconst<>+96(SB)/8, $0.5
DATA kconst<>+104(SB)/8, $1.0
DATA kconst<>+112(SB)/8, $2.0
DATA kconst<>+120(SB)/8, $1023 // exponent bias
DATA kconst<>+128(SB)/8, $0    // lane indices, for column masks
DATA kconst<>+136(SB)/8, $1
DATA kconst<>+144(SB)/8, $2
DATA kconst<>+152(SB)/8, $3
DATA kconst<>+160(SB)/8, $-9.64399179425052238628e-1 // math.tanh's P, highest first
DATA kconst<>+168(SB)/8, $-9.92877231001918586564e1
DATA kconst<>+176(SB)/8, $-1.61468768441708447952e3
DATA kconst<>+184(SB)/8, $1.12811678491632931402e2 // and its Q
DATA kconst<>+192(SB)/8, $2.23548839060100448583e3
DATA kconst<>+200(SB)/8, $4.84406305325125486048e3
DATA kconst<>+208(SB)/8, $0.625                   // tanh's exp-branch threshold
DATA kconst<>+216(SB)/8, $4.4014845965556527147994e+01 // MAXLOG/2
DATA kconst<>+224(SB)/8, $-2.0
DATA kconst<>+232(SB)/8, $0x000FFFFFFFFFFFFF // mantissa mask, the largest subnormal's bits
DATA kconst<>+240(SB)/8, $0x7FF0000000000000 // +Inf's bits
DATA kconst<>+248(SB)/8, $0x4330000000000000 // 2^52's bits
DATA kconst<>+256(SB)/8, $4503599627371518.0 // 2^52 + 1022
DATA kconst<>+264(SB)/8, $HSqrt2
DATA kconst<>+272(SB)/8, $L1
DATA kconst<>+280(SB)/8, $L2
DATA kconst<>+288(SB)/8, $L3
DATA kconst<>+296(SB)/8, $L4
DATA kconst<>+304(SB)/8, $L5
DATA kconst<>+312(SB)/8, $L6
DATA kconst<>+320(SB)/8, $L7
DATA kconst<>+328(SB)/8, $Ln2Hi
DATA kconst<>+336(SB)/8, $Ln2Lo
GLOBL kconst<>(SB), RODATA|NOPTR, $344

// EXP_FMA(x, acc, tmp, k) sets each lane of x to exp(x) as math.Exp's
// avxfma path computes it, for arguments whose result is a normal
// number; acc and tmp are YMM and k an XMM scratch register. It expects
// Y13 = LOG2E, Y12 = LN2U, Y11 = LN2L, Y10 = 0.0625, Y9 = the first
// Taylor coefficient, Y8 = 2, Y7 = 1 and Y6 = the exponent bias.
#define EXP_FMA(x, acc, tmp, k) \
	VMULPD       Y13, x, acc; \
	VCVTPD2DQY   acc, k; \
	VCVTDQ2PD    k, acc; \
	VFNMADD231PD Y12, acc, x; \
	VFNMADD231PD Y11, acc, x; \
	VMULPD       Y10, x, x; \
	VMOVAPD      Y9, acc; \
	VBROADCASTSD kconst<>+56(SB), tmp; \
	VFMADD213PD  tmp, x, acc; \
	VBROADCASTSD kconst<>+64(SB), tmp; \
	VFMADD213PD  tmp, x, acc; \
	VBROADCASTSD kconst<>+72(SB), tmp; \
	VFMADD213PD  tmp, x, acc; \
	VBROADCASTSD kconst<>+80(SB), tmp; \
	VFMADD213PD  tmp, x, acc; \
	VBROADCASTSD kconst<>+88(SB), tmp; \
	VFMADD213PD  tmp, x, acc; \
	VBROADCASTSD kconst<>+96(SB), tmp; \
	VFMADD213PD  tmp, x, acc; \
	VFMADD213PD  Y7, x, acc; \
	VMULPD       acc, x, x; \
	VADDPD       Y8, x, acc; \
	VMULPD       acc, x, x; \
	VADDPD       Y8, x, acc; \
	VMULPD       acc, x, x; \
	VADDPD       Y8, x, acc; \
	VMULPD       acc, x, x; \
	VADDPD       Y8, x, acc; \
	VFMADD213PD  Y7, acc, x; \
	VPMOVSXDQ    k, tmp; \
	VPADDQ       Y6, tmp, tmp; \
	VPSLLQ       $52, tmp, tmp; \
	VMULPD       tmp, x, x

// EXP_CONSTS loads the registers EXP_FMA reads.
#define EXP_CONSTS \
	VBROADCASTSD kconst<>+16(SB), Y13; \
	VBROADCASTSD kconst<>+24(SB), Y12; \
	VBROADCASTSD kconst<>+32(SB), Y11; \
	VBROADCASTSD kconst<>+40(SB), Y10; \
	VBROADCASTSD kconst<>+48(SB), Y9; \
	VBROADCASTSD kconst<>+112(SB), Y8; \
	VBROADCASTSD kconst<>+104(SB), Y7; \
	VPBROADCASTQ kconst<>+120(SB), Y6

// func hasAVX2FMA() bool
//
// Reports AVX2 and FMA with YMM state enabled by the OS (OSXSAVE, and
// XCR0's SSE and AVX bits).
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	XORL CX, CX
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX // FMA (bit 12), OSXSAVE (27), AVX (28)
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX          // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func affineColsAVX2(dst, cols, w []float64, bias float64)
//
// dst[i] = bias + Σ_j w[j]·cols[j*n+i] for every i < n&^3, n = len(dst):
// the z-pass over a column-major design, one row per lane. Rows run in
// blocks of sixteen (four independent accumulators), then of four. The
// caller guarantees len(cols) == n*len(w) and len(w) > 0.
TEXT ·affineColsAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         cols_base+24(FP), SI
	MOVQ         w_base+48(FP), R8
	MOVQ         w_len+56(FP), R9
	VBROADCASTSD bias+72(FP), Y15
	MOVQ         CX, R10
	SHLQ         $3, R10             // byte distance between columns
	XORQ         AX, AX              // row

affine16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JGT     affine4
	VMOVAPD Y15, Y0
	VMOVAPD Y15, Y1
	VMOVAPD Y15, Y2
	VMOVAPD Y15, Y3
	LEAQ    (SI)(AX*8), BX
	MOVQ    R8, R11
	MOVQ    R9, R12

affine16col:
	VBROADCASTSD (R11), Y4
	VMULPD       (BX), Y4, Y5
	VMULPD       32(BX), Y4, Y6
	VMULPD       64(BX), Y4, Y7
	VMULPD       96(BX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          affine16col
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, 64(DI)(AX*8)
	VMOVUPD      Y3, 96(DI)(AX*8)
	MOVQ         DX, AX
	JMP          affine16

affine4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     affineDone
	VMOVAPD Y15, Y0
	LEAQ    (SI)(AX*8), BX
	MOVQ    R8, R11
	MOVQ    R9, R12

affine4col:
	VBROADCASTSD (R11), Y4
	VMULPD       (BX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          affine4col
	VMOVUPD      Y0, (DI)(AX*8)
	MOVQ         DX, AX
	JMP          affine4

affineDone:
	VZEROUPPER
	RET

// func sqDistColsAVX2(dst, cols, q []float64)
//
// dst[i] = Σ_j (cols[j*n+i] - q[j])² for every i < n&^3, n = len(dst):
// one kNN query's distance scan over a column-major design, one training
// row per lane. Each lane subtracts, squares and adds with a separate
// rounding per step (VSUBPD, VMULPD, VADDPD), in ascending j, from a sum
// of +0. Rows run in blocks of sixteen (four independent accumulators),
// then of four. The caller guarantees len(cols) == n*len(q) and
// len(q) > 0.
TEXT ·sqDistColsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ cols_base+24(FP), SI
	MOVQ q_base+48(FP), R8
	MOVQ q_len+56(FP), R9
	MOVQ CX, R10
	SHLQ $3, R10                 // byte distance between columns
	XORQ AX, AX                  // row

dist16:
	LEAQ   16(AX), DX
	CMPQ   DX, CX
	JGT    dist4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(AX*8), BX
	MOVQ   R8, R11
	MOVQ   R9, R12

dist16col:
	VBROADCASTSD (R11), Y4
	VMOVUPD      (BX), Y5
	VMOVUPD      32(BX), Y6
	VMOVUPD      64(BX), Y7
	VMOVUPD      96(BX), Y8
	VSUBPD       Y4, Y5, Y5
	VSUBPD       Y4, Y6, Y6
	VSUBPD       Y4, Y7, Y7
	VSUBPD       Y4, Y8, Y8
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          dist16col
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, 64(DI)(AX*8)
	VMOVUPD      Y3, 96(DI)(AX*8)
	MOVQ         DX, AX
	JMP          dist16

dist4:
	LEAQ   4(AX), DX
	CMPQ   DX, CX
	JGT    distDone
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(AX*8), BX
	MOVQ   R8, R11
	MOVQ   R9, R12

dist4col:
	VBROADCASTSD (R11), Y4
	VMOVUPD      (BX), Y5
	VSUBPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          dist4col
	VMOVUPD      Y0, (DI)(AX*8)
	MOVQ         DX, AX
	JMP          dist4

distDone:
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, src []float64) int
//
// dst[i] = Sigmoid(src[i]) in blocks of four, one element per lane, and
// returns how many elements it wrote: it stops before the first block
// with fewer than four elements left or with a lane whose -|z| is below
// -708 or NaN. Every other lane takes math.Exp's normal-result path, so
// the replica below needs none of its special cases.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSD kconst<>+0(SB), Y15
	VBROADCASTSD kconst<>+8(SB), Y14
	EXP_CONSTS
	VXORPD       Y5, Y5, Y5
	XORQ         AX, AX

sigmoid4:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       sigmoidDone
	VMOVUPD   (SI)(AX*8), Y4
	VORPD     Y15, Y4, Y0    // x = -|z|
	VCMPPD    $0x1d, Y14, Y0, Y1 // x >= -708, false for NaN
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       sigmoidDone

	EXP_FMA(Y0, Y1, Y2, X3) // e = exp(x)

	// (z < 0 ? e : 1) / (1 + e)
	VADDPD    Y7, Y0, Y1
	VCMPPD    $0x11, Y5, Y4, Y2 // z < 0
	VBLENDVPD Y2, Y0, Y7, Y2
	VDIVPD    Y1, Y2, Y2
	VMOVUPD   Y2, (DI)(AX*8)
	MOVQ      DX, AX
	JMP       sigmoid4

sigmoidDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src []float64)
//
// dst[i] = math.Tanh(src[i]) for every i < len(src)&^3, one element per
// lane. Each lane evaluates both of math.tanh's formulas and keeps the
// one its z = |x| selects, then overrides x == 0 (x itself) and
// z > MAXLOG/2 (±1):
//
//   - z >= 0.625: 1 - 2/(exp(2z)+1), negated for x < 0, with exp from
//     EXP_FMA (2z is at most MAXLOG, so exp takes its normal-result path);
//   - below: x + x·s·P(s)/Q(s), s = x², every product and sum rounded on
//     its own, in the scalar order.
//
// The two share one divide: 1 - 2/d is 1 + (-2)/d exactly. A lane
// outside a formula's range computes garbage there, never a trap (MXCSR
// masks every exception), and the blend discards it.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSD kconst<>+0(SB), Y15
	EXP_CONSTS
	XORQ         AX, AX

tanh4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     tanhDone
	VMOVUPD (SI)(AX*8), Y0     // x
	VANDNPD Y0, Y15, Y1        // z = |x|
	VADDPD  Y1, Y1, Y2         // 2z
	EXP_FMA(Y2, Y3, Y4, X5)
	VADDPD  Y7, Y2, Y2         // exp(2z) + 1

	VMULPD       Y0, Y0, Y3    // s = x·x
	VBROADCASTSD kconst<>+160(SB), Y4
	VMULPD       Y3, Y4, Y4
	VBROADCASTSD kconst<>+168(SB), Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y3, Y4, Y4
	VBROADCASTSD kconst<>+176(SB), Y14
	VADDPD       Y14, Y4, Y4   // P(s)
	VMULPD       Y3, Y0, Y5
	VMULPD       Y4, Y5, Y4    // x·s·P(s)
	VBROADCASTSD kconst<>+184(SB), Y5
	VADDPD       Y3, Y5, Y5
	VMULPD       Y3, Y5, Y5
	VBROADCASTSD kconst<>+192(SB), Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       Y3, Y5, Y5
	VBROADCASTSD kconst<>+200(SB), Y14
	VADDPD       Y14, Y5, Y5   // Q(s)

	VBROADCASTSD kconst<>+208(SB), Y14
	VCMPPD       $0x1d, Y14, Y1, Y3 // z >= 0.625
	VBLENDVPD    Y3, Y2, Y5, Y5     // divisor
	VBROADCASTSD kconst<>+224(SB), Y14
	VBLENDVPD    Y3, Y14, Y4, Y4    // dividend
	VBLENDVPD    Y3, Y7, Y0, Y2     // addend
	VDIVPD       Y5, Y4, Y4
	VADDPD       Y4, Y2, Y4
	VANDPD       Y15, Y0, Y5        // sign of x
	VANDPD       Y5, Y3, Y3
	VXORPD       Y3, Y4, Y4         // negate the exp formula for x < 0

	VXORPD       Y14, Y14, Y14
	VCMPPD       $0x00, Y14, Y0, Y2 // x == 0
	VBLENDVPD    Y2, Y0, Y4, Y4
	VBROADCASTSD kconst<>+216(SB), Y14
	VCMPPD       $0x1e, Y14, Y1, Y2 // z > MAXLOG/2, false for NaN
	VORPD        Y7, Y5, Y5         // ±1
	VBLENDVPD    Y2, Y5, Y4, Y4
	VMOVUPD      Y4, (DI)(AX*8)
	MOVQ         DX, AX
	JMP          tanh4

tanhDone:
	VZEROUPPER
	RET

// func logAVX2(dst, src []float64) int
//
// dst[i] = math.Log(src[i]) in blocks of four, one element per lane, and
// returns how many elements it wrote: it stops before the first block
// with fewer than four elements left or with a lane that is not a
// positive finite normal number (checked on the bits: above the largest
// subnormal's and below +Inf's as signed integers, so the sign bit, ±0,
// subnormals, ±Inf and NaN all fail). Every other lane repeats
// log_amd64.s instruction for instruction:
//
//   - f1 is the mantissa under 0.5's exponent and k the biased exponent
//     minus 1022, converted exactly (2^52's bits OR the exponent, less
//     2^52 + 1022) where the scalar code uses CVTSL2SD;
//   - the reduction test is the assembly's CMPSD NLT, !(√2/2 < f1), so an
//     f1 of exactly √2/2 is reduced too: k -= t and f1 *= 1 + t for t 0
//     or 1;
//   - then s = f/(2+f), the two polynomials and the final combination,
//     every product, sum and the one divide rounded on its own, in the
//     scalar order.
//
// dst may alias src: each block is loaded before it is stored.
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VPBROADCASTQ kconst<>+232(SB), Y15 // mantissa mask
	VPBROADCASTQ kconst<>+240(SB), Y14 // +Inf's bits
	VBROADCASTSD kconst<>+96(SB), Y13  // 0.5
	VBROADCASTSD kconst<>+104(SB), Y12 // 1
	VBROADCASTSD kconst<>+112(SB), Y11 // 2
	VPBROADCASTQ kconst<>+248(SB), Y10 // 2^52's bits
	VBROADCASTSD kconst<>+256(SB), Y9  // 2^52 + 1022
	VBROADCASTSD kconst<>+264(SB), Y8  // √2/2
	XORQ         AX, AX

log4:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       logDone
	VMOVUPD   (SI)(AX*8), Y0
	VPCMPGTQ  Y15, Y0, Y1 // x's bits above the largest subnormal's
	VPCMPGTQ  Y0, Y14, Y2 // and below +Inf's
	VPAND     Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       logDone

	VANDPD Y15, Y0, Y1      // mantissa
	VORPD  Y13, Y1, Y1      // f1
	VPSRLQ $52, Y0, Y2      // biased exponent
	VPOR   Y10, Y2, Y2
	VSUBPD Y9, Y2, Y2       // k
	VCMPPD $5, Y1, Y8, Y3   // √2/2 NLT f1
	VANDPD Y12, Y3, Y3      // t = 0 or 1
	VSUBPD Y3, Y2, Y2       // k -= t
	VADDPD Y12, Y3, Y3
	VMULPD Y3, Y1, Y1       // f1 *= 1 + t
	VSUBPD Y12, Y1, Y1      // f = f1 - 1
	VADDPD Y11, Y1, Y3
	VDIVPD Y3, Y1, Y3       // s = f/(2+f)
	VMULPD Y3, Y3, Y4       // s2
	VMULPD Y4, Y4, Y5       // s4

	VBROADCASTSD kconst<>+320(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD kconst<>+304(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD kconst<>+288(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD kconst<>+272(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y6, Y4, Y4 // t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VBROADCASTSD kconst<>+312(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD kconst<>+296(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD kconst<>+280(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y6, Y5, Y5 // t2 = s4·(L2 + s4·(L4 + s4·L6))
	VADDPD       Y5, Y4, Y4 // R = t1 + t2

	VMULPD       Y1, Y13, Y5
	VMULPD       Y1, Y5, Y5 // hfsq = 0.5·f·f
	VADDPD       Y5, Y4, Y4
	VMULPD       Y4, Y3, Y3 // s·(hfsq + R)
	VBROADCASTSD kconst<>+336(SB), Y6
	VMULPD       Y2, Y6, Y6
	VADDPD       Y6, Y3, Y3 // s·(hfsq + R) + k·Ln2Lo
	VSUBPD       Y3, Y5, Y5
	VSUBPD       Y1, Y5, Y5
	VBROADCASTSD kconst<>+328(SB), Y6
	VMULPD       Y6, Y2, Y2
	VSUBPD       Y5, Y2, Y2 // k·Ln2Hi - ((hfsq - (s·(hfsq + R) + k·Ln2Lo)) - f)
	VMOVUPD      Y2, (DI)(AX*8)
	MOVQ         DX, AX
	JMP          log4

logDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// Steps of scatterAVX2's row loops. In those loops BX walks the chunk's
// rows, R11 the coefficients, R12 counts rows down and R10 is the row
// stride in bytes; Y13 holds the row's broadcast coefficient and Y14 the
// mask of the chunk's last vector.
#define SCATTER_LOAD(off, acc) VMOVUPD off(DI)(AX*8), acc
#define SCATTER_STORE(off, acc) VMOVUPD acc, off(DI)(AX*8)
#define SCATTER_TERM(off, t, acc) VMULPD off(BX), Y13, t; VADDPD t, acc, acc
#define SCATTER_MASKED_TERM(off, t, acc) VMASKMOVPD off(BX), Y14, t; VMULPD t, Y13, t; VADDPD t, acc, acc

// func scatterAVX2(dst, g, x []float64)
//
// dst[j] += Σ_i g[i]·x[i*c+j] for every column j < c = len(dst) and row
// i < len(g) of the row-major x: the gradient scatter, one column per
// lane, each lane summing its terms in ascending row order. Columns run
// in chunks of sixteen (four accumulators, one pass over the rows each);
// the last chunk's last vector is masked, so no column is left to a
// scalar tail. The masks are built with VEX instructions only: a
// legacy-SSE MOVQ while the YMM upper halves are live costs an SSE/AVX
// transition on every call. The caller guarantees len(x) == len(g)*c,
// c > 0 and len(g) > 0.
TEXT ·scatterAVX2(SB), NOSPLIT, $0-72
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    g_base+24(FP), SI
	MOVQ    g_len+32(FP), R9
	MOVQ    x_base+48(FP), R8
	MOVQ    CX, R10
	SHLQ    $3, R10            // byte distance between rows
	VMOVDQU kconst<>+128(SB), Y15 // lane indices 0..3
	XORQ    AX, AX             // first column of the chunk

scatterChunk:
	MOVQ CX, DX
	SUBQ AX, DX                // columns left
	JLE  scatterDone
	LEAQ (R8)(AX*8), BX
	MOVQ SI, R11
	MOVQ R9, R12
	CMPQ DX, $16
	JGE  scatter16

	// Fewer than sixteen columns left: masked last vector over DX-4·m
	// lanes after m whole vectors.
	CMPQ DX, $4
	JLE  scatterM1
	CMPQ DX, $8
	JLE  scatterM2
	CMPQ DX, $12
	JLE  scatterM3
	SUBQ $12, DX
	JMP  scatterM4

scatterM1:
	VMOVQ        DX, X14
	VPBROADCASTQ X14, Y14
	VPCMPGTQ     Y15, Y14, Y14
	VMASKMOVPD   (DI)(AX*8), Y14, Y0

scatterM1row:
	VBROADCASTSD (R11), Y13
	SCATTER_MASKED_TERM(0, Y4, Y0)
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          scatterM1row
	VMASKMOVPD   Y0, Y14, (DI)(AX*8)
	JMP          scatterDone

scatterM2:
	SUBQ         $4, DX
	VMOVQ        DX, X14
	VPBROADCASTQ X14, Y14
	VPCMPGTQ     Y15, Y14, Y14
	SCATTER_LOAD(0, Y0)
	VMASKMOVPD   32(DI)(AX*8), Y14, Y1

scatterM2row:
	VBROADCASTSD (R11), Y13
	SCATTER_TERM(0, Y4, Y0)
	SCATTER_MASKED_TERM(32, Y5, Y1)
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          scatterM2row
	SCATTER_STORE(0, Y0)
	VMASKMOVPD   Y1, Y14, 32(DI)(AX*8)
	JMP          scatterDone

scatterM3:
	SUBQ         $8, DX
	VMOVQ        DX, X14
	VPBROADCASTQ X14, Y14
	VPCMPGTQ     Y15, Y14, Y14
	SCATTER_LOAD(0, Y0)
	SCATTER_LOAD(32, Y1)
	VMASKMOVPD   64(DI)(AX*8), Y14, Y2

scatterM3row:
	VBROADCASTSD (R11), Y13
	SCATTER_TERM(0, Y4, Y0)
	SCATTER_TERM(32, Y5, Y1)
	SCATTER_MASKED_TERM(64, Y6, Y2)
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          scatterM3row
	SCATTER_STORE(0, Y0)
	SCATTER_STORE(32, Y1)
	VMASKMOVPD   Y2, Y14, 64(DI)(AX*8)
	JMP          scatterDone

scatterM4:
	VMOVQ        DX, X14
	VPBROADCASTQ X14, Y14
	VPCMPGTQ     Y15, Y14, Y14
	SCATTER_LOAD(0, Y0)
	SCATTER_LOAD(32, Y1)
	SCATTER_LOAD(64, Y2)
	VMASKMOVPD   96(DI)(AX*8), Y14, Y3

scatterM4row:
	VBROADCASTSD (R11), Y13
	SCATTER_TERM(0, Y4, Y0)
	SCATTER_TERM(32, Y5, Y1)
	SCATTER_TERM(64, Y6, Y2)
	SCATTER_MASKED_TERM(96, Y7, Y3)
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          scatterM4row
	SCATTER_STORE(0, Y0)
	SCATTER_STORE(32, Y1)
	SCATTER_STORE(64, Y2)
	VMASKMOVPD   Y3, Y14, 96(DI)(AX*8)
	JMP          scatterDone

scatter16:
	SCATTER_LOAD(0, Y0)
	SCATTER_LOAD(32, Y1)
	SCATTER_LOAD(64, Y2)
	SCATTER_LOAD(96, Y3)

scatter16row:
	VBROADCASTSD (R11), Y13
	SCATTER_TERM(0, Y4, Y0)
	SCATTER_TERM(32, Y5, Y1)
	SCATTER_TERM(64, Y6, Y2)
	SCATTER_TERM(96, Y7, Y3)
	ADDQ         $8, R11
	ADDQ         R10, BX
	DECQ         R12
	JNZ          scatter16row
	SCATTER_STORE(0, Y0)
	SCATTER_STORE(32, Y1)
	SCATTER_STORE(64, Y2)
	SCATTER_STORE(96, Y3)
	ADDQ         $16, AX
	JMP          scatterChunk

scatterDone:
	VZEROUPPER
	RET
