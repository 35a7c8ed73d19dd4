#include "textflag.h"

// AVX2 forms of the training kernels, the kNN distance scan and the
// loss pass's logarithm in kernels.go. Each lane repeats the
// scalar loop's fold for one output: products and sums round separately
// (VMULPD, then VADDPD) in the scalar order, so every output is
// bit-identical to the scalar kernel. FMA appears only in the exp replica
// (EXP_FMA, used by sigmoidAVX2 and tanhAVX2), exactly where math.Exp's
// amd64 FMA path fuses; the log replica (logAVX2) fuses nothing, because
// log_amd64.s has no FMA path.
//
// The sigmoid, tanh and log kernels run two blocks of four per loop
// iteration, interleaved (the exp replica instruction by instruction,
// their other steps a few instructions at a time): each block is one
// long dependency chain, and two independent chains keep more of the
// vector units busy than one. Most of their constants are read from
// memory (kvec, each replicated to a full vector) rather than held in
// registers, which leaves registers for the second block.

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

// KVEC(off, v) fills the 32-byte kvec entry at off with four copies of v.
#define KVEC(off, v) DATA kvec<>+(off)(SB)/8, v; DATA kvec<>+(off+8)(SB)/8, v; DATA kvec<>+(off+16)(SB)/8, v; DATA kvec<>+(off+24)(SB)/8, v

#define K_SIGN 0     // sign bit
#define K_EXPMIN 32  // lowest -|z| the vector exp takes
#define K_LOG2E 64
#define K_LN2U 96
#define K_LN2L 128
#define K_SIXTEENTH 160
#define K_T0 192     // exp's Taylor coefficients, highest first
#define K_T1 224
#define K_T2 256
#define K_T3 288
#define K_T4 320
#define K_T5 352
#define K_HALF 384
#define K_ONE 416
#define K_TWO 448
#define K_BIAS 480   // exponent bias
#define K_LANES 512  // lane indices 0..3, for column masks
#define K_TANHP0 544 // math.tanh's P, highest first
#define K_TANHP1 576
#define K_TANHP2 608
#define K_TANHQ0 640 // and its Q
#define K_TANHQ1 672
#define K_TANHQ2 704
#define K_TANHEXP 736 // tanh's exp-branch threshold
#define K_MAXLOGHALF 768
#define K_MTWO 800
#define K_MANT 832   // mantissa mask, the largest subnormal's bits
#define K_INF 864    // +Inf's bits
#define K_2P52 896   // 2^52's bits
#define K_2P52K 928  // 2^52 + 1022
#define K_HSQRT2 960
#define K_L1 992
#define K_L2 1024
#define K_L3 1056
#define K_L4 1088
#define K_L5 1120
#define K_L6 1152
#define K_L7 1184
#define K_LN2HI 1216
#define K_LN2LO 1248
#define K_EPS 1280      // the logistic loss's clamp, 1e-12
#define K_ONEMEPS 1312  // and 1 - 1e-12

KVEC(K_SIGN, $0x8000000000000000)
KVEC(K_EXPMIN, $-708.0)
KVEC(K_LOG2E, $LOG2E)
KVEC(K_LN2U, $LN2U)
KVEC(K_LN2L, $LN2L)
KVEC(K_SIXTEENTH, $0.0625)
KVEC(K_T0, $2.4801587301587301587e-5)
KVEC(K_T1, $1.9841269841269841270e-4)
KVEC(K_T2, $1.3888888888888888889e-3)
KVEC(K_T3, $8.3333333333333333333e-3)
KVEC(K_T4, $4.1666666666666666667e-2)
KVEC(K_T5, $1.6666666666666666667e-1)
KVEC(K_HALF, $0.5)
KVEC(K_ONE, $1.0)
KVEC(K_TWO, $2.0)
KVEC(K_BIAS, $1023)
DATA kvec<>+K_LANES+0(SB)/8, $0
DATA kvec<>+K_LANES+8(SB)/8, $1
DATA kvec<>+K_LANES+16(SB)/8, $2
DATA kvec<>+K_LANES+24(SB)/8, $3
KVEC(K_TANHP0, $-9.64399179425052238628e-1)
KVEC(K_TANHP1, $-9.92877231001918586564e1)
KVEC(K_TANHP2, $-1.61468768441708447952e3)
KVEC(K_TANHQ0, $1.12811678491632931402e2)
KVEC(K_TANHQ1, $2.23548839060100448583e3)
KVEC(K_TANHQ2, $4.84406305325125486048e3)
KVEC(K_TANHEXP, $0.625)
KVEC(K_MAXLOGHALF, $4.4014845965556527147994e+01) // MAXLOG/2
KVEC(K_MTWO, $-2.0)
KVEC(K_MANT, $0x000FFFFFFFFFFFFF)
KVEC(K_INF, $0x7FF0000000000000)
KVEC(K_2P52, $0x4330000000000000)
KVEC(K_2P52K, $4503599627371518.0)
KVEC(K_HSQRT2, $HSqrt2)
KVEC(K_L1, $L1)
KVEC(K_L2, $L2)
KVEC(K_L3, $L3)
KVEC(K_L4, $L4)
KVEC(K_L5, $L5)
KVEC(K_L6, $L6)
KVEC(K_L7, $L7)
KVEC(K_LN2HI, $Ln2Hi)
KVEC(K_LN2LO, $Ln2Lo)
KVEC(K_EPS, $1e-12)
KVEC(K_ONEMEPS, $0.999999999999)
GLOBL kvec<>(SB), RODATA|NOPTR, $1344

// EXP_FMA(x, acc, k, kx) sets each lane of x to exp(x) as math.Exp's
// avxfma path computes it, for arguments whose result is a normal
// number; acc is a YMM scratch register and k one whose XMM half is kx.
// It expects Y7 = 1 and Y8 = 2 (EXP_CONSTS) and reads the other
// constants from kvec.
#define EXP_FMA(x, acc, k, kx) \
	VMULPD       kvec<>+K_LOG2E(SB), x, acc; \
	VCVTPD2DQY   acc, kx; \
	VCVTDQ2PD    kx, acc; \
	VFNMADD231PD kvec<>+K_LN2U(SB), acc, x; \
	VFNMADD231PD kvec<>+K_LN2L(SB), acc, x; \
	VMULPD       kvec<>+K_SIXTEENTH(SB), x, x; \
	VMOVUPD      kvec<>+K_T0(SB), acc; \
	VFMADD213PD  kvec<>+K_T1(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T2(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T3(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T4(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T5(SB), x, acc; \
	VFMADD213PD  kvec<>+K_HALF(SB), x, acc; \
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
	VPMOVSXDQ    kx, k; \
	VPADDQ       kvec<>+K_BIAS(SB), k, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, x, x

// EXP_FMA2 is EXP_FMA on two blocks at once, (x, acc, k, kx) and
// (y, bcc, j, jx), one instruction of each in turn.
#define EXP_FMA2(x, acc, k, kx, y, bcc, j, jx) \
	VMULPD       kvec<>+K_LOG2E(SB), x, acc; \
	VMULPD       kvec<>+K_LOG2E(SB), y, bcc; \
	VCVTPD2DQY   acc, kx; \
	VCVTPD2DQY   bcc, jx; \
	VCVTDQ2PD    kx, acc; \
	VCVTDQ2PD    jx, bcc; \
	VFNMADD231PD kvec<>+K_LN2U(SB), acc, x; \
	VFNMADD231PD kvec<>+K_LN2U(SB), bcc, y; \
	VFNMADD231PD kvec<>+K_LN2L(SB), acc, x; \
	VFNMADD231PD kvec<>+K_LN2L(SB), bcc, y; \
	VMULPD       kvec<>+K_SIXTEENTH(SB), x, x; \
	VMULPD       kvec<>+K_SIXTEENTH(SB), y, y; \
	VMOVUPD      kvec<>+K_T0(SB), acc; \
	VMOVUPD      kvec<>+K_T0(SB), bcc; \
	VFMADD213PD  kvec<>+K_T1(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T1(SB), y, bcc; \
	VFMADD213PD  kvec<>+K_T2(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T2(SB), y, bcc; \
	VFMADD213PD  kvec<>+K_T3(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T3(SB), y, bcc; \
	VFMADD213PD  kvec<>+K_T4(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T4(SB), y, bcc; \
	VFMADD213PD  kvec<>+K_T5(SB), x, acc; \
	VFMADD213PD  kvec<>+K_T5(SB), y, bcc; \
	VFMADD213PD  kvec<>+K_HALF(SB), x, acc; \
	VFMADD213PD  kvec<>+K_HALF(SB), y, bcc; \
	VFMADD213PD  Y7, x, acc; \
	VFMADD213PD  Y7, y, bcc; \
	VMULPD       acc, x, x; \
	VMULPD       bcc, y, y; \
	VADDPD       Y8, x, acc; \
	VADDPD       Y8, y, bcc; \
	VMULPD       acc, x, x; \
	VMULPD       bcc, y, y; \
	VADDPD       Y8, x, acc; \
	VADDPD       Y8, y, bcc; \
	VMULPD       acc, x, x; \
	VMULPD       bcc, y, y; \
	VADDPD       Y8, x, acc; \
	VADDPD       Y8, y, bcc; \
	VMULPD       acc, x, x; \
	VMULPD       bcc, y, y; \
	VADDPD       Y8, x, acc; \
	VADDPD       Y8, y, bcc; \
	VFMADD213PD  Y7, acc, x; \
	VFMADD213PD  Y7, bcc, y; \
	VPMOVSXDQ    kx, k; \
	VPMOVSXDQ    jx, j; \
	VPADDQ       kvec<>+K_BIAS(SB), k, k; \
	VPADDQ       kvec<>+K_BIAS(SB), j, j; \
	VPSLLQ       $52, k, k; \
	VPSLLQ       $52, j, j; \
	VMULPD       k, x, x; \
	VMULPD       j, y, y

// EXP_CONSTS loads the registers EXP_FMA reads.
#define EXP_CONSTS \
	VMOVUPD kvec<>+K_ONE(SB), Y7; \
	VMOVUPD kvec<>+K_TWO(SB), Y8

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

// SIGMOID_OUT(off, z, e, acc, t) stores (z < 0 ? e : 1) / (1 + e) at
// off(DI)(AX*8), from a block's z and e = exp(-|z|); acc and t are
// scratch. It expects Y7 = 1 and Y13 = 0.
#define SIGMOID_OUT(off, z, e, acc, t) \
	VADDPD    Y7, e, acc; \
	VCMPPD    $0x11, Y13, z, t; \
	VBLENDVPD t, e, Y7, t; \
	VDIVPD    acc, t, t; \
	VMOVUPD   t, off(DI)(AX*8)

// func sigmoidAVX2(dst, src []float64) int
//
// dst[i] = Sigmoid(src[i]) in blocks of four, one element per lane, and
// returns how many elements it wrote: it stops before the first block
// with fewer than four elements left or with a lane whose -|z| is below
// -708 or NaN. Every other lane takes math.Exp's normal-result path, so
// the replica below needs none of its special cases. Pairs of blocks
// that both pass run together; a pair with a failing lane runs block by
// block, so the kernel stops at exactly the block it stopped at before.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	EXP_CONSTS
	VMOVUPD kvec<>+K_SIGN(SB), Y15
	VMOVUPD kvec<>+K_EXPMIN(SB), Y14
	VXORPD  Y13, Y13, Y13
	XORQ    AX, AX

sigmoid8:
	LEAQ      8(AX), DX
	CMPQ      DX, CX
	JGT       sigmoid4
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   32(SI)(AX*8), Y4
	VORPD     Y15, Y0, Y1        // x = -|z|
	VORPD     Y15, Y4, Y5
	VCMPPD    $0x1d, Y14, Y1, Y2 // x >= -708, false for NaN
	VCMPPD    $0x1d, Y14, Y5, Y6
	VANDPD    Y6, Y2, Y2
	VMOVMSKPD Y2, BX
	CMPQ      BX, $15
	JNE       sigmoid4

	EXP_FMA2(Y1, Y2, Y3, X3, Y5, Y6, Y9, X9) // e = exp(x)
	SIGMOID_OUT(0, Y0, Y1, Y2, Y3)
	SIGMOID_OUT(32, Y4, Y5, Y6, Y9)
	MOVQ DX, AX
	JMP  sigmoid8

sigmoid4:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       sigmoidDone
	VMOVUPD   (SI)(AX*8), Y0
	VORPD     Y15, Y0, Y1
	VCMPPD    $0x1d, Y14, Y1, Y2
	VMOVMSKPD Y2, BX
	CMPQ      BX, $15
	JNE       sigmoidDone

	EXP_FMA(Y1, Y2, Y3, X3)
	SIGMOID_OUT(0, Y0, Y1, Y2, Y3)
	MOVQ DX, AX
	JMP  sigmoid8

sigmoidDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// Steps of tanhAVX2 over one block: x the input, z = |x|, e the exp
// formula's divisor, then a, b and s as the steps say. They expect Y7 = 1,
// Y8 = 2 and Y15 = the sign bit.
#define TANH_LOAD(off, x, z, e) \
	VMOVUPD off(SI)(AX*8), x; \
	VANDNPD x, Y15, z; \
	VADDPD  z, z, e

// TANH_POLY sets e = exp(2z) + 1, s = x·x, a = x·s·P(s) and b = Q(s).
#define TANH_POLY(x, e, s, a, b) \
	VADDPD Y7, e, e; \
	VMULPD x, x, s; \
	VMULPD kvec<>+K_TANHP0(SB), s, a; \
	VADDPD kvec<>+K_TANHP1(SB), a, a; \
	VMULPD s, a, a; \
	VADDPD kvec<>+K_TANHP2(SB), a, a; \
	VMULPD s, x, b; \
	VMULPD a, b, a; \
	VADDPD kvec<>+K_TANHQ0(SB), s, b; \
	VMULPD s, b, b; \
	VADDPD kvec<>+K_TANHQ1(SB), b, b; \
	VMULPD s, b, b; \
	VADDPD kvec<>+K_TANHQ2(SB), b, b

// TANH_BLEND keeps the formula z selects, as tanhAVX2's comment says,
// leaving the result in a.
#define TANH_BLEND(x, z, e, s, a, b) \
	VCMPPD    $0x1d, kvec<>+K_TANHEXP(SB), z, s; \
	VBLENDVPD s, e, b, b; \
	VBLENDVPD s, kvec<>+K_MTWO(SB), a, a; \
	VBLENDVPD s, Y7, x, e; \
	VDIVPD    b, a, a; \
	VADDPD    a, e, a; \
	VANDPD    Y15, x, b; \
	VANDPD    b, s, s; \
	VXORPD    s, a, a

// TANH_STORE overrides x == 0 (x) and z > MAXLOG/2 (±1, from b = x's
// sign) and stores a.
#define TANH_STORE(off, x, z, e, a, b) \
	VXORPD       e, e, e; \
	VCMPPD       $0x00, e, x, e; \
	VBLENDVPD    e, x, a, a; \
	VCMPPD       $0x1e, kvec<>+K_MAXLOGHALF(SB), z, e; \
	VORPD        Y7, b, b; \
	VBLENDVPD    e, b, a, a; \
	VMOVUPD      a, off(DI)(AX*8)

// func tanhAVX2(dst, src []float64)
//
// dst[i] = math.Tanh(src[i]) for every i < len(src)&^3, one element per
// lane, two blocks at a time while eight elements remain. Each lane
// evaluates both of math.tanh's formulas and keeps the one its z = |x|
// selects, then overrides x == 0 (x itself) and z > MAXLOG/2 (±1):
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
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	EXP_CONSTS
	VMOVUPD kvec<>+K_SIGN(SB), Y15
	XORQ    AX, AX

tanh8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  tanh4
	TANH_LOAD(0, Y0, Y1, Y2)
	TANH_LOAD(32, Y6, Y9, Y10)
	EXP_FMA2(Y2, Y4, Y3, X3, Y10, Y12, Y11, X11)
	TANH_POLY(Y0, Y2, Y3, Y4, Y5)
	TANH_POLY(Y6, Y10, Y11, Y12, Y13)
	TANH_BLEND(Y0, Y1, Y2, Y3, Y4, Y5)
	TANH_BLEND(Y6, Y9, Y10, Y11, Y12, Y13)
	TANH_STORE(0, Y0, Y1, Y2, Y4, Y5)
	TANH_STORE(32, Y6, Y9, Y10, Y12, Y13)
	MOVQ DX, AX
	JMP  tanh8

tanh4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  tanhDone
	TANH_LOAD(0, Y0, Y1, Y2)
	EXP_FMA(Y2, Y4, Y3, X3)
	TANH_POLY(Y0, Y2, Y3, Y4, Y5)
	TANH_BLEND(Y0, Y1, Y2, Y3, Y4, Y5)
	TANH_STORE(0, Y0, Y1, Y2, Y4, Y5)

tanhDone:
	VZEROUPPER
	RET

// Steps of logAVX2 over one block, named as in log_amd64.s. They expect
// Y8 = √2/2, Y12 = 1 and Y14 = +Inf's bits.
//
// LOG_CHECK loads x and sets ok to all ones in the lanes that are
// positive finite normal numbers; c is scratch.
#define LOG_CHECK(off, x, ok, c) \
	VMOVUPD  off(SI)(AX*8), x; \
	VPCMPGTQ kvec<>+K_MANT(SB), x, ok; \
	VPCMPGTQ x, Y14, c; \
	VPAND    c, ok, ok

// LOG_REDUCE splits x into f = f1 - 1 and k, reducing f1 at √2/2, and
// leaves s = f/(2+f) in x's register.
#define LOG_REDUCE(x, f, k) \
	VANDPD kvec<>+K_MANT(SB), x, f; \
	VORPD  kvec<>+K_HALF(SB), f, f; \
	VPSRLQ $52, x, k; \
	VPOR   kvec<>+K_2P52(SB), k, k; \
	VSUBPD kvec<>+K_2P52K(SB), k, k; \
	VCMPPD $5, f, Y8, x; \
	VANDPD Y12, x, x; \
	VSUBPD x, k, k; \
	VADDPD Y12, x, x; \
	VMULPD x, f, f; \
	VSUBPD Y12, f, f; \
	VADDPD kvec<>+K_TWO(SB), f, x; \
	VDIVPD x, f, x

// LOG_POLY sets r = R = t1 + t2 from s; q and p are scratch.
#define LOG_POLY(s, r, q, p) \
	VMULPD s, s, r; \
	VMULPD r, r, q; \
	VMULPD kvec<>+K_L7(SB), q, p; \
	VADDPD kvec<>+K_L5(SB), p, p; \
	VMULPD q, p, p; \
	VADDPD kvec<>+K_L3(SB), p, p; \
	VMULPD q, p, p; \
	VADDPD kvec<>+K_L1(SB), p, p; \
	VMULPD p, r, r; \
	VMULPD kvec<>+K_L6(SB), q, p; \
	VADDPD kvec<>+K_L4(SB), p, p; \
	VMULPD q, p, p; \
	VADDPD kvec<>+K_L2(SB), p, p; \
	VMULPD p, q, q; \
	VADDPD q, r, r

// LOG_STORE combines s, f, k and R into the result and stores it; h and
// p are scratch.
#define LOG_STORE(off, s, f, k, r, h, p) \
	VMULPD  kvec<>+K_HALF(SB), f, h; \
	VMULPD  f, h, h; \
	VADDPD  h, r, r; \
	VMULPD  r, s, s; \
	VMULPD  kvec<>+K_LN2LO(SB), k, p; \
	VADDPD  p, s, s; \
	VSUBPD  s, h, h; \
	VSUBPD  f, h, h; \
	VMULPD  kvec<>+K_LN2HI(SB), k, k; \
	VSUBPD  h, k, k; \
	VMOVUPD k, off(DI)(AX*8)

// func logAVX2(dst, src []float64) int
//
// dst[i] = math.Log(src[i]) in blocks of four, one element per lane, and
// returns how many elements it wrote: it stops before the first block
// with fewer than four elements left or with a lane that is not a
// positive finite normal number (checked on the bits: above the largest
// subnormal's and below +Inf's as signed integers, so the sign bit, ±0,
// subnormals, ±Inf and NaN all fail). Pairs of blocks run together as
// in sigmoidAVX2. Every other lane repeats log_amd64.s instruction for
// instruction:
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
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	VMOVUPD kvec<>+K_HSQRT2(SB), Y8
	VMOVUPD kvec<>+K_ONE(SB), Y12
	VMOVUPD kvec<>+K_INF(SB), Y14
	XORQ    AX, AX

log8:
	LEAQ      8(AX), DX
	CMPQ      DX, CX
	JGT       log4
	LOG_CHECK(0, Y0, Y1, Y2)
	LOG_CHECK(32, Y6, Y7, Y9)
	VPAND     Y7, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       log4
	LOG_REDUCE(Y0, Y1, Y2)
	LOG_REDUCE(Y6, Y7, Y9)
	LOG_POLY(Y0, Y3, Y4, Y5)
	LOG_POLY(Y6, Y10, Y11, Y13)
	LOG_STORE(0, Y0, Y1, Y2, Y3, Y4, Y5)
	LOG_STORE(32, Y6, Y7, Y9, Y10, Y11, Y13)
	MOVQ      DX, AX
	JMP       log8

log4:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       logDone
	LOG_CHECK(0, Y0, Y1, Y2)
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       logDone
	LOG_REDUCE(Y0, Y1, Y2)
	LOG_POLY(Y0, Y3, Y4, Y5)
	LOG_STORE(0, Y0, Y1, Y2, Y3, Y4, Y5)
	MOVQ      DX, AX
	JMP       log8

logDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func likelihoodAVX2(l, p, y []float64)
//
// l[i] = y[i] >= 0.5 ? c : 1 - c, c = p[i] clamped to [1e-12, 1-1e-12],
// for every i < len(l)&^3, one tuple per lane: the logistic likelihood
// LikelihoodInto stages for the loss's logs. The clamp repeats Clamp's
// two tests: VMAXPD returns its second source when the first is not
// greater, so max(1e-12, p) is p unless p < 1e-12, NaN included, and
// VMINPD likewise returns 1-1e-12 only when it is less than the value.
// The caller guarantees p and y at least as long as l.
TEXT ·likelihoodAVX2(SB), NOSPLIT, $0-72
	MOVQ    l_base+0(FP), DI
	MOVQ    l_len+8(FP), CX
	MOVQ    p_base+24(FP), SI
	MOVQ    y_base+48(FP), DX
	VMOVUPD kvec<>+K_EPS(SB), Y15
	VMOVUPD kvec<>+K_ONEMEPS(SB), Y14
	VMOVUPD kvec<>+K_ONE(SB), Y13
	VMOVUPD kvec<>+K_HALF(SB), Y12
	XORQ    AX, AX

likelihood4:
	LEAQ      4(AX), BX
	CMPQ      BX, CX
	JGT       likelihoodDone
	VMAXPD    (SI)(AX*8), Y15, Y0 // p < 1e-12 ? 1e-12 : p
	VMINPD    Y0, Y14, Y0         // c > 1-1e-12 ? 1-1e-12 : c
	VSUBPD    Y0, Y13, Y1         // 1 - c
	VMOVUPD   (DX)(AX*8), Y2
	VCMPPD    $0x1d, Y12, Y2, Y2  // y >= 0.5, false for NaN
	VBLENDVPD Y2, Y0, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	MOVQ      BX, AX
	JMP       likelihood4

likelihoodDone:
	VZEROUPPER
	RET

// Steps of scatterAVX2's row loops. In those loops BX walks the chunk's
// rows, R11 the coefficients, R12 counts rows down and R10 is the row
// stride in bytes; Y13 holds the row's broadcast coefficient and Y14 the
// mask of the chunk's last vector.
#define SCATTER_LOAD(off, acc) VMOVUPD off(DI)(AX*8), acc
#define SCATTER_STORE(off, acc) VMOVUPD acc, off(DI)(AX*8)
#define SCATTER_TERM(off, t, acc) VMULPD off(BX), Y13, t; VADDPD t, acc, acc
#define SCATTER_NEXT ADDQ $8, R11; ADDQ R10, BX; DECQ R12

// SCATTER_MASK sets Y14 to the mask of the first DX lanes.
#define SCATTER_MASK VMOVQ DX, X14; VPBROADCASTQ X14, Y14; VPCMPGTQ Y15, Y14, Y14

// func scatterAVX2(dst, g, x []float64, stride int)
//
// dst[j] += Σ_i g[i]·x[i*stride+j] for every column j < len(dst) and row
// i < len(g) of the row-major x: the gradient scatter, one column per
// lane, each lane summing its terms in ascending row order. Columns run
// in chunks of sixteen (four accumulators, one pass over the rows each).
// Only dst's loads and stores are masked, once per chunk: a row's last
// vector loads unmasked, reading up to three values past the columns
// into lanes that are never stored. The masks are built with VEX
// instructions only: a legacy-SSE MOVQ while the YMM upper halves are
// live costs an SSE/AVX transition on every call. The caller guarantees
// len(dst) > 0, len(g) > 0 and that the last row's last vector ends
// inside x: (len(g)-1)*stride + (len(dst)+3)&^3 <= len(x).
TEXT ·scatterAVX2(SB), NOSPLIT, $0-80
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    g_base+24(FP), SI
	MOVQ    g_len+32(FP), R9
	MOVQ    x_base+48(FP), R8
	MOVQ    stride+72(FP), R10
	SHLQ    $3, R10            // byte distance between rows
	VMOVDQU kvec<>+K_LANES(SB), Y15
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

	// Fewer than sixteen columns left: a last vector of DX-4·m lanes
	// after m whole vectors.
	CMPQ DX, $4
	JLE  scatterM1
	CMPQ DX, $8
	JLE  scatterM2
	CMPQ DX, $12
	JLE  scatterM3
	SUBQ $12, DX
	JMP  scatterM4

scatterM1:
	SCATTER_MASK
	VMASKMOVPD (DI)(AX*8), Y14, Y0

scatterM1row:
	VBROADCASTSD (R11), Y13
	SCATTER_TERM(0, Y4, Y0)
	SCATTER_NEXT
	JNZ          scatterM1row
	VMASKMOVPD   Y0, Y14, (DI)(AX*8)
	JMP          scatterDone

scatterM2:
	SUBQ       $4, DX
	SCATTER_MASK
	SCATTER_LOAD(0, Y0)
	VMASKMOVPD 32(DI)(AX*8), Y14, Y1

scatterM2row:
	VBROADCASTSD (R11), Y13
	SCATTER_TERM(0, Y4, Y0)
	SCATTER_TERM(32, Y5, Y1)
	SCATTER_NEXT
	JNZ          scatterM2row
	SCATTER_STORE(0, Y0)
	VMASKMOVPD   Y1, Y14, 32(DI)(AX*8)
	JMP          scatterDone

scatterM3:
	SUBQ       $8, DX
	SCATTER_MASK
	SCATTER_LOAD(0, Y0)
	SCATTER_LOAD(32, Y1)
	VMASKMOVPD 64(DI)(AX*8), Y14, Y2

scatterM3row:
	VBROADCASTSD (R11), Y13
	SCATTER_TERM(0, Y4, Y0)
	SCATTER_TERM(32, Y5, Y1)
	SCATTER_TERM(64, Y6, Y2)
	SCATTER_NEXT
	JNZ          scatterM3row
	SCATTER_STORE(0, Y0)
	SCATTER_STORE(32, Y1)
	VMASKMOVPD   Y2, Y14, 64(DI)(AX*8)
	JMP          scatterDone

scatterM4:
	SCATTER_MASK
	SCATTER_LOAD(0, Y0)
	SCATTER_LOAD(32, Y1)
	SCATTER_LOAD(64, Y2)
	VMASKMOVPD 96(DI)(AX*8), Y14, Y3

scatterM4row:
	VBROADCASTSD (R11), Y13
	SCATTER_TERM(0, Y4, Y0)
	SCATTER_TERM(32, Y5, Y1)
	SCATTER_TERM(64, Y6, Y2)
	SCATTER_TERM(96, Y7, Y3)
	SCATTER_NEXT
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
	SCATTER_NEXT
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

// Steps of residualScatterAVX2. RESIDUAL4 stores the next four rows'
// residuals at R11, where the row loop then broadcasts them from: SI,
// R13 and R8 walk p, y and w, R9 is w's step (0 without weights) and
// CX is div, whether to divide by the n in Y12. Its labels must be
// unique per use. FUSED_ROW adds one row's terms to the accumulators its
// TERMS name.
#define RESIDUAL4(noW, noDiv) \
	VMOVUPD (SI), Y8; \
	VSUBPD  (R13), Y8, Y8; \
	TESTQ   R9, R9; \
	JZ      noW; \
	VMULPD  (R8), Y8, Y8; \
noW: \
	TESTQ   CX, CX; \
	JZ      noDiv; \
	VDIVPD  Y12, Y8, Y8; \
noDiv: \
	VMOVUPD Y8, (R11); \
	ADDQ    $32, SI; \
	ADDQ    $32, R13; \
	ADDQ    R9, R8

#define FUSED_ROW(TERMS) VBROADCASTSD (R11), Y13; TERMS; ADDQ $8, R11; ADDQ R10, BX
#define TERMS1 SCATTER_TERM(0, Y4, Y0)
#define TERMS2 TERMS1; SCATTER_TERM(32, Y5, Y1)
#define TERMS3 TERMS2; SCATTER_TERM(64, Y6, Y2)
#define TERMS4 TERMS3; SCATTER_TERM(96, Y7, Y3)
#define FUSED_BLOCK(TERMS) FUSED_ROW(TERMS); FUSED_ROW(TERMS); FUSED_ROW(TERMS); FUSED_ROW(TERMS); SUBQ $4, R12

// func residualScatterAVX2(dst, g, w, p, y, x []float64, n float64, stride int, div bool)
//
// The residual pass and the gradient scatter in one loop: for each block
// of four rows it computes g[i] = w[i]·(p[i] - y[i]), then / n when div,
// each step rounded on its own as residualScalar rounds it, stores
// them, and adds dst[j] += g[i]·x[i*stride+j] for the block's rows in
// ascending order, one column per lane, as scatterAVX2 does. An empty w
// takes no product. The divides are off the accumulators' chains, so
// they overlap the adds. It covers one chunk: the caller guarantees
// 0 < len(dst) <= 16, len(g) a positive multiple of four, p, y and a
// non-empty w at least as long as g, and whole vectors in every row:
// (len(g)-1)*stride + (len(dst)+3)&^3 <= len(x).
TEXT ·residualScatterAVX2(SB), NOSPLIT, $0-161
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), DX
	MOVQ         g_base+24(FP), R11
	MOVQ         g_len+32(FP), R12
	MOVQ         w_base+48(FP), R8
	MOVQ         w_len+56(FP), R9
	MOVQ         p_base+72(FP), SI
	MOVQ         y_base+96(FP), R13
	MOVQ         x_base+120(FP), BX
	VBROADCASTSD n+144(FP), Y12
	MOVQ         stride+152(FP), R10
	SHLQ         $3, R10           // byte distance between rows
	MOVBQZX      div+160(FP), CX
	MOVQ         $32, AX
	TESTQ        R9, R9
	CMOVQEQ      R9, AX            // no weights: w's step is 0
	MOVQ         AX, R9
	XORQ         AX, AX
	VMOVDQU      kvec<>+K_LANES(SB), Y15
	CMPQ         DX, $4
	JLE          fusedM1
	CMPQ         DX, $8
	JLE          fusedM2
	CMPQ         DX, $12
	JLE          fusedM3

	SUBQ       $12, DX
	SCATTER_MASK
	SCATTER_LOAD(0, Y0)
	SCATTER_LOAD(32, Y1)
	SCATTER_LOAD(64, Y2)
	VMASKMOVPD 96(DI), Y14, Y3

fusedM4block:
	RESIDUAL4(fusedM4w, fusedM4div)
	FUSED_BLOCK(TERMS4)
	JNZ        fusedM4block
	SCATTER_STORE(0, Y0)
	SCATTER_STORE(32, Y1)
	SCATTER_STORE(64, Y2)
	VMASKMOVPD Y3, Y14, 96(DI)
	JMP        fusedDone

fusedM3:
	SUBQ       $8, DX
	SCATTER_MASK
	SCATTER_LOAD(0, Y0)
	SCATTER_LOAD(32, Y1)
	VMASKMOVPD 64(DI), Y14, Y2

fusedM3block:
	RESIDUAL4(fusedM3w, fusedM3div)
	FUSED_BLOCK(TERMS3)
	JNZ        fusedM3block
	SCATTER_STORE(0, Y0)
	SCATTER_STORE(32, Y1)
	VMASKMOVPD Y2, Y14, 64(DI)
	JMP        fusedDone

fusedM2:
	SUBQ       $4, DX
	SCATTER_MASK
	SCATTER_LOAD(0, Y0)
	VMASKMOVPD 32(DI), Y14, Y1

fusedM2block:
	RESIDUAL4(fusedM2w, fusedM2div)
	FUSED_BLOCK(TERMS2)
	JNZ        fusedM2block
	SCATTER_STORE(0, Y0)
	VMASKMOVPD Y1, Y14, 32(DI)
	JMP        fusedDone

fusedM1:
	SCATTER_MASK
	VMASKMOVPD (DI), Y14, Y0

fusedM1block:
	RESIDUAL4(fusedM1w, fusedM1div)
	FUSED_BLOCK(TERMS1)
	JNZ        fusedM1block
	VMASKMOVPD Y0, Y14, (DI)

fusedDone:
	VZEROUPPER
	RET
