//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the kernels in kernels.go. The rules that keep them
// bit-identical to the Go loops (DESIGN.md, "Vector kernels"):
//
//   - one VMULPD/VADDPD/VSUBPD per Go multiply/add/subtract, in the Go
//     expression's order; each lane rounds as the scalar instruction does;
//   - no FMA instruction anywhere;
//   - unaligned loads and stores only (VMOVUPD), any element offset works;
//   - a tail of fewer than four elements runs the same operations on one
//     lane (VEX scalar forms), so no lane ever touches memory past len.
//
// Every element-wise body has three tiers: 16 (or 8) elements per pass,
// 4 per pass, 1 per pass. Operand order follows the Go assembler: the
// destination is last and `VSUBPD b, a, d` computes d = a − b.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func scaleVecAVX2(a []float64, c float64)  a[i] = a[i] * c
TEXT ·scaleVecAVX2(SB), NOSPLIT, $0-32
	MOVQ         a_base+0(FP), DI
	MOVQ         a_len+8(FP), CX
	VBROADCASTSD c+24(FP), Y15

loop16:
	CMPQ    CX, $16
	JLT     loop4
	VMULPD  0(DI), Y15, Y0
	VMULPD  32(DI), Y15, Y1
	VMULPD  64(DI), Y15, Y2
	VMULPD  96(DI), Y15, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     loop16

loop4:
	CMPQ    CX, $4
	JLT     loop1
	VMULPD  (DI), Y15, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     loop4

loop1:
	TESTQ  CX, CX
	JZ     done
	VMULSD (DI), X15, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    loop1

done:
	VZEROUPPER
	RET

// func axpyVecAVX2(a []float64, c float64, b []float64)  a[i] = a[i] + c*b[i]
TEXT ·axpyVecAVX2(SB), NOSPLIT, $0-56
	MOVQ         a_base+0(FP), DI
	MOVQ         a_len+8(FP), CX
	VBROADCASTSD c+24(FP), Y15
	MOVQ         b_base+32(FP), SI

loop16:
	CMPQ    CX, $16
	JLT     loop4
	VMULPD  0(SI), Y15, Y0
	VMULPD  32(SI), Y15, Y1
	VMULPD  64(SI), Y15, Y2
	VMULPD  96(SI), Y15, Y3
	VADDPD  0(DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     loop16

loop4:
	CMPQ    CX, $4
	JLT     loop1
	VMULPD  (SI), Y15, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     loop4

loop1:
	TESTQ  CX, CX
	JZ     done
	VMULSD (SI), X15, X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    loop1

done:
	VZEROUPPER
	RET

// BINARY_TO is the body of dst[i] = a[i] OP b[i] with dst in DI, a in SI, b in
// DX and the length in CX; OPPD and OPSD are the packed and scalar forms of
// the one instruction sumTo and diffTo differ in.
#define BINARY_TO(OPPD, OPSD) \
loop16: \
	CMPQ    CX, $16   \
	JLT     loop4     \
	VMOVUPD 0(SI), Y0 \
	VMOVUPD 32(SI), Y1 \
	VMOVUPD 64(SI), Y2 \
	VMOVUPD 96(SI), Y3 \
	OPPD    0(DX), Y0, Y0 \
	OPPD    32(DX), Y1, Y1 \
	OPPD    64(DX), Y2, Y2 \
	OPPD    96(DX), Y3, Y3 \
	VMOVUPD Y0, 0(DI) \
	VMOVUPD Y1, 32(DI) \
	VMOVUPD Y2, 64(DI) \
	VMOVUPD Y3, 96(DI) \
	ADDQ    $128, DI  \
	ADDQ    $128, SI  \
	ADDQ    $128, DX  \
	SUBQ    $16, CX   \
	JMP     loop16    \
loop4: \
	CMPQ    CX, $4    \
	JLT     loop1     \
	VMOVUPD (SI), Y0  \
	OPPD    (DX), Y0, Y0 \
	VMOVUPD Y0, (DI)  \
	ADDQ    $32, DI   \
	ADDQ    $32, SI   \
	ADDQ    $32, DX   \
	SUBQ    $4, CX    \
	JMP     loop4     \
loop1: \
	TESTQ  CX, CX     \
	JZ     done       \
	VMOVSD (SI), X0   \
	OPSD   (DX), X0, X0 \
	VMOVSD X0, (DI)   \
	ADDQ   $8, DI     \
	ADDQ   $8, SI     \
	ADDQ   $8, DX     \
	DECQ   CX         \
	JMP    loop1      \
done: \
	VZEROUPPER \
	RET

// func sumToAVX2(dst, a, b []float64)        dst[i] = a[i] + b[i]
// With dst and a the same slice this is also addVec's body.
TEXT ·sumToAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	BINARY_TO(VADDPD, VADDSD)

// func diffToAVX2(dst, a, b []float64)       dst[i] = a[i] - b[i]
TEXT ·diffToAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	BINARY_TO(VSUBPD, VSUBSD)

// func sumToLEAVX2(dst, a []float64, b []byte)  dst[i] = a[i] + b's i-th float64
// amd64 is little-endian, so the wire bytes are the float64s; VMOVUPD and the
// memory operand of VADDPD take any byte offset.
TEXT ·sumToLEAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	BINARY_TO(VADDPD, VADDSD)

// TERM16 adds c·x for sixteen elements of source X, coefficient C, into the
// accumulators Y0–Y3: acc + (c·x), the Go loop's order.
#define TERM16(X, C) \
	VMULPD 0(X), C, Y4  \
	VMULPD 32(X), C, Y5 \
	VMULPD 64(X), C, Y6 \
	VMULPD 96(X), C, Y7 \
	VADDPD Y4, Y0, Y0   \
	VADDPD Y5, Y1, Y1   \
	VADDPD Y6, Y2, Y2   \
	VADDPD Y7, Y3, Y3

// func linComb4AVX2(dst, c, x0, x1, x2, x3 []float64, cont bool)
//   dst[i] = (((d + c0·x0[i]) + c1·x1[i]) + c2·x2[i]) + c3·x3[i]
// with d = dst[i] when cont, else +0 (VXORPD). The four sources of a pass are
// folded while the accumulator sits in a register, so dst is written once.
TEXT ·linComb4AVX2(SB), NOSPLIT, $0-145
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         c_base+24(FP), SI
	VBROADCASTSD 0(SI), Y12
	VBROADCASTSD 8(SI), Y13
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	MOVQ         x0_base+48(FP), R8
	MOVQ         x1_base+72(FP), R9
	MOVQ         x2_base+96(FP), R10
	MOVQ         x3_base+120(FP), R11
	MOVBQZX      cont+144(FP), BX

loop16:
	CMPQ    CX, $16
	JLT     loop4
	TESTQ   BX, BX
	JZ      zero16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	JMP     sum16

zero16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

sum16:
	TERM16(R8, Y12)
	TERM16(R9, Y13)
	TERM16(R10, Y14)
	TERM16(R11, Y15)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	ADDQ    $128, R9
	ADDQ    $128, R10
	ADDQ    $128, R11
	SUBQ    $16, CX
	JMP     loop16

loop4:
	CMPQ    CX, $4
	JLT     loop1
	TESTQ   BX, BX
	JZ      zero4
	VMOVUPD (DI), Y0
	JMP     sum4

zero4:
	VXORPD Y0, Y0, Y0

sum4:
	VMULPD  (R8), Y12, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  (R9), Y13, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  (R10), Y14, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  (R11), Y15, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, CX
	JMP     loop4

loop1:
	TESTQ  CX, CX
	JZ     done
	TESTQ  BX, BX
	JZ     zero1
	VMOVSD (DI), X0
	JMP    sum1

zero1:
	VXORPD X0, X0, X0

sum1:
	VMULSD (R8), X12, X4
	VADDSD X4, X0, X0
	VMULSD (R9), X13, X4
	VADDSD X4, X0, X0
	VMULSD (R10), X14, X4
	VADDSD X4, X0, X0
	VMULSD (R11), X15, X4
	VADDSD X4, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, R8
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, R11
	DECQ   CX
	JMP    loop1

done:
	VZEROUPPER
	RET

// func sgdStepAVX2(params, vel, grad []float64, mu, wd, lr float64)
//   v' = ((mu*v) + g) + (wd*x);  vel = v';  params = x − (lr*v')
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-96
	MOVQ         params_base+0(FP), DI
	MOVQ         params_len+8(FP), CX
	MOVQ         vel_base+24(FP), SI
	MOVQ         grad_base+48(FP), DX
	VBROADCASTSD mu+72(FP), Y13
	VBROADCASTSD wd+80(FP), Y14
	VBROADCASTSD lr+88(FP), Y15

loop8:
	CMPQ    CX, $8
	JLT     loop4
	VMULPD  0(SI), Y13, Y0
	VMULPD  32(SI), Y13, Y1
	VMOVUPD 0(DI), Y2
	VMOVUPD 32(DI), Y3
	VADDPD  0(DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VMULPD  Y2, Y14, Y4
	VMULPD  Y3, Y14, Y5
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VMOVUPD Y0, 0(SI)
	VMOVUPD Y1, 32(SI)
	VMULPD  Y0, Y15, Y0
	VMULPD  Y1, Y15, Y1
	VSUBPD  Y0, Y2, Y2
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y2, 0(DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $8, CX
	JMP     loop8

loop4:
	CMPQ    CX, $4
	JLT     loop1
	VMULPD  (SI), Y13, Y0
	VMOVUPD (DI), Y2
	VADDPD  (DX), Y0, Y0
	VMULPD  Y2, Y14, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD Y0, (SI)
	VMULPD  Y0, Y15, Y0
	VSUBPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     loop4

loop1:
	TESTQ  CX, CX
	JZ     done
	VMULSD (SI), X13, X0
	VMOVSD (DI), X2
	VADDSD (DX), X0, X0
	VMULSD X2, X14, X4
	VADDSD X4, X0, X0
	VMOVSD X0, (SI)
	VMULSD X0, X15, X0
	VSUBSD X0, X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JMP    loop1

done:
	VZEROUPPER
	RET

// func dotRowsAVX2(out, w []float64, stride int, x []float64)
//
// Four rows per group, one YMM accumulator per row: lane l of a row's
// accumulator adds up the products of the elements i ≡ l (mod 4) in
// ascending order, which is dotVec's s_l; the horizontal step is
// (s0+s1)+(s2+s3); the last len(x) mod 4 products are added afterwards in
// order. Each group leaves its four sums in X0 = [row0, row1] and
// X2 = [row2, row3].
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ stride+48(FP), R8
	MOVQ x_base+56(FP), DX
	MOVQ x_len+64(FP), BX
	SHLQ $3, R8                  // row stride in bytes
	MOVQ BX, R12
	ANDQ $~3, R12                // elements the four-lane loop covers
	SHRQ $2, CX                  // groups of four rows
	JZ   done

group:
	LEAQ   (SI)(R8*1), R9        // rows 1, 2 and 3; row 0 is SI
	LEAQ   (R9)(R8*1), R10
	LEAQ   (R10)(R8*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX                // element index
	CMPQ   AX, R12
	JGE    fold

lanes:
	VMOVUPD (DX)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y4, Y5
	VMULPD  (R9)(AX*8), Y4, Y6
	VMULPD  (R10)(AX*8), Y4, Y7
	VMULPD  (R11)(AX*8), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	CMPQ    AX, R12
	JLT     lanes

fold:
	VHADDPD      Y1, Y0, Y0      // [r0 s0+s1, r1 s0+s1, r0 s2+s3, r1 s2+s3]
	VHADDPD      Y3, Y2, Y2      // the same for rows 2 and 3
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y2, X5
	VADDPD       X4, X0, X0      // (s0+s1) + (s2+s3)
	VADDPD       X5, X2, X2

tail:
	CMPQ     AX, BX
	JGE      store
	VMOVDDUP (DX)(AX*8), X4      // [x[i], x[i]]
	VMOVSD   (SI)(AX*8), X5
	VMOVHPD  (R9)(AX*8), X5, X5  // [row0[i], row1[i]]
	VMOVSD   (R10)(AX*8), X6
	VMOVHPD  (R11)(AX*8), X6, X6 // [row2[i], row3[i]]
	VMULPD   X4, X5, X5
	VMULPD   X4, X6, X6
	VADDPD   X5, X0, X0
	VADDPD   X6, X2, X2
	INCQ     AX
	JMP      tail

store:
	VMOVUPD X0, (DI)
	VMOVUPD X2, 16(DI)
	ADDQ    $32, DI
	LEAQ    (SI)(R8*4), SI
	DECQ    CX
	JNZ     group

done:
	VZEROUPPER
	RET
