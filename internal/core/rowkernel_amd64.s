#include "textflag.h"

// func axpy4AVX2(out, b0, b1, b2, b3 []float64, m0, m1, m2, m3 float64)
//
// out[j] = (((out[j] + m0·b0[j]) + m1·b1[j]) + m2·b2[j]) + m3·b3[j], eight
// lanes per iteration in two YMM registers. Every term is a VMULPD then a
// VADDPD into the running value: the per-lane IEEE operations of axpy4Go,
// with no fused multiply-add. VZEROUPPER follows the vector body, so the
// scalar MULSD/ADDSD tail and the caller run without an AVX-SSE
// transition; it keeps the weights in the low lanes of X0–X3.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSD m0+120(FP), Y0
	VBROADCASTSD m1+128(FP), Y1
	VBROADCASTSD m2+136(FP), Y2
	VBROADCASTSD m3+144(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   vecdone

vecloop:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  (R8)(AX*8), Y0, Y6
	VMULPD  32(R8)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*8), Y1, Y6
	VMULPD  32(R9)(AX*8), Y1, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R10)(AX*8), Y2, Y6
	VMULPD  32(R10)(AX*8), Y2, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R11)(AX*8), Y3, Y6
	VMULPD  32(R11)(AX*8), Y3, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JB      vecloop

vecdone:
	VZEROUPPER

tailloop:
	CMPQ  AX, CX
	JAE   done
	MOVSD (DI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD (R9)(AX*8), X6
	MULSD X1, X6
	ADDSD X6, X4
	MOVSD (R10)(AX*8), X6
	MULSD X2, X6
	ADDSD X6, X4
	MOVSD (R11)(AX*8), X6
	MULSD X3, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   tailloop

done:
	RET

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
