#include "textflag.h"

// The AVX-512 twins of brick7Box, row7x4 and tapRows8: one ZMM register per
// eight-wide row, stores through the K1 mask. They sum every lane in the
// same order, with the same separate multiplies and adds, as the AVX2 and
// Go bodies, and use AVX-512F instructions only.

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done

	// leaf 1: ECX bit 27 OSXSAVE
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  done

	// XCR0 bits 1, 2 and 5–7: the OS saves the XMM, YMM, opmask and full
	// ZMM state
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  done

	// leaf 7: EBX bit 16 AVX512F
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// STOREMASK sets K1 to lanes [lo, hi): (1<<hi - 1) &^ (1<<lo - 1). It
// clobbers AX, CX and DX.
#define STOREMASK(lo, hi) \
	MOVQ  hi, CX; \
	MOVL  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	MOVQ  lo, CX; \
	MOVL  $1, DX; \
	SHLQ  CX, DX; \
	DECQ  DX; \
	NOTQ  DX; \
	ANDQ  DX, AX; \
	KMOVW AX, K1

// func brick7BoxZ(d, c *[512]float64, nb *[6]*[512]float64, w *[7]float64, lo0, hi0, lo1, hi1, lo2, hi2 int)
//
// brick7Box with one ZMM register per (k, j) row. The ±i taps are VALIGNQ
// of the centre row against the whole row of the -i or +i brick: lanes
// [left7 c0 … c6] and [c1 … c7 right0], the align the paper's brick code
// generator emits. Pointers, CMOVs and registers are brick7Box's; Z8 is
// +0.0, the sum's first term, Z9–Z15 the weights.
TEXT ·brick7BoxZ(SB), NOSPLIT, $0-80
	MOVQ         w+24(FP), AX
	VBROADCASTSD 0(AX), Z9
	VBROADCASTSD 8(AX), Z10
	VBROADCASTSD 16(AX), Z11
	VBROADCASTSD 24(AX), Z12
	VBROADCASTSD 32(AX), Z13
	VBROADCASTSD 40(AX), Z14
	VBROADCASTSD 48(AX), Z15
	VPXORQ       Z8, Z8, Z8
	STOREMASK(lo0+32(FP), hi0+40(FP))

	MOVQ lo2+64(FP), R14

plane:
	CMPQ R14, hi2+72(FP)
	JGE  done

	// AX = byte offset of row (k, lo1)
	MOVQ lo1+48(FP), BX
	MOVQ R14, AX
	SHLQ $3, AX
	ADDQ BX, AX
	SHLQ $6, AX
	MOVQ c+8(FP), SI
	ADDQ AX, SI
	MOVQ d+0(FP), DI
	ADDQ AX, DI
	MOVQ nb+16(FP), CX
	MOVQ 0(CX), R8
	ADDQ AX, R8
	MOVQ 8(CX), R9
	ADDQ AX, R9

	// -k row: plane 7 of the -k brick for k == 0; +k mirrors it
	LEAQ    -512(SI), R12
	MOVQ    32(CX), DX
	LEAQ    3584(DX)(AX*1), DX
	CMPQ    R14, $0
	CMOVQEQ DX, R12
	LEAQ    512(SI), R13
	MOVQ    40(CX), DX
	LEAQ    -3584(DX)(AX*1), DX
	CMPQ    R14, $7
	CMOVQEQ DX, R13

	// the -j row of row 0 is row 7 of the -j brick, the +j row of row 7
	// row 0 of the +j brick
	MOVQ R14, AX
	SHLQ $9, AX
	MOVQ 16(CX), R10
	LEAQ 448(R10)(AX*1), R10
	MOVQ 24(CX), R11
	ADDQ AX, R11

	CMPQ BX, hi1+56(FP)
	JGE  nextplane

row:
	LEAQ    -64(SI), CX
	CMPQ    BX, $0
	CMOVQEQ R10, CX
	LEAQ    64(SI), DX
	CMPQ    BX, $7
	CMOVQEQ R11, DX

	// centre
	VMOVUPD (SI), Z0
	VMULPD  Z9, Z0, Z4
	VADDPD  Z4, Z8, Z2

	// -i: [left7 c0 … c6]
	VALIGNQ $7, (R8), Z0, Z4
	VMULPD  Z10, Z4, Z4
	VADDPD  Z4, Z2, Z2

	// +i: [c1 … c7 right0]
	VMOVUPD (R9), Z5
	VALIGNQ $1, Z0, Z5, Z5
	VMULPD  Z11, Z5, Z5
	VADDPD  Z5, Z2, Z2

	// -j, +j, -k, +k
	VMULPD (CX), Z12, Z4
	VADDPD Z4, Z2, Z2
	VMULPD (DX), Z13, Z4
	VADDPD Z4, Z2, Z2
	VMULPD (R12), Z14, Z4
	VADDPD Z4, Z2, Z2
	VMULPD (R13), Z15, Z4
	VADDPD Z4, Z2, Z2

	VMOVUPD Z2, K1, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R12
	ADDQ $64, R13
	INCQ BX
	CMPQ BX, hi1+56(FP)
	JLT  row

nextplane:
	INCQ R14
	JMP  plane

done:
	VZEROUPPER
	RET

// ROW7 sums one row of eight lanes of the 7-point star into Z2 at byte
// offset AX, as row7x4 sums four; ROW7Z is the same under the K1 mask, its
// lanes past the mask loading as zeros (and faulting on nothing).
#define ROW7 \
	VMULPD 8(SI)(AX*1), Z9, Z4; \
	VADDPD Z4, Z8, Z2; \
	VMULPD (SI)(AX*1), Z10, Z4; \
	VADDPD Z4, Z2, Z2; \
	VMULPD 16(SI)(AX*1), Z11, Z4; \
	VADDPD Z4, Z2, Z2; \
	VMULPD (R8)(AX*1), Z12, Z4; \
	VADDPD Z4, Z2, Z2; \
	VMULPD (R9)(AX*1), Z13, Z4; \
	VADDPD Z4, Z2, Z2; \
	VMULPD (R10)(AX*1), Z14, Z4; \
	VADDPD Z4, Z2, Z2; \
	VMULPD (R11)(AX*1), Z15, Z4; \
	VADDPD Z4, Z2, Z2

#define ROW7Z \
	VMULPD.Z 8(SI)(AX*1), Z9, K1, Z4; \
	VADDPD   Z4, Z8, Z2; \
	VMULPD.Z (SI)(AX*1), Z10, K1, Z4; \
	VADDPD   Z4, Z2, Z2; \
	VMULPD.Z 16(SI)(AX*1), Z11, K1, Z4; \
	VADDPD   Z4, Z2, Z2; \
	VMULPD.Z (R8)(AX*1), Z12, K1, Z4; \
	VADDPD   Z4, Z2, Z2; \
	VMULPD.Z (R9)(AX*1), Z13, K1, Z4; \
	VADDPD   Z4, Z2, Z2; \
	VMULPD.Z (R10)(AX*1), Z14, K1, Z4; \
	VADDPD   Z4, Z2, Z2; \
	VMULPD.Z (R11)(AX*1), Z15, K1, Z4; \
	VADDPD   Z4, Z2, Z2

// func row7x8Z(out, c, jm, jp, km, kp []float64, w *[7]float64)
//
// row7x4 eight elements per iteration, and the whole of out: the last
// len(out)%8 elements load and store under the K1 mask.
TEXT ·row7x8Z(SB), NOSPLIT, $0-152
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), BX
	MOVQ         c_base+24(FP), SI
	MOVQ         jm_base+48(FP), R8
	MOVQ         jp_base+72(FP), R9
	MOVQ         km_base+96(FP), R10
	MOVQ         kp_base+120(FP), R11
	MOVQ         w+144(FP), AX
	VBROADCASTSD 0(AX), Z9
	VBROADCASTSD 8(AX), Z10
	VBROADCASTSD 16(AX), Z11
	VBROADCASTSD 24(AX), Z12
	VBROADCASTSD 32(AX), Z13
	VBROADCASTSD 40(AX), Z14
	VBROADCASTSD 48(AX), Z15
	VPXORQ       Z8, Z8, Z8
	MOVQ         BX, R12
	ANDQ         $-8, BX
	SHLQ         $3, BX
	XORQ         AX, AX

loop8:
	CMPQ    AX, BX
	JGE     tail
	ROW7
	VMOVUPD Z2, (DI)(AX*1)
	ADDQ    $64, AX
	JMP     loop8

tail:
	ANDQ    $7, R12
	JEQ     done8
	MOVQ    R12, CX
	MOVL    $1, DX
	SHLQ    CX, DX
	DECQ    DX
	KMOVW   DX, K1
	ROW7Z
	VMOVUPD Z2, K1, (DI)(AX*1)

done8:
	VZEROUPPER
	RET

// TAPZ adds one tap to one row: the coefficient (Z15) times the row's
// eight source elements at the tap's offset (R13), added to the row's
// accumulator, operands ordered as in TAP.
#define TAPZ(row, acc, tmp) \
	VMULPD (row)(R13*8), Z15, tmp; \
	VADDPD tmp, acc, acc

// func tapRows8Z(out []float64, ostride int, src []float64, base, sstride, rows int, offs []int, cs []float64, lo, hi int)
//
// tapRows8 with one ZMM accumulator per row (Z0–Z3): four rows share every
// coefficient broadcast and offset load, one or two rows take a two-row
// loop, and a row past rows reads the last real row again and is not
// stored. Registers are tapRows8's.
TEXT ·tapRows8Z(SB), NOSPLIT, $0-144
	MOVQ out_base+0(FP), DI
	MOVQ ostride+24(FP), R8
	SHLQ $3, R8
	MOVQ src_base+32(FP), R9
	MOVQ base+56(FP), AX
	LEAQ (R9)(AX*8), R9
	MOVQ sstride+64(FP), R14
	SHLQ $3, R14
	MOVQ offs_base+80(FP), BX
	MOVQ offs_len+88(FP), DX
	MOVQ cs_base+104(FP), CX

	// rows 1–3, each the previous row again where rows stops short of it
	MOVQ    rows+72(FP), SI
	LEAQ    (R9)(R14*1), R10
	CMPQ    SI, $2
	CMOVQLT R9, R10
	LEAQ    (R10)(R14*1), R11
	CMPQ    SI, $3
	CMOVQLT R10, R11
	LEAQ    (R11)(R14*1), R12
	CMPQ    SI, $4
	CMOVQLT R11, R12

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   AX, AX
	CMPQ   SI, $2
	JGT    four

two:
	CMPQ         AX, DX
	JGE          store
	MOVQ         (BX)(AX*8), R13
	VBROADCASTSD (CX)(AX*8), Z15
	TAPZ(R9, Z0, Z10)
	TAPZ(R10, Z1, Z11)
	INCQ         AX
	JMP          two

four:
	CMPQ         AX, DX
	JGE          store
	MOVQ         (BX)(AX*8), R13
	VBROADCASTSD (CX)(AX*8), Z15
	TAPZ(R9, Z0, Z10)
	TAPZ(R10, Z1, Z11)
	TAPZ(R11, Z2, Z12)
	TAPZ(R12, Z3, Z13)
	INCQ         AX
	JMP          four

store:
	STOREMASK(lo+128(FP), hi+136(FP))
	VMOVUPD Z0, K1, (DI)
	CMPQ    SI, $2
	JLT     rowsdone
	ADDQ    R8, DI
	VMOVUPD Z1, K1, (DI)
	CMPQ    SI, $3
	JLT     rowsdone
	ADDQ    R8, DI
	VMOVUPD Z2, K1, (DI)
	CMPQ    SI, $4
	JLT     rowsdone
	ADDQ    R8, DI
	VMOVUPD Z3, K1, (DI)

rowsdone:
	VZEROUPPER
	RET
