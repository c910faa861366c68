#include "textflag.h"

// Lane indices 0..7 as int64, compared against the box's i range to build
// the store masks.
DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
DATA lanes<>+32(SB)/8, $4
DATA lanes<>+40(SB)/8, $5
DATA lanes<>+48(SB)/8, $6
DATA lanes<>+56(SB)/8, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done

	// leaf 1: ECX bit 27 OSXSAVE, bit 28 AVX
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	// leaf 7: EBX bit 5 AVX2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// func brick7Box(d, c *[512]float64, nb *[6]*[512]float64, w *[7]float64, lo0, hi0, lo1, hi1, lo2, hi2 int)
//
// One (k, j) row is two YMM registers. Each source row a row reads has its
// own pointer, advanced a row at a time, so every load is base+displacement.
// The ±k rows come from this brick or, on the brick's planes k = 0 and 7,
// from the face neighbour, and the ±j rows likewise on rows j = 0 and 7: a
// CMOV picks the pointer. The ±i taps are the centre row shifted one lane
// — an unaligned load inside the row, or VPERMPD where the shift crosses
// the row end — with the neighbour brick's end element blended in
// (VBLENDPD). Every lane sums ((0 + w0·c) + w1·m) + … + w6·kp with separate multiplies and
// adds, as the Go bodies do, and the stores are masked to [lo0, hi0).
//
// Registers: SI/DI the source and destination row, R8/R9 the same row of
// the -i/+i brick, R12/R13 the -k/+k row, CX/DX the -j/+j row, R10/R11 the
// plane's -j row for j = 0 and +j row for j = 7, R14 k, BX j; Y7/Y8 the
// store masks, Y9–Y15 the weights.
TEXT ·brick7Box(SB), NOSPLIT, $0-80
	MOVQ         w+24(FP), AX
	VBROADCASTSD 0(AX), Y9
	VBROADCASTSD 8(AX), Y10
	VBROADCASTSD 16(AX), Y11
	VBROADCASTSD 24(AX), Y12
	VBROADCASTSD 32(AX), Y13
	VBROADCASTSD 40(AX), Y14
	VBROADCASTSD 48(AX), Y15

	// lane x is stored iff x > lo0-1 and hi0 > x. VMOVQ, not MOVQ: a
	// legacy-SSE instruction after the YMM writes above pays an AVX–SSE
	// transition, which measured ~200 ns a call.
	MOVQ         lo0+32(FP), AX
	DECQ         AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	MOVQ         hi0+40(FP), AX
	VMOVQ        AX, X1
	VPBROADCASTQ X1, Y1
	VMOVDQU      lanes<>+0(SB), Y2
	VMOVDQU      lanes<>+32(SB), Y3
	VPCMPGTQ     Y0, Y2, Y7
	VPCMPGTQ     Y2, Y1, Y4
	VPAND        Y4, Y7, Y7
	VPCMPGTQ     Y0, Y3, Y8
	VPCMPGTQ     Y3, Y1, Y4
	VPAND        Y4, Y8, Y8

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
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VMULPD  Y9, Y0, Y4
	VADDPD  Y4, Y2, Y2
	VMULPD  Y9, Y1, Y5
	VADDPD  Y5, Y3, Y3

	// -i: [left c0 c1 c2] [c3 c4 c5 c6]
	VPERMPD      $0x90, Y0, Y4
	VBROADCASTSD 56(R8), Y6
	VBLENDPD     $1, Y6, Y4, Y4
	VMULPD       Y10, Y4, Y4
	VADDPD       Y4, Y2, Y2
	VMULPD       24(SI), Y10, Y5
	VADDPD       Y5, Y3, Y3

	// +i: [c1 c2 c3 c4] [c5 c6 c7 right]
	VMULPD       8(SI), Y11, Y4
	VADDPD       Y4, Y2, Y2
	VPERMPD      $0xF9, Y1, Y5
	VBROADCASTSD (R9), Y6
	VBLENDPD     $8, Y6, Y5, Y5
	VMULPD       Y11, Y5, Y5
	VADDPD       Y5, Y3, Y3

	// -j, +j, -k, +k
	VMULPD (CX), Y12, Y4
	VADDPD Y4, Y2, Y2
	VMULPD 32(CX), Y12, Y5
	VADDPD Y5, Y3, Y3
	VMULPD (DX), Y13, Y4
	VADDPD Y4, Y2, Y2
	VMULPD 32(DX), Y13, Y5
	VADDPD Y5, Y3, Y3
	VMULPD (R12), Y14, Y4
	VADDPD Y4, Y2, Y2
	VMULPD 32(R12), Y14, Y5
	VADDPD Y5, Y3, Y3
	VMULPD (R13), Y15, Y4
	VADDPD Y4, Y2, Y2
	VMULPD 32(R13), Y15, Y5
	VADDPD Y5, Y3, Y3

	VMASKMOVPD Y2, Y7, (DI)
	VMASKMOVPD Y3, Y8, 32(DI)

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

// func row7x4(out, c, jm, jp, km, kp []float64, w *[7]float64)
//
// Four elements per iteration; the ±i taps are unaligned loads of c one
// element either side of the centre.
TEXT ·row7x4(SB), NOSPLIT, $0-152
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), BX
	MOVQ c_base+24(FP), SI
	MOVQ jm_base+48(FP), R8
	MOVQ jp_base+72(FP), R9
	MOVQ km_base+96(FP), R10
	MOVQ kp_base+120(FP), R11
	MOVQ w+144(FP), AX
	VBROADCASTSD 0(AX), Y9
	VBROADCASTSD 8(AX), Y10
	VBROADCASTSD 16(AX), Y11
	VBROADCASTSD 24(AX), Y12
	VBROADCASTSD 32(AX), Y13
	VBROADCASTSD 40(AX), Y14
	VBROADCASTSD 48(AX), Y15
	ANDQ $-4, BX // whole groups of four only: never write past out
	SHLQ $3, BX
	XORQ AX, AX

loop4:
	CMPQ AX, BX
	JGE  done4
	VXORPD Y2, Y2, Y2
	VMULPD 8(SI)(AX*1), Y9, Y4
	VADDPD Y4, Y2, Y2
	VMULPD (SI)(AX*1), Y10, Y4
	VADDPD Y4, Y2, Y2
	VMULPD 16(SI)(AX*1), Y11, Y4
	VADDPD Y4, Y2, Y2
	VMULPD (R8)(AX*1), Y12, Y4
	VADDPD Y4, Y2, Y2
	VMULPD (R9)(AX*1), Y13, Y4
	VADDPD Y4, Y2, Y2
	VMULPD (R10)(AX*1), Y14, Y4
	VADDPD Y4, Y2, Y2
	VMULPD (R11)(AX*1), Y15, Y4
	VADDPD Y4, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ $32, AX
	JMP  loop4

done4:
	VZEROUPPER
	RET

// TAP adds one tap to one row: the coefficient (Y15) times the row's eight
// source elements at the tap's offset (R13), added to the row's
// accumulators — coefficient first, then accumulator first, as brick7Box
// and row7x4 order their operands.
#define TAP(row, a0, a1) \
	VMULPD (row)(R13*8), Y15, Y10; \
	VMULPD 32(row)(R13*8), Y15, Y11; \
	VADDPD Y10, a0, a0; \
	VADDPD Y11, a1, a1

// func tapRows8(out []float64, ostride int, src []float64, base, sstride, rows int, offs []int, cs []float64, lo, hi int)
//
// Each row is two YMM accumulators. Four rows (Y0–Y7) share every
// coefficient broadcast and offset load, which keeps eight independent add
// chains in flight over the table; one or two rows take a two-row loop
// (Y0–Y3). A row past rows reads the last real row again and is not stored.
//
// Registers: R9–R12 the source address of lane 0 of rows 0–3, DI the
// output row, R8 the output stride in bytes, BX/CX the offset and
// coefficient tables, DX the tap count, AX the tap index, R13 its offset.
TEXT ·tapRows8(SB), NOSPLIT, $0-144
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

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	CMPQ   SI, $2
	JGT    four

two:
	CMPQ         AX, DX
	JGE          store
	MOVQ         (BX)(AX*8), R13
	VBROADCASTSD (CX)(AX*8), Y15
	TAP(R9, Y0, Y1)
	TAP(R10, Y2, Y3)
	INCQ         AX
	JMP          two

four:
	CMPQ         AX, DX
	JGE          store
	MOVQ         (BX)(AX*8), R13
	VBROADCASTSD (CX)(AX*8), Y15
	TAP(R9, Y0, Y1)
	TAP(R10, Y2, Y3)
	TAP(R11, Y4, Y5)
	TAP(R12, Y6, Y7)
	INCQ         AX
	JMP          four

	// lane x is stored iff x > lo-1 and hi > x: masks Y8 (lanes 0–3) and
	// Y9 (lanes 4–7), built as in brick7Box (VMOVQ, not MOVQ)
store:
	MOVQ         lo+128(FP), AX
	DECQ         AX
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ         hi+136(FP), AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11
	VMOVDQU      lanes<>+0(SB), Y12
	VMOVDQU      lanes<>+32(SB), Y13
	VPCMPGTQ     Y10, Y12, Y8
	VPCMPGTQ     Y12, Y11, Y12
	VPAND        Y12, Y8, Y8
	VPCMPGTQ     Y10, Y13, Y9
	VPCMPGTQ     Y13, Y11, Y13
	VPAND        Y13, Y9, Y9

	VMASKMOVPD Y0, Y8, (DI)
	VMASKMOVPD Y1, Y9, 32(DI)
	CMPQ       SI, $2
	JLT        rowsdone
	ADDQ       R8, DI
	VMASKMOVPD Y2, Y8, (DI)
	VMASKMOVPD Y3, Y9, 32(DI)
	CMPQ       SI, $3
	JLT        rowsdone
	ADDQ       R8, DI
	VMASKMOVPD Y4, Y8, (DI)
	VMASKMOVPD Y5, Y9, 32(DI)
	CMPQ       SI, $4
	JLT        rowsdone
	ADDQ       R8, DI
	VMASKMOVPD Y6, Y8, (DI)
	VMASKMOVPD Y7, Y9, 32(DI)

rowsdone:
	VZEROUPPER
	RET

// func blockRows8(blk, src []float64, bases *[27]int64, tab []rowEnt)
//
// One block row per iteration: four unaligned YMM loads — lanes 4–7 of the
// -i brick's row, the own brick's eight lanes, lanes 0–3 of the +i brick's
// row — and four stores to the row's sixteen columns.
//
// Registers: DI the block row, SI the source, BX the 27 bases, CX the table
// entry, DX the entries left, AX the entry's adj, R8 the address of its
// offset in the source, R9–R11 the -i, own and +i bases.
TEXT ·blockRows8(SB), NOSPLIT, $0-80
	MOVQ blk_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ bases+48(FP), BX
	MOVQ tab_base+56(FP), CX
	MOVQ tab_len+64(FP), DX

fill:
	TESTQ   DX, DX
	JEQ     filled
	MOVLQSX 0(CX), AX
	MOVLQSX 4(CX), R8
	LEAQ    (SI)(R8*8), R8
	MOVQ    0(BX)(AX*8), R9
	MOVQ    8(BX)(AX*8), R10
	MOVQ    16(BX)(AX*8), R11
	VMOVUPD 32(R8)(R9*8), Y0
	VMOVUPD (R8)(R10*8), Y1
	VMOVUPD 32(R8)(R10*8), Y2
	VMOVUPD (R8)(R11*8), Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $8, CX
	ADDQ    $128, DI
	DECQ    DX
	JMP     fill

filled:
	VZEROUPPER
	RET
