package x86

// This file defines the micro-op (uop) layer: every decoded Inst resolves
// once, at decode/cache-fill time, into a compact Uop whose H field indexes
// the VM's dense dispatch table of per-(Op,Form) handler funcs. The
// resolution folds away everything the legacy interpreter switch re-derived
// on every retirement: operand routing (which Form), operand width masks
// and sign bits, the shift/ string / bit-test sub-operation, the count
// source (immediate vs CL), and accumulator-implied register operands.
//
// The handler index space is owned here so the binder and the executor
// agree by construction; the VM registers one func per index and a
// completeness test asserts every (Op, Form) pair the decoder can emit is
// bound to a real handler.

// Uop is the bound micro-op form of a decoded Inst. It carries only what
// handlers read on the hot path, and it is all the VM's predecoded
// instruction cache keeps of a decode.
type Uop struct {
	// H indexes the VM's dispatch table (always < NumUopHandlers).
	H uint16
	// Aux disambiguates handlers shared by an operation family: the Op of
	// a shift/rotate, string or bit-test instruction.
	Aux  uint16
	W    uint8 // operand width in bytes: 1, 2 or 4
	Cond uint8 // condition code for Jcc/SETcc/CMOVcc
	Reg  uint8 // reg-field or opcode-embedded register operand
	Len  uint8 // total encoded length in bytes
	Rep  uint8 // 0, 0xF2 (repne) or 0xF3 (rep/repe)
	RM   RM
	Imm  int32  // immediate operand (sign-extended at decode)
	Rel  int32  // branch displacement (sign-extended at decode)
	Mask uint32 // WidthMask(W), precomputed
	Sign uint32 // SignBit(W), precomputed
}

// Handler indices. UInvalid (the zero value) marks an unbound slot; UUD is
// the bound but unhandled case and raises #UD exactly like the legacy
// switch's default arm. The ALU block is laid out in form order
// (RMReg, RegRM, RMImm) per operation so the binder can index it.
const (
	UInvalid uint16 = iota

	// ALU family: base+0 = r/m,reg; base+1 = reg,r/m; base+2 = r/m,imm.
	// Accumulator-immediate forms bind to base+2 with a synthesized
	// register RM (see aluH).
	UAddRMReg
	UAddRegRM
	UAddRMImm
	UOrRMReg
	UOrRegRM
	UOrRMImm
	UAdcRMReg
	UAdcRegRM
	UAdcRMImm
	USbbRMReg
	USbbRegRM
	USbbRMImm
	UAndRMReg
	UAndRegRM
	UAndRMImm
	USubRMReg
	USubRegRM
	USubRMImm
	UXorRMReg
	UXorRegRM
	UXorRMImm
	UCmpRMReg
	UCmpRegRM
	UCmpRMImm
	UTestRMReg
	UTestRegRM
	UTestRMImm

	UIncReg
	UIncRM
	UDecReg
	UDecRM
	UNot
	UNeg
	UShiftImm
	UShiftCL
	UShldImm
	UShldCL
	UShrdImm
	UShrdCL
	UBitTestReg
	UBitTestImm
	UXadd
	UCmpxchg

	UMovRMReg
	UMovRegRM
	UMovRMImm
	UMovRegImm
	UMovMoffsLoad
	UMovMoffsStore
	UMovZX
	UMovSX8
	UMovSX16
	ULea
	UXchgAcc
	UXchgRM
	UBswap
	USetcc
	UCMov
	UMovFromSeg
	UMovToSeg

	UPushReg
	UPushImm
	UPushRM
	UPopReg
	UPopRM
	UPopDiscard
	UPushA
	UPopA
	UPushF
	UPopF
	ULeave
	UEnter

	UJcc
	UJmpRel
	UJmpRM
	UJCXZ
	ULoop
	ULoopE
	ULoopNE
	UCallRel
	UCallRM
	URet
	UInt3
	UInto
	USyscall
	UBadInt
	UBound

	UMul
	UIMulRM
	UIMulReg
	UIMulImm
	UDiv
	UIDiv

	UNop
	UCbw
	UCwde
	UCwd
	UCdq
	UClc
	UStc
	UCmc
	UCld
	UStd
	USahf
	ULahf
	USalc
	UXlat
	UString
	URdtsc
	UCpuid
	UPrivileged
	UUD

	// NumUopHandlers sizes the VM's dispatch table.
	NumUopHandlers
)

// Bind resolves the decoded instruction into its micro-op. It never fails:
// pairs with no dedicated handler bind to UUD, which faults exactly like
// the legacy switch's default arm.
func (in *Inst) Bind(u *Uop) {
	*u = Uop{
		W:    in.W,
		Cond: in.Cond,
		Reg:  in.Reg,
		Len:  in.Len,
		Rep:  in.Rep,
		RM:   in.RM,
		Imm:  in.Imm,
		Rel:  in.Rel,
		Mask: WidthMask(in.W),
		Sign: SignBit(in.W),
	}
	u.H = bindHandler(in, u)
}

// aluH maps an ALU operand form onto its handler within the op's block.
// The accumulator-immediate form is folded into the r/m,imm handler by
// synthesizing the register RM the ModRM decoder would have produced for
// the accumulator, so no handler re-derives the implied operand.
func aluH(base uint16, in *Inst, u *Uop) uint16 {
	switch in.Form {
	case FormRMReg:
		return base
	case FormRegRM:
		return base + 1
	case FormRMImm:
		return base + 2
	case FormAccImm:
		u.RM = RM{IsReg: true, Reg: EAX, Base: NoReg, Index: NoReg, Scale: 1}
		return base + 2
	}
	return UUD
}

//nolint:gocyclo // the one-time (Op, Form) -> handler resolution is one flat switch
func bindHandler(in *Inst, u *Uop) uint16 {
	switch in.Op {
	case OpAdd:
		return aluH(UAddRMReg, in, u)
	case OpOr:
		return aluH(UOrRMReg, in, u)
	case OpAdc:
		return aluH(UAdcRMReg, in, u)
	case OpSbb:
		return aluH(USbbRMReg, in, u)
	case OpAnd:
		return aluH(UAndRMReg, in, u)
	case OpSub:
		return aluH(USubRMReg, in, u)
	case OpXor:
		return aluH(UXorRMReg, in, u)
	case OpCmp:
		return aluH(UCmpRMReg, in, u)
	case OpTest:
		return aluH(UTestRMReg, in, u)

	case OpMov:
		switch in.Form {
		case FormRMReg:
			return UMovRMReg
		case FormRegRM:
			return UMovRegRM
		case FormRMImm:
			return UMovRMImm
		case FormRegImm:
			return UMovRegImm
		case FormMoffsLoad:
			return UMovMoffsLoad
		case FormMoffsStore:
			return UMovMoffsStore
		}
	case OpMovZX:
		return UMovZX
	case OpMovSX:
		if in.W == 1 {
			return UMovSX8
		}
		return UMovSX16
	case OpLea:
		return ULea
	case OpXchg:
		if in.Form == FormReg {
			return UXchgAcc
		}
		return UXchgRM
	case OpBswap:
		return UBswap
	case OpSetcc:
		return USetcc
	case OpCMov:
		return UCMov
	case OpMovFromSeg:
		return UMovFromSeg
	case OpMovToSeg:
		return UMovToSeg

	case OpPush:
		switch in.Form {
		case FormReg:
			return UPushReg
		case FormImm:
			return UPushImm
		case FormRM:
			return UPushRM
		}
	case OpPop:
		switch in.Form {
		case FormReg:
			return UPopReg
		case FormRM:
			return UPopRM
		case FormNone:
			return UPopDiscard
		}
	case OpPushA:
		return UPushA
	case OpPopA:
		return UPopA
	case OpPushF:
		return UPushF
	case OpPopF:
		return UPopF
	case OpLeave:
		return ULeave
	case OpEnter:
		return UEnter

	case OpInc:
		if in.Form == FormReg {
			return UIncReg
		}
		return UIncRM
	case OpDec:
		if in.Form == FormReg {
			return UDecReg
		}
		return UDecRM
	case OpNot:
		return UNot
	case OpNeg:
		return UNeg
	case OpRol, OpRor, OpRcl, OpRcr, OpShl, OpShr, OpSar:
		u.Aux = uint16(in.Op)
		if in.Form == FormRM { // count in CL
			return UShiftCL
		}
		return UShiftImm
	case OpShld:
		if in.Imm == -1 { // marker: count in CL
			return UShldCL
		}
		return UShldImm
	case OpShrd:
		if in.Imm == -1 {
			return UShrdCL
		}
		return UShrdImm
	case OpBt, OpBts, OpBtr, OpBtc:
		u.Aux = uint16(in.Op)
		if in.Form == FormRMImm {
			return UBitTestImm
		}
		return UBitTestReg
	case OpXadd:
		return UXadd
	case OpCmpxchg:
		return UCmpxchg

	case OpJcc:
		return UJcc
	case OpJmp:
		if in.Form == FormRM {
			return UJmpRM
		}
		return UJmpRel
	case OpJCXZ:
		return UJCXZ
	case OpLoop:
		return ULoop
	case OpLoopE:
		return ULoopE
	case OpLoopNE:
		return ULoopNE
	case OpCall:
		if in.Form == FormRM {
			return UCallRM
		}
		return UCallRel
	case OpRet:
		// FormNone decodes with Imm == 0, so one handler covers both the
		// plain and the stack-adjusting return.
		return URet
	case OpIntN:
		if in.Imm == 0x80 {
			return USyscall
		}
		return UBadInt
	case OpInt3:
		return UInt3
	case OpInto:
		return UInto
	case OpBound:
		return UBound

	case OpMul:
		return UMul
	case OpIMul:
		switch in.Form {
		case FormRM:
			return UIMulRM
		case FormRegRM:
			return UIMulReg
		case FormRegRMImm:
			return UIMulImm
		}
	case OpDiv:
		return UDiv
	case OpIDiv:
		return UIDiv

	case OpNop, OpArpl:
		return UNop
	case OpCbw:
		if in.W == 2 { // cbw: ax = sext(al)
			return UCbw
		}
		return UCwde
	case OpCwd:
		if in.W == 2 { // cwd: dx = sign(ax)
			return UCwd
		}
		return UCdq
	case OpClc:
		return UClc
	case OpStc:
		return UStc
	case OpCmc:
		return UCmc
	case OpCld:
		return UCld
	case OpStd:
		return UStd
	case OpSahf:
		return USahf
	case OpLahf:
		return ULahf
	case OpSalc:
		return USalc
	case OpXlat:
		return UXlat
	case OpMovs, OpCmps, OpStos, OpLods, OpScas:
		u.Aux = uint16(in.Op)
		return UString
	case OpRdtsc:
		return URdtsc
	case OpCpuid:
		return UCpuid
	case OpHlt, OpPrivileged:
		return UPrivileged
	}
	return UUD
}
