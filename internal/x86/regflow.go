package x86

// This file carries the data-flow metadata the campaign engine's golden
// shadow uses for strong (faint-variable) liveness over register byte
// lanes, EFLAGS bits and guest memory bytes (DESIGN.md §3k). A location is
// strongly live before an instruction when its value can still reach an
// observable of the session: a branch, an address, a fault, a syscall or
// the bytes the kernel reads. A register fault whose corrupted lanes are
// not strongly live at its activation cannot change the run.
//
// A Flow splits one instruction into three parts:
//
//   - copies, which move bytes unchanged from a source to a destination
//     operand (mov, push, pop, xchg, and movzx for its low lanes): a source
//     byte is live only if its destination byte is live after;
//   - a computed part: if any location it writes is live after, every
//     location it reads is live before;
//   - sinks, live before the instruction whatever is live after: address
//     registers, the flags a branch or setcc reads, div operands, indirect
//     branch targets (the return address ret pops included), the syscall
//     arguments EAX-EDX.
//
// The metadata is conservative. A written location that the instruction
// may leave unchanged, or compute from its own old value, is also read.
// The computed part reads and writes whole registers: an 8- or 16-bit
// write keeps the untouched bytes, so it reads the register as well, and
// only a 32-bit write whose value does not depend on the
// register kills it. A memory operand's address registers are computed
// reads as well as sinks. Anything not listed — mostly operations only
// corrupted code reaches — is Opaque: every location is live before it.

// Flag groups as the VM's flag cores write them.
const (
	// arithFlags: ADD/ADC/SUB/SBB/CMP/NEG set all six status flags.
	arithFlags = FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagOF
	// logicFlags: AND/OR/XOR/TEST clear CF/OF and set SF/ZF/PF; AF is
	// left untouched.
	logicFlags = FlagCF | FlagPF | FlagZF | FlagSF | FlagOF
	// incFlags: INC/DEC set everything but CF, which they preserve.
	incFlags = FlagPF | FlagAF | FlagZF | FlagSF | FlagOF
)

// Lanes is a set of general-purpose register byte lanes: bit 4·r+i is
// byte i, least significant first, of register r.
type Lanes uint32

// AllLanes is every lane of every register.
const AllLanes Lanes = 1<<(4*NumRegs) - 1

// regLanes are the four lanes of register 0.
const regLanes Lanes = 0xF

// firstLane returns the lane register operand n starts at for width w: in
// 8-bit encodings 4..7 are AH..BH, lane 1 of EAX..EBX.
func firstLane(n, w uint8) uint8 {
	if w == 1 && n&7 >= 4 {
		return 4*(n&3) + 1
	}
	return 4 * (n & 7)
}

// RegLanes returns the lanes register operand n occupies at width w.
func RegLanes(n, w uint8) Lanes {
	return Lanes(1<<w-1) << firstLane(n, w)
}

// MaskLanes returns the lanes of register r that an XOR with mask changes.
func MaskLanes(r uint8, mask uint32) Lanes {
	var l Lanes
	for i := uint8(0); i < 4; i++ {
		if mask>>(8*i)&0xFF != 0 {
			l |= 1 << (4*(r&7) + i)
		}
	}
	return l
}

// wholeReg returns the four lanes of the register that register operand
// n at width w lives in.
func wholeReg(n, w uint8) Lanes {
	return regLanes << (firstLane(n, w) &^ 3)
}

// addrRegs returns the lanes of memory operand rm's base and index.
func addrRegs(rm *RM) Lanes {
	var l Lanes
	if rm.Base != NoReg {
		l |= wholeReg(uint8(rm.Base), 4)
	}
	if rm.Index != NoReg {
		l |= wholeReg(uint8(rm.Index), 4)
	}
	return l
}

// Memory operands of a Flow, as bits of MemReads, MemWrites and SinkMem.
const (
	// MemRM is the r/m memory operand: MemW bytes at Addr.
	MemRM uint8 = 1 << iota
	// MemStack is the stack slot a push, pop, call, ret or leave moves:
	// four bytes at StackBase + StackOff.
	MemStack
)

// Operand is a copy's source or destination.
type Operand struct {
	// Mem is MemRM or MemStack for a memory operand, 0 for a register.
	Mem uint8
	// Lane is a register operand's first lane (4·r+i).
	Lane uint8
}

// Copy moves N bytes unchanged from Src to Dst, byte i to byte i.
type Copy struct{ Dst, Src Operand }

// Flow is one instruction's data flow for strong liveness.
type Flow struct {
	// Opaque makes every location live before the instruction.
	Opaque bool

	// Copies are read in full before any destination is written.
	Copies  [2]Copy
	NCopies uint8
	// N is each copy's byte count.
	N uint8

	// The computed part. Writes are overwritten with values computed from
	// the reads; a location left unchanged on some path is also a read.
	Reads, Writes         Lanes
	FlagReads, FlagWrites uint32
	MemReads, MemWrites   uint8

	// Sinks are live before the instruction whatever is live after.
	Sinks     Lanes
	SinkFlags uint32
	SinkMem   uint8

	// Addr is the r/m memory operand's address, MemW its width (0 when the
	// instruction has none); the operand's base and index are sinks.
	Addr RM
	MemW uint8
	// StackBase and StackOff locate the stack slot: the pre-step value of
	// register StackBase plus StackOff.
	HasStack  bool
	StackBase uint8
	StackOff  int8
}

// EffAddr is the address of memory operand rm under registers regs. The
// interpreter computes every operand address with it.
func EffAddr(rm *RM, regs *[NumRegs]uint32) uint32 {
	addr := uint32(rm.Disp)
	if rm.Base != NoReg {
		addr += regs[rm.Base]
	}
	if rm.Index != NoReg {
		addr += regs[rm.Index] * uint32(rm.Scale)
	}
	return addr
}

// StackAddr is the stack slot's address under registers regs.
func (f *Flow) StackAddr(regs *[NumRegs]uint32) uint32 {
	return regs[f.StackBase] + uint32(int32(f.StackOff))
}

// condReads returns the flags condition cc tests.
func condReads(cc uint8) uint32 {
	return [8]uint32{FlagOF, FlagCF, FlagZF, FlagCF | FlagZF, FlagSF, FlagPF,
		FlagSF | FlagOF, FlagZF | FlagSF | FlagOF}[cc>>1&7]
}

// zeroIdiom reports a 32-bit xor or sub of a register with itself, whose
// result (zero) and flags do not depend on the register.
func zeroIdiom(in *Inst) bool {
	return (in.Op == OpXor || in.Op == OpSub) && in.W == 4 &&
		(in.Form == FormRMReg || in.Form == FormRegRM) && in.RM.IsReg && in.RM.Reg == in.Reg
}

// mem makes rm, read or written at width w, the r/m operand: a memory
// operand's base and index become sinks. It returns the operand.
func (f *Flow) mem(rm *RM, w uint8) Operand {
	if rm.IsReg {
		return Operand{Lane: firstLane(rm.Reg, w)}
	}
	f.Addr, f.MemW = *rm, w
	f.Sinks |= addrRegs(rm)
	return Operand{Mem: MemRM}
}

// copy adds a copy of n bytes from src to dst.
func (f *Flow) copy(dst, src Operand, n uint8) {
	f.Copies[f.NCopies] = Copy{dst, src}
	f.NCopies++
	f.N = n
}

// read makes register operand n at width w a computed-part read.
func (f *Flow) read(n, w uint8) { f.Reads |= wholeReg(n, w) }

// write makes register operand n at width w a computed-part write; a
// partial write keeps the untouched bytes, so it reads the register too.
func (f *Flow) write(n, w uint8) {
	f.Writes |= wholeReg(n, w)
	if w != 4 {
		f.read(n, w)
	}
}

// modify makes register operand n at width w a computed-part read and
// write.
func (f *Flow) modify(n, w uint8) {
	f.read(n, w)
	f.write(n, w)
}

// compute makes in's r/m operand at width w a computed-part read and, if
// write, a computed-part write.
func (f *Flow) compute(in *Inst, w uint8, write bool) {
	if in.RM.IsReg {
		f.read(in.RM.Reg, w)
		if write {
			f.write(in.RM.Reg, w)
		}
		return
	}
	f.mem(&in.RM, w)
	f.Reads |= addrRegs(&in.RM)
	f.MemReads = MemRM
	if write {
		f.MemWrites = MemRM
	}
}

// stack makes the stack slot at register base plus off the instruction's
// stack operand. For ESP, the computed part adjusts ESP and ESP is a sink.
func (f *Flow) stack(base uint8, off int8) {
	f.HasStack, f.StackBase, f.StackOff = true, base, off
	if base == ESP {
		f.Reads |= regLanes << (4 * ESP)
		f.Writes |= regLanes << (4 * ESP)
		f.Sinks |= regLanes << (4 * ESP)
	}
}

// sinkRM makes in's r/m operand at width w a sink: an indirect target or
// a divisor.
func (f *Flow) sinkRM(in *Inst, w uint8) {
	if op := f.mem(&in.RM, w); op.Mem != 0 {
		f.SinkMem |= MemRM
	} else {
		f.Sinks |= regLanes << (op.Lane &^ 3)
	}
}

// RegFlow returns instruction in's data flow.
//
//nolint:gocyclo // one arm per operation, mirroring the interpreter switch
func RegFlow(in *Inst) Flow {
	var f Flow
	opaque := Flow{Opaque: true}
	switch in.Op {
	case OpAdd, OpOr, OpAdc, OpSbb, OpAnd, OpSub, OpXor, OpCmp, OpTest:
		store := in.Op != OpCmp && in.Op != OpTest
		switch {
		case zeroIdiom(in):
			f.Writes = wholeReg(in.Reg, 4)
		case in.Form == FormRMReg:
			f.compute(in, in.W, store)
			f.read(in.Reg, in.W)
		case in.Form == FormRegRM:
			f.compute(in, in.W, false)
			f.read(in.Reg, in.W)
			if store {
				f.write(in.Reg, in.W)
			}
		case in.Form == FormRMImm:
			f.compute(in, in.W, store)
		case in.Form == FormAccImm:
			f.read(EAX, in.W)
			if store {
				f.write(EAX, in.W)
			}
		default:
			return opaque
		}
		switch in.Op {
		case OpAnd, OpOr, OpXor, OpTest: // AF is left as it was
			f.FlagWrites = logicFlags
		case OpAdc, OpSbb:
			f.FlagReads, f.SinkFlags, f.FlagWrites = FlagCF, FlagCF, arithFlags
		default:
			f.FlagWrites = arithFlags
		}

	case OpMov:
		switch in.Form {
		case FormRMReg:
			f.copy(f.mem(&in.RM, in.W), Operand{Lane: firstLane(in.Reg, in.W)}, in.W)
		case FormRegRM:
			f.copy(Operand{Lane: firstLane(in.Reg, in.W)}, f.mem(&in.RM, in.W), in.W)
		case FormRMImm:
			if op := f.mem(&in.RM, in.W); op.Mem != 0 {
				f.MemWrites = MemRM
			} else {
				f.Writes = RegLanes(in.RM.Reg, in.W)
			}
		case FormRegImm:
			f.Writes = RegLanes(in.Reg, in.W)
		case FormMoffsLoad, FormMoffsStore:
			moffs := RM{Base: NoReg, Index: NoReg, Disp: in.Imm}
			acc := Operand{Lane: firstLane(EAX, in.W)}
			if in.Form == FormMoffsLoad {
				f.copy(acc, f.mem(&moffs, in.W), in.W)
			} else {
				f.copy(f.mem(&moffs, in.W), acc, in.W)
			}
		default:
			return opaque
		}

	case OpMovZX: // W is the source width; the upper lanes become zero
		f.copy(Operand{Lane: 4 * (in.Reg & 7)}, f.mem(&in.RM, in.W), in.W)
		f.Writes = (regLanes &^ Lanes(1<<in.W-1)) << (4 * (in.Reg & 7))
	case OpMovSX:
		f.compute(in, in.W, false)
		f.write(in.Reg, 4)
	case OpLea: // no memory access: the base and index are data
		f.Reads, f.Writes = addrRegs(&in.RM), wholeReg(in.Reg, 4)

	case OpXchg:
		if in.Form == FormReg { // xchg eax, r32
			r := Operand{Lane: 4 * (in.Reg & 7)}
			f.copy(Operand{}, r, 4)
			f.copy(r, Operand{}, 4)
			break
		}
		r, rm := Operand{Lane: firstLane(in.Reg, in.W)}, f.mem(&in.RM, in.W)
		f.copy(rm, r, in.W)
		f.copy(r, rm, in.W)

	case OpPush:
		f.stack(ESP, -4)
		slot := Operand{Mem: MemStack}
		switch in.Form {
		case FormReg:
			f.copy(slot, Operand{Lane: 4 * (in.Reg & 7)}, 4)
		case FormRM:
			f.copy(slot, f.mem(&in.RM, 4), 4)
		case FormImm:
			f.MemWrites = MemStack
		default:
			return opaque
		}
	case OpPop:
		f.stack(ESP, 0)
		switch in.Form {
		case FormReg:
			f.copy(Operand{Lane: 4 * (in.Reg & 7)}, Operand{Mem: MemStack}, 4)
		case FormRM:
			if !in.RM.IsReg { // addressed after ESP moves
				return opaque
			}
			f.copy(Operand{Lane: 4 * (in.RM.Reg & 7)}, Operand{Mem: MemStack}, 4)
		case FormNone: // pop sreg discards the value
		default:
			return opaque
		}
	case OpCall:
		f.stack(ESP, -4)
		f.MemWrites = MemStack // the return address
		switch in.Form {
		case FormRel:
		case FormRM:
			f.sinkRM(in, 4)
		default:
			return opaque
		}
	case OpRet:
		f.stack(ESP, 0)
		f.SinkMem = MemStack
	case OpLeave: // mov esp, ebp; pop ebp
		f.stack(EBP, 0)
		f.copy(Operand{Lane: 4 * EBP}, Operand{Mem: MemStack}, 4)
		f.Reads, f.Writes, f.Sinks = regLanes<<(4*EBP), regLanes<<(4*ESP), regLanes<<(4*EBP)

	case OpInc, OpDec:
		if in.Form == FormReg {
			f.modify(in.Reg, in.W)
		} else {
			f.compute(in, in.W, true)
		}
		f.FlagWrites = incFlags
	case OpNot:
		f.compute(in, in.W, true)
	case OpNeg:
		f.compute(in, in.W, true)
		f.FlagWrites = arithFlags

	case OpMul, OpIMul, OpDiv, OpIDiv:
		div := in.Op == OpDiv || in.Op == OpIDiv
		switch {
		case in.Form == FormRM: // EDX:EAX (or AX) against r/m
			f.compute(in, in.W, false)
			f.modify(EAX, 4)
			switch {
			case div:
				f.modify(EDX, 4)
			case in.W != 1: // a 32-bit multiply overwrites EDX unread
				f.write(EDX, in.W)
			}
		case in.Op == OpIMul && (in.Form == FormRegRM || in.Form == FormRegRMImm):
			f.compute(in, 4, false)
			if in.Form == FormRegRM {
				f.read(in.Reg, 4)
			}
			f.write(in.Reg, 4)
		default:
			return opaque
		}
		f.FlagReads, f.FlagWrites = arithFlags, arithFlags
		if div { // the quotient may fault
			f.Sinks |= regLanes<<(4*EAX) | regLanes<<(4*EDX)
			f.sinkRM(in, in.W)
		}

	case OpRol, OpRor, OpRcl, OpRcr, OpShl, OpShr, OpSar:
		f.compute(in, in.W, true)
		if in.Form == FormRM { // count in CL
			f.read(ECX, 4)
		}
		f.FlagReads, f.FlagWrites = arithFlags, arithFlags

	case OpJcc:
		f.SinkFlags = condReads(in.Cond)
	case OpSetcc:
		f.SinkFlags = condReads(in.Cond)
		if op := f.mem(&in.RM, 1); op.Mem != 0 {
			f.MemWrites = MemRM
		} else {
			f.Writes = RegLanes(in.RM.Reg, 1)
		}
	case OpJmp:
		switch in.Form {
		case FormRel:
		case FormRM:
			f.sinkRM(in, 4)
		default:
			return opaque
		}
	case OpJCXZ:
		f.Sinks = regLanes << (4 * ECX)
	case OpLoop, OpLoopE, OpLoopNE:
		f.Reads, f.Writes, f.Sinks = regLanes<<(4*ECX), regLanes<<(4*ECX), regLanes<<(4*ECX)
		if in.Op != OpLoop {
			f.SinkFlags = FlagZF
		}

	case OpNop, OpInt3, OpHlt, OpPrivileged:
		// EIP or an unconditional fault only.
	case OpIntN:
		if in.Imm == 0x80 { // the kernel reads the call number and arguments
			f.Sinks = regLanes<<(4*EAX) | regLanes<<(4*ECX) | regLanes<<(4*EDX) | regLanes<<(4*EBX)
		}
	case OpCbw: // AL into AX, or AX into EAX
		f.modify(EAX, 4)
	case OpCwd: // the sign of AX into DX, or of EAX into EDX
		f.read(EAX, 4)
		f.write(EDX, in.W)
	case OpClc, OpStc:
		f.FlagWrites = FlagCF
	case OpCmc:
		f.FlagReads, f.FlagWrites = FlagCF, FlagCF
	case OpCld, OpStd:
		f.FlagWrites = FlagDF

	default:
		return opaque
	}
	return f
}
