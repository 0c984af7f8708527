package x86

// This file carries the general-purpose register use/def metadata the
// campaign engine's golden shadow uses for register liveness: a register
// fault whose register the fault-free session fully overwrites before it
// reads it again — or never reads again — cannot change the run, so its
// outcome is the golden one (DESIGN.md §3k).
//
// Like UopEffects the metadata is conservative. An instruction reads a
// register whenever its outcome (result, flags, memory, EIP, fault) may
// depend on it, and writes a register whenever it may change it. Only a
// full 32-bit write that does not depend on the old value is a kill: a
// partial (8- or 16-bit) write also counts as a read, so the two masks may
// overlap, and an instruction that both reads and writes a register reads
// it first. Anything not listed — mostly operations only corrupted code
// reaches — reads and writes all eight registers.

// RegMask is a set of general-purpose registers: bit r is register r.
type RegMask = uint8

// AllRegs is every general-purpose register.
const AllRegs RegMask = 1<<NumRegs - 1

// regUseDef accumulates one instruction's register reads and writes.
type regUseDef struct{ reads, writes RegMask }

// reg32 maps a register operand number at width w to the 32-bit register
// it lives in: in 8-bit encodings 4..7 are AH/CH/DH/BH.
func reg32(n, w uint8) uint8 {
	if w == 1 {
		return n & 3
	}
	return n & 7
}

func (u *regUseDef) read(n, w uint8) { u.reads |= 1 << reg32(n, w) }

// write records a write of register operand n at width w; a partial write
// keeps the untouched bytes, so it reads the register as well.
func (u *regUseDef) write(n, w uint8) {
	b := RegMask(1) << reg32(n, w)
	u.writes |= b
	if w != 4 {
		u.reads |= b
	}
}

// addr records the registers a memory operand's address reads.
func (u *regUseDef) addr(rm *RM) {
	if rm.Base != NoReg {
		u.reads |= 1 << uint8(rm.Base&7)
	}
	if rm.Index != NoReg {
		u.reads |= 1 << uint8(rm.Index&7)
	}
}

func (u *regUseDef) readRM(rm *RM, w uint8) {
	if rm.IsReg {
		u.read(rm.Reg, w)
		return
	}
	u.addr(rm)
}

func (u *regUseDef) writeRM(rm *RM, w uint8) {
	if rm.IsReg {
		u.write(rm.Reg, w)
		return
	}
	u.addr(rm)
}

// both records a read and a write of each register in m.
func (u *regUseDef) both(m RegMask) {
	u.reads |= m
	u.writes |= m
}

const (
	maskEAX = RegMask(1) << EAX
	maskECX = RegMask(1) << ECX
	maskEDX = RegMask(1) << EDX
	maskEBX = RegMask(1) << EBX
	maskESP = RegMask(1) << ESP
	maskEBP = RegMask(1) << EBP
	maskESI = RegMask(1) << ESI
	maskEDI = RegMask(1) << EDI
)

// mulDiv records the one-operand multiply and divide forms: EDX:EAX (or
// AX) against r/m. A 32-bit multiply overwrites EDX without reading it.
func (u *regUseDef) mulDiv(in *Inst) {
	u.readRM(&in.RM, in.W)
	u.both(maskEAX)
	switch {
	case in.Op == OpDiv || in.Op == OpIDiv:
		u.both(maskEDX)
	case in.W != 1:
		u.write(EDX, in.W)
	}
}

// zeroIdiom reports a 32-bit xor or sub of a register with itself, whose
// result (zero) and flags do not depend on the register.
func zeroIdiom(in *Inst) bool {
	return (in.Op == OpXor || in.Op == OpSub) && in.W == 4 &&
		(in.Form == FormRMReg || in.Form == FormRegRM) && in.RM.IsReg && in.RM.Reg == in.Reg
}

// RegUseDef returns the general-purpose registers instruction in may read
// and the ones it may write. A register in writes but not in reads is
// fully overwritten with a value that does not depend on it, unless the
// instruction faults first.
//
//nolint:gocyclo // one arm per operation, mirroring the interpreter switch
func RegUseDef(in *Inst) (reads, writes RegMask) {
	var u regUseDef
	switch in.Op {
	case OpAdd, OpOr, OpAdc, OpSbb, OpAnd, OpSub, OpXor, OpCmp, OpTest:
		if zeroIdiom(in) {
			return 0, 1 << (in.Reg & 7)
		}
		store := in.Op != OpCmp && in.Op != OpTest
		switch in.Form {
		case FormRMReg:
			u.readRM(&in.RM, in.W)
			u.read(in.Reg, in.W)
			if store {
				u.writeRM(&in.RM, in.W)
			}
		case FormRegRM:
			u.read(in.Reg, in.W)
			u.readRM(&in.RM, in.W)
			if store {
				u.write(in.Reg, in.W)
			}
		case FormRMImm:
			u.readRM(&in.RM, in.W)
			if store {
				u.writeRM(&in.RM, in.W)
			}
		case FormAccImm:
			u.read(EAX, in.W)
			if store {
				u.write(EAX, in.W)
			}
		default:
			return AllRegs, AllRegs
		}

	case OpMov:
		switch in.Form {
		case FormRMReg:
			u.read(in.Reg, in.W)
			u.writeRM(&in.RM, in.W)
		case FormRegRM:
			u.readRM(&in.RM, in.W)
			u.write(in.Reg, in.W)
		case FormRMImm:
			u.writeRM(&in.RM, in.W)
		case FormRegImm:
			u.write(in.Reg, in.W)
		case FormMoffsLoad:
			u.write(EAX, in.W)
		case FormMoffsStore:
			u.read(EAX, in.W)
		default:
			return AllRegs, AllRegs
		}

	case OpMovZX, OpMovSX: // W is the source width; the destination is 32-bit
		u.readRM(&in.RM, in.W)
		u.write(in.Reg, 4)
	case OpLea:
		u.addr(&in.RM)
		u.write(in.Reg, 4)

	case OpXchg:
		if in.Form == FormReg { // xchg eax, r32 swaps whole registers
			u.both(maskEAX | 1<<(in.Reg&7))
			break
		}
		u.read(in.Reg, in.W)
		u.readRM(&in.RM, in.W)
		u.writeRM(&in.RM, in.W)
		u.write(in.Reg, in.W)

	case OpPush:
		u.both(maskESP)
		switch in.Form {
		case FormReg:
			u.read(in.Reg, 4)
		case FormRM:
			u.readRM(&in.RM, 4)
		}
	case OpPop:
		u.both(maskESP)
		switch in.Form {
		case FormReg:
			u.write(in.Reg, 4)
		case FormRM:
			u.writeRM(&in.RM, 4)
		}
	case OpPushA, OpPopA:
		u.both(AllRegs)
	case OpPushF, OpPopF, OpRet:
		u.both(maskESP)
	case OpCall:
		u.both(maskESP)
		if in.Form == FormRM {
			u.readRM(&in.RM, 4)
		}
	case OpLeave, OpEnter:
		u.both(maskESP | maskEBP)

	case OpInc, OpDec:
		if in.Form == FormReg {
			u.read(in.Reg, in.W)
			u.write(in.Reg, in.W)
			break
		}
		u.readRM(&in.RM, in.W)
		u.writeRM(&in.RM, in.W)
	case OpNot, OpNeg:
		u.readRM(&in.RM, in.W)
		u.writeRM(&in.RM, in.W)

	case OpMul, OpDiv, OpIDiv:
		u.mulDiv(in)
	case OpIMul:
		switch in.Form {
		case FormRM:
			u.mulDiv(in)
		case FormRegRM:
			u.readRM(&in.RM, 4)
			u.read(in.Reg, 4)
			u.write(in.Reg, 4)
		case FormRegRMImm:
			u.readRM(&in.RM, 4)
			u.write(in.Reg, 4)
		default:
			return AllRegs, AllRegs
		}

	case OpRol, OpRor, OpRcl, OpRcr, OpShl, OpShr, OpSar:
		if in.Form == FormRM { // count in CL
			u.read(ECX, 4)
		}
		u.readRM(&in.RM, in.W)
		u.writeRM(&in.RM, in.W)

	case OpJcc, OpNop, OpInt3, OpHlt, OpPrivileged, OpClc, OpStc, OpCmc, OpCld, OpStd:
		// Flags, EIP or a fault only.
	case OpJmp:
		if in.Form == FormRM {
			u.readRM(&in.RM, 4)
		}
	case OpJCXZ:
		u.read(ECX, 4)
	case OpLoop, OpLoopE, OpLoopNE:
		u.both(maskECX)
	case OpSetcc:
		u.writeRM(&in.RM, 1)

	case OpIntN:
		// The kernel reads the call number and arguments from EAX-EDX.
		// It writes its result to EAX, except on exit; counting no write
		// keeps EAX live across every call.
		u.reads |= maskEAX | maskEBX | maskECX | maskEDX

	case OpCbw:
		u.both(maskEAX)
	case OpCwd:
		u.read(EAX, 4)
		u.write(EDX, in.W)
	case OpXlat:
		u.read(EBX, 4)
		u.both(maskEAX)
	case OpMovs, OpCmps, OpStos, OpLods, OpScas:
		u.both(maskESI | maskEDI | maskECX | maskEAX)

	default:
		return AllRegs, AllRegs
	}
	return u.reads, u.writes
}
