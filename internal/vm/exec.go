package vm

import (
	"faultsec/internal/x86"
)

// exec executes one decoded instruction via the legacy monolithic switch.
// pc is the address of the instruction; m.EIP is advanced here.
//
// This path runs every decode of a NoICache machine, which no production
// machine is, and is the reference semantics the micro-op pipeline is
// differentially tested against: the warm path binds each decode to a
// handler index once and dispatches through uopTable (see exec_uop.go and
// the exec_*.go handler families), so this switch never runs per cached
// retirement.
//
//nolint:gocyclo // a CPU dispatch loop is inherently one large switch
func (m *Machine) exec(in *x86.Inst, pc uint32) error {
	next := pc + uint32(in.Len)
	m.EIP = next

	fault := func(k FaultKind, addr uint32) error {
		return &Fault{Kind: k, Addr: addr, PC: pc}
	}
	memFault := func(f *Fault) error {
		f.PC = pc
		return f
	}

	// src/dst resolution for the common two-operand forms.
	loadOperands := func() (dst uint32, src uint32, f *Fault) {
		switch in.Form {
		case x86.FormRMReg:
			dst, f = m.rmRead(&in.RM, in.W)
			src = m.regRead(in.Reg, in.W)
		case x86.FormRegRM:
			dst = m.regRead(in.Reg, in.W)
			src, f = m.rmRead(&in.RM, in.W)
		case x86.FormRMImm:
			dst, f = m.rmRead(&in.RM, in.W)
			src = uint32(in.Imm)
		case x86.FormAccImm:
			dst = m.regRead(x86.EAX, in.W)
			src = uint32(in.Imm)
		}
		return dst, src, f
	}
	storeResult := func(v uint32) *Fault {
		switch in.Form {
		case x86.FormRMReg, x86.FormRMImm:
			return m.rmWrite(&in.RM, in.W, v)
		case x86.FormRegRM:
			m.regWrite(in.Reg, in.W, v)
		case x86.FormAccImm:
			m.regWrite(x86.EAX, in.W, v)
		}
		return nil
	}

	switch in.Op {
	case x86.OpAdd, x86.OpAdc, x86.OpSub, x86.OpSbb, x86.OpCmp,
		x86.OpAnd, x86.OpOr, x86.OpXor, x86.OpTest:
		dst, src, f := loadOperands()
		if f != nil {
			return memFault(f)
		}
		var r uint32
		switch in.Op {
		case x86.OpAdd:
			r = m.addFlags(dst, src, 0, in.W)
		case x86.OpAdc:
			r = m.addFlags(dst, src, b2u(m.GetFlag(x86.FlagCF)), in.W)
		case x86.OpSub, x86.OpCmp:
			r = m.subFlags(dst, src, 0, in.W)
		case x86.OpSbb:
			r = m.subFlags(dst, src, b2u(m.GetFlag(x86.FlagCF)), in.W)
		case x86.OpAnd, x86.OpTest:
			r = m.logicFlags(dst&src, in.W)
		case x86.OpOr:
			r = m.logicFlags(dst|src, in.W)
		case x86.OpXor:
			r = m.logicFlags(dst^src, in.W)
		}
		if in.Op == x86.OpCmp || in.Op == x86.OpTest {
			return nil
		}
		if f := storeResult(r); f != nil {
			return memFault(f)
		}
		return nil

	case x86.OpMov:
		switch in.Form {
		case x86.FormRMReg:
			if f := m.rmWrite(&in.RM, in.W, m.regRead(in.Reg, in.W)); f != nil {
				return memFault(f)
			}
		case x86.FormRegRM:
			v, f := m.rmRead(&in.RM, in.W)
			if f != nil {
				return memFault(f)
			}
			m.regWrite(in.Reg, in.W, v)
		case x86.FormRMImm:
			if f := m.rmWrite(&in.RM, in.W, uint32(in.Imm)); f != nil {
				return memFault(f)
			}
		case x86.FormRegImm:
			m.regWrite(in.Reg, in.W, uint32(in.Imm))
		case x86.FormMoffsLoad:
			v, f := m.Mem.ReadW(uint32(in.Imm), in.W)
			if f != nil {
				return memFault(f)
			}
			m.regWrite(x86.EAX, in.W, v)
		case x86.FormMoffsStore:
			if f := m.Mem.WriteW(uint32(in.Imm), m.regRead(x86.EAX, in.W), in.W); f != nil {
				return memFault(f)
			}
		}
		return nil

	case x86.OpMovZX, x86.OpMovSX:
		v, f := m.rmRead(&in.RM, in.W) // in.W is the source width
		if f != nil {
			return memFault(f)
		}
		if in.Op == x86.OpMovSX {
			if in.W == 1 {
				v = uint32(int32(int8(v)))
			} else {
				v = uint32(int32(int16(v)))
			}
		}
		m.regWrite(in.Reg, 4, v)
		return nil

	case x86.OpLea:
		m.regWrite(in.Reg, 4, m.effAddr(&in.RM))
		return nil

	case x86.OpXchg:
		if in.Form == x86.FormReg { // xchg eax, r32
			m.Regs[x86.EAX], m.Regs[in.Reg] = m.Regs[in.Reg], m.Regs[x86.EAX]
			return nil
		}
		rv := m.regRead(in.Reg, in.W)
		mv, f := m.rmRead(&in.RM, in.W)
		if f != nil {
			return memFault(f)
		}
		if f := m.rmWrite(&in.RM, in.W, rv); f != nil {
			return memFault(f)
		}
		m.regWrite(in.Reg, in.W, mv)
		return nil

	case x86.OpPush:
		var v uint32
		switch in.Form {
		case x86.FormReg:
			v = m.Regs[in.Reg]
		case x86.FormImm:
			v = uint32(in.Imm)
		case x86.FormRM:
			var f *Fault
			v, f = m.rmRead(&in.RM, 4)
			if f != nil {
				return memFault(f)
			}
		}
		if f := m.push(v); f != nil {
			return memFault(f)
		}
		return nil

	case x86.OpPop:
		v, f := m.pop()
		if f != nil {
			return memFault(f)
		}
		switch in.Form {
		case x86.FormReg:
			m.Regs[in.Reg] = v
		case x86.FormRM:
			if f := m.rmWrite(&in.RM, 4, v); f != nil {
				return memFault(f)
			}
		case x86.FormNone:
			// pop segment register: value discarded
		}
		return nil

	case x86.OpPushA:
		sp := m.Regs[x86.ESP]
		for _, r := range [...]uint8{x86.EAX, x86.ECX, x86.EDX, x86.EBX} {
			if f := m.push(m.Regs[r]); f != nil {
				return memFault(f)
			}
		}
		if f := m.push(sp); f != nil {
			return memFault(f)
		}
		for _, r := range [...]uint8{x86.EBP, x86.ESI, x86.EDI} {
			if f := m.push(m.Regs[r]); f != nil {
				return memFault(f)
			}
		}
		return nil

	case x86.OpPopA:
		order := [...]uint8{x86.EDI, x86.ESI, x86.EBP, x86.ESP, x86.EBX, x86.EDX, x86.ECX, x86.EAX}
		for _, r := range order {
			v, f := m.pop()
			if f != nil {
				return memFault(f)
			}
			if r != x86.ESP { // popa discards the saved ESP
				m.Regs[r] = v
			}
		}
		return nil

	case x86.OpPushF:
		if f := m.push(m.Flags | 0x2); f != nil { // bit 1 always set on x86
			return memFault(f)
		}
		return nil

	case x86.OpPopF:
		v, f := m.pop()
		if f != nil {
			return memFault(f)
		}
		const writable = x86.FlagCF | x86.FlagPF | x86.FlagAF | x86.FlagZF |
			x86.FlagSF | x86.FlagDF | x86.FlagOF
		m.Flags = v & writable
		return nil

	case x86.OpInc, x86.OpDec:
		var v uint32
		var f *Fault
		if in.Form == x86.FormReg {
			v = m.regRead(in.Reg, in.W)
		} else {
			v, f = m.rmRead(&in.RM, in.W)
			if f != nil {
				return memFault(f)
			}
		}
		if in.Op == x86.OpInc {
			v = m.incFlags(v, in.W)
		} else {
			v = m.decFlags(v, in.W)
		}
		if in.Form == x86.FormReg {
			m.regWrite(in.Reg, in.W, v)
			return nil
		}
		if f := m.rmWrite(&in.RM, in.W, v); f != nil {
			return memFault(f)
		}
		return nil

	case x86.OpNot:
		v, f := m.rmRead(&in.RM, in.W)
		if f != nil {
			return memFault(f)
		}
		if f := m.rmWrite(&in.RM, in.W, ^v); f != nil {
			return memFault(f)
		}
		return nil

	case x86.OpNeg:
		v, f := m.rmRead(&in.RM, in.W)
		if f != nil {
			return memFault(f)
		}
		r := m.subFlags(0, v, 0, in.W)
		if f := m.rmWrite(&in.RM, in.W, r); f != nil {
			return memFault(f)
		}
		return nil

	case x86.OpMul:
		v, f := m.rmRead(&in.RM, in.W)
		if f != nil {
			return memFault(f)
		}
		m.execMul(v, in.W, false)
		return nil

	case x86.OpIMul:
		switch in.Form {
		case x86.FormRM: // one-operand: edx:eax = eax * r/m
			v, f := m.rmRead(&in.RM, in.W)
			if f != nil {
				return memFault(f)
			}
			m.execMul(v, in.W, true)
			return nil
		case x86.FormRegRM, x86.FormRegRMImm:
			v, f := m.rmRead(&in.RM, 4)
			if f != nil {
				return memFault(f)
			}
			a := int64(int32(v))
			var b int64
			if in.Form == x86.FormRegRMImm {
				b = int64(in.Imm)
			} else {
				b = int64(int32(m.regRead(in.Reg, 4)))
			}
			p := a * b
			r := uint32(p)
			ovf := p != int64(int32(r))
			m.setFlag(x86.FlagCF, ovf)
			m.setFlag(x86.FlagOF, ovf)
			m.regWrite(in.Reg, 4, r)
			return nil
		}
		return fault(FaultUndefined, pc)

	case x86.OpDiv, x86.OpIDiv:
		v, f := m.rmRead(&in.RM, in.W)
		if f != nil {
			return memFault(f)
		}
		if err := m.execDiv(v, in.W, in.Op == x86.OpIDiv); err != nil {
			return fault(FaultDivide, pc)
		}
		return nil

	case x86.OpRol, x86.OpRor, x86.OpRcl, x86.OpRcr,
		x86.OpShl, x86.OpShr, x86.OpSar:
		var count uint32
		if in.Form == x86.FormRM { // count in CL
			count = m.Regs[x86.ECX] & 0x1F
		} else {
			count = uint32(in.Imm) & 0x1F
		}
		v, f := m.rmRead(&in.RM, in.W)
		if f != nil {
			return memFault(f)
		}
		r := m.execShift(in.Op, v, count, in.W)
		if f := m.rmWrite(&in.RM, in.W, r); f != nil {
			return memFault(f)
		}
		return nil

	case x86.OpJcc:
		if x86.EvalCond(in.Cond, m.Flags) {
			m.EIP = next + uint32(in.Rel)
		}
		return nil

	case x86.OpSetcc:
		v := uint32(0)
		if x86.EvalCond(in.Cond, m.Flags) {
			v = 1
		}
		if f := m.rmWrite(&in.RM, 1, v); f != nil {
			return memFault(f)
		}
		return nil

	case x86.OpCMov:
		v, f := m.rmRead(&in.RM, 4)
		if f != nil {
			return memFault(f)
		}
		if x86.EvalCond(in.Cond, m.Flags) {
			m.regWrite(in.Reg, 4, v)
		}
		return nil

	case x86.OpJmp:
		if in.Form == x86.FormRM {
			v, f := m.rmRead(&in.RM, 4)
			if f != nil {
				return memFault(f)
			}
			m.EIP = v
			return nil
		}
		m.EIP = next + uint32(in.Rel)
		return nil

	case x86.OpJCXZ:
		if m.Regs[x86.ECX] == 0 {
			m.EIP = next + uint32(in.Rel)
		}
		return nil

	case x86.OpLoop, x86.OpLoopE, x86.OpLoopNE:
		m.Regs[x86.ECX]--
		take := m.Regs[x86.ECX] != 0
		switch in.Op {
		case x86.OpLoopE:
			take = take && m.GetFlag(x86.FlagZF)
		case x86.OpLoopNE:
			take = take && !m.GetFlag(x86.FlagZF)
		}
		if take {
			m.EIP = next + uint32(in.Rel)
		}
		return nil

	case x86.OpCall:
		var target uint32
		if in.Form == x86.FormRM {
			v, f := m.rmRead(&in.RM, 4)
			if f != nil {
				return memFault(f)
			}
			target = v
		} else {
			target = next + uint32(in.Rel)
		}
		if f := m.push(next); f != nil {
			return memFault(f)
		}
		m.EIP = target
		return nil

	case x86.OpRet:
		v, f := m.pop()
		if f != nil {
			return memFault(f)
		}
		if in.Form == x86.FormImm {
			m.Regs[x86.ESP] += uint32(in.Imm)
		}
		m.EIP = v
		return nil

	case x86.OpLeave:
		m.Regs[x86.ESP] = m.Regs[x86.EBP]
		v, f := m.pop()
		if f != nil {
			return memFault(f)
		}
		m.Regs[x86.EBP] = v
		return nil

	case x86.OpEnter:
		if f := m.push(m.Regs[x86.EBP]); f != nil {
			return memFault(f)
		}
		m.Regs[x86.EBP] = m.Regs[x86.ESP]
		m.Regs[x86.ESP] -= uint32(in.Imm)
		return nil

	case x86.OpIntN:
		if in.Imm == 0x80 {
			return m.Sys.Syscall(m)
		}
		return fault(FaultSyscall, pc)

	case x86.OpInt3:
		return fault(FaultBreak, pc)

	case x86.OpInto:
		if m.GetFlag(x86.FlagOF) {
			return fault(FaultBreak, pc)
		}
		return nil

	case x86.OpBound:
		// Bounds are essentially never satisfied on corrupted paths; model
		// the #BR exception (SIGSEGV on Linux).
		return fault(FaultMemory, m.effAddr(&in.RM))

	case x86.OpNop, x86.OpArpl:
		return nil

	case x86.OpCbw:
		if in.W == 2 { // cbw: ax = sext(al)
			m.regWrite(x86.EAX, 2, uint32(int32(int8(m.Regs[x86.EAX]))))
		} else { // cwde: eax = sext(ax)
			m.Regs[x86.EAX] = uint32(int32(int16(m.Regs[x86.EAX])))
		}
		return nil

	case x86.OpCwd:
		if in.W == 2 { // cwd: dx = sign(ax)
			s := uint32(0)
			if m.Regs[x86.EAX]&0x8000 != 0 {
				s = 0xFFFF
			}
			m.regWrite(x86.EDX, 2, s)
		} else { // cdq: edx = sign(eax)
			s := uint32(0)
			if m.Regs[x86.EAX]&0x80000000 != 0 {
				s = 0xFFFFFFFF
			}
			m.Regs[x86.EDX] = s
		}
		return nil

	case x86.OpClc:
		m.setFlag(x86.FlagCF, false)
		return nil
	case x86.OpStc:
		m.setFlag(x86.FlagCF, true)
		return nil
	case x86.OpCmc:
		m.setFlag(x86.FlagCF, !m.GetFlag(x86.FlagCF))
		return nil
	case x86.OpCld:
		m.setFlag(x86.FlagDF, false)
		return nil
	case x86.OpStd:
		m.setFlag(x86.FlagDF, true)
		return nil

	case x86.OpSahf:
		const mask = x86.FlagCF | x86.FlagPF | x86.FlagAF | x86.FlagZF | x86.FlagSF
		m.Flags = m.Flags&^mask | (m.Regs[x86.EAX]>>8)&mask
		return nil
	case x86.OpLahf:
		m.regWrite(4, 1, m.Flags&0xFF|0x2) // AH (reg 4 at width 1)
		return nil

	case x86.OpSalc:
		v := uint32(0)
		if m.GetFlag(x86.FlagCF) {
			v = 0xFF
		}
		m.regWrite(x86.EAX, 1, v)
		return nil

	case x86.OpXlat:
		v, f := m.Mem.Read8(m.Regs[x86.EBX] + m.Regs[x86.EAX]&0xFF)
		if f != nil {
			return memFault(f)
		}
		m.regWrite(x86.EAX, 1, v)
		return nil

	case x86.OpMovs, x86.OpCmps, x86.OpStos, x86.OpLods, x86.OpScas:
		return m.execString(in, pc)

	case x86.OpBt, x86.OpBts, x86.OpBtr, x86.OpBtc:
		return m.execBitTest(in, pc)

	case x86.OpShld, x86.OpShrd:
		var count uint32
		if in.Imm == -1 {
			count = m.Regs[x86.ECX] & 0x1F
		} else {
			count = uint32(in.Imm) & 0x1F
		}
		v, f := m.rmRead(&in.RM, 4)
		if f != nil {
			return memFault(f)
		}
		if count == 0 {
			return nil
		}
		other := m.regRead(in.Reg, 4)
		var r uint32
		if in.Op == x86.OpShld {
			r = v<<count | other>>(32-count)
			m.setFlag(x86.FlagCF, v>>(32-count)&1 != 0)
		} else {
			r = v>>count | other<<(32-count)
			m.setFlag(x86.FlagCF, v>>(count-1)&1 != 0)
		}
		m.setSZP(r, 4)
		if f := m.rmWrite(&in.RM, 4, r); f != nil {
			return memFault(f)
		}
		return nil

	case x86.OpXadd:
		rv := m.regRead(in.Reg, in.W)
		mv, f := m.rmRead(&in.RM, in.W)
		if f != nil {
			return memFault(f)
		}
		sum := m.addFlags(mv, rv, 0, in.W)
		if f := m.rmWrite(&in.RM, in.W, sum); f != nil {
			return memFault(f)
		}
		m.regWrite(in.Reg, in.W, mv)
		return nil

	case x86.OpCmpxchg:
		acc := m.regRead(x86.EAX, in.W)
		mv, f := m.rmRead(&in.RM, in.W)
		if f != nil {
			return memFault(f)
		}
		m.subFlags(acc, mv, 0, in.W)
		if acc == mv {
			if f := m.rmWrite(&in.RM, in.W, m.regRead(in.Reg, in.W)); f != nil {
				return memFault(f)
			}
		} else {
			m.regWrite(x86.EAX, in.W, mv)
		}
		return nil

	case x86.OpBswap:
		v := m.Regs[in.Reg]
		m.Regs[in.Reg] = v<<24 | v>>24 | (v&0xFF00)<<8 | (v&0xFF0000)>>8
		return nil

	case x86.OpRdtsc:
		m.Regs[x86.EAX] = uint32(m.TSC)
		m.Regs[x86.EDX] = uint32(m.TSC >> 32)
		return nil

	case x86.OpCpuid:
		m.Regs[x86.EAX] = 0
		m.Regs[x86.EBX] = 0
		m.Regs[x86.ECX] = 0
		m.Regs[x86.EDX] = 0
		return nil

	case x86.OpMovFromSeg:
		if f := m.rmWrite(&in.RM, 2, 0x2B); f != nil { // user data selector
			return memFault(f)
		}
		return nil

	case x86.OpMovToSeg:
		// Loading an arbitrary selector raises #GP.
		return fault(FaultPrivileged, pc)

	case x86.OpHlt, x86.OpPrivileged:
		return fault(FaultPrivileged, pc)
	}

	return fault(FaultUndefined, pc)
}
