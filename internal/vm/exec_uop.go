package vm

import "faultsec/internal/x86"

// uopFn is a bound micro-op handler. By the time a handler runs, Step has
// already stashed the instruction address in m.pc and advanced m.EIP past
// the instruction (the legacy switch's `next`), so handlers only perform
// the operation and report faults against m.pc.
type uopFn func(*Machine, *x86.Uop) error

// uopTableSize pads the dispatch table to a power of two so Step can index
// it with a mask instead of a bounds check. The blank array below fails to
// compile if NumUopHandlers ever outgrows it.
const uopTableSize = 128

var _ [uopTableSize - x86.NumUopHandlers]struct{}

func init() {
	// Padding slots (and any future unregistered index) dispatch to #UD,
	// never through a nil entry.
	for i := range uopTable {
		if uopTable[i] == nil {
			uopTable[i] = uUD
		}
	}
}

// uopTable is the dense dispatch table indexed by Uop.H. Every index in
// [0, NumUopHandlers) is populated — UInvalid defensively aliases the #UD
// handler so a zero-valued (unbound) micro-op can never dispatch through a
// nil entry — and the completeness test asserts this stays true as ops are
// added.
var uopTable = [uopTableSize]uopFn{
	x86.UInvalid: uUD,

	x86.UAddRMReg:  uAddRMReg,
	x86.UAddRegRM:  uAddRegRM,
	x86.UAddRMImm:  uAddRMImm,
	x86.UOrRMReg:   uOrRMReg,
	x86.UOrRegRM:   uOrRegRM,
	x86.UOrRMImm:   uOrRMImm,
	x86.UAdcRMReg:  uAdcRMReg,
	x86.UAdcRegRM:  uAdcRegRM,
	x86.UAdcRMImm:  uAdcRMImm,
	x86.USbbRMReg:  uSbbRMReg,
	x86.USbbRegRM:  uSbbRegRM,
	x86.USbbRMImm:  uSbbRMImm,
	x86.UAndRMReg:  uAndRMReg,
	x86.UAndRegRM:  uAndRegRM,
	x86.UAndRMImm:  uAndRMImm,
	x86.USubRMReg:  uSubRMReg,
	x86.USubRegRM:  uSubRegRM,
	x86.USubRMImm:  uSubRMImm,
	x86.UXorRMReg:  uXorRMReg,
	x86.UXorRegRM:  uXorRegRM,
	x86.UXorRMImm:  uXorRMImm,
	x86.UCmpRMReg:  uCmpRMReg,
	x86.UCmpRegRM:  uCmpRegRM,
	x86.UCmpRMImm:  uCmpRMImm,
	x86.UTestRMReg: uTestRMReg,
	x86.UTestRegRM: uTestRegRM,
	x86.UTestRMImm: uTestRMImm,

	x86.UIncReg:     uIncReg,
	x86.UIncRM:      uIncRM,
	x86.UDecReg:     uDecReg,
	x86.UDecRM:      uDecRM,
	x86.UNot:        uNot,
	x86.UNeg:        uNeg,
	x86.UShiftImm:   uShiftImm,
	x86.UShiftCL:    uShiftCL,
	x86.UShldImm:    uShldImm,
	x86.UShldCL:     uShldCL,
	x86.UShrdImm:    uShrdImm,
	x86.UShrdCL:     uShrdCL,
	x86.UBitTestReg: uBitTestReg,
	x86.UBitTestImm: uBitTestImm,
	x86.UXadd:       uXadd,
	x86.UCmpxchg:    uCmpxchg,

	x86.UMovRMReg:      uMovRMReg,
	x86.UMovRegRM:      uMovRegRM,
	x86.UMovRMImm:      uMovRMImm,
	x86.UMovRegImm:     uMovRegImm,
	x86.UMovMoffsLoad:  uMovMoffsLoad,
	x86.UMovMoffsStore: uMovMoffsStore,
	x86.UMovZX:         uMovZX,
	x86.UMovSX8:        uMovSX8,
	x86.UMovSX16:       uMovSX16,
	x86.ULea:           uLea,
	x86.UXchgAcc:       uXchgAcc,
	x86.UXchgRM:        uXchgRM,
	x86.UBswap:         uBswap,
	x86.USetcc:         uSetcc,
	x86.UCMov:          uCMov,
	x86.UMovFromSeg:    uMovFromSeg,
	x86.UMovToSeg:      uMovToSeg,

	x86.UPushReg:    uPushReg,
	x86.UPushImm:    uPushImm,
	x86.UPushRM:     uPushRM,
	x86.UPopReg:     uPopReg,
	x86.UPopRM:      uPopRM,
	x86.UPopDiscard: uPopDiscard,
	x86.UPushA:      uPushA,
	x86.UPopA:       uPopA,
	x86.UPushF:      uPushF,
	x86.UPopF:       uPopF,
	x86.ULeave:      uLeave,
	x86.UEnter:      uEnter,

	x86.UJcc:     uJcc,
	x86.UJmpRel:  uJmpRel,
	x86.UJmpRM:   uJmpRM,
	x86.UJCXZ:    uJCXZ,
	x86.ULoop:    uLoop,
	x86.ULoopE:   uLoopE,
	x86.ULoopNE:  uLoopNE,
	x86.UCallRel: uCallRel,
	x86.UCallRM:  uCallRM,
	x86.URet:     uRet,
	x86.UInt3:    uInt3,
	x86.UInto:    uInto,
	x86.USyscall: uSyscall,
	x86.UBadInt:  uBadInt,
	x86.UBound:   uBound,

	x86.UMul:     uMul,
	x86.UIMulRM:  uIMulRM,
	x86.UIMulReg: uIMulReg,
	x86.UIMulImm: uIMulImm,
	x86.UDiv:     uDiv,
	x86.UIDiv:    uIDiv,

	x86.UNop:        uNop,
	x86.UCbw:        uCbw,
	x86.UCwde:       uCwde,
	x86.UCwd:        uCwd,
	x86.UCdq:        uCdq,
	x86.UClc:        uClc,
	x86.UStc:        uStc,
	x86.UCmc:        uCmc,
	x86.UCld:        uCld,
	x86.UStd:        uStd,
	x86.USahf:       uSahf,
	x86.ULahf:       uLahf,
	x86.USalc:       uSalc,
	x86.UXlat:       uXlat,
	x86.UString:     uString,
	x86.URdtsc:      uRdtsc,
	x86.UCpuid:      uCpuid,
	x86.UPrivileged: uPrivileged,
	x86.UUD:         uUD,
}

// uopFault builds a fault at the current instruction (m.pc).
func (m *Machine) uopFault(k FaultKind, addr uint32) error {
	return &Fault{Kind: k, Addr: addr, PC: m.pc}
}

// uopMemFault stamps a memory-layer fault with the current instruction
// address.
func (m *Machine) uopMemFault(f *Fault) error {
	f.PC = m.pc
	return f
}
