package vm

import (
	"faultsec/internal/x86"
)

// SyscallHandler receives software interrupts (int 0x80). It may read and
// modify machine state. Returning a non-nil error ends the run: an
// *ExitStatus for a clean exit, any other error for kernel-detected
// conditions (for example the harness's hang detection).
type SyscallHandler interface {
	Syscall(m *Machine) error
}

// DefaultFuel is the default retired-instruction budget per run. Fault-free
// sessions in this study retire well under 100k instructions; the budget
// only trips on corrupted runs stuck in non-terminating loops.
const DefaultFuel = 2_000_000

// Tuning is the set of ablation knobs. Each one turns off a fast path
// whose outcomes the identity tests pin to the path it replaces, so a
// knob changes speed, never results; the zero value is the production
// configuration. Tuning is set in process only (vm.Machine and
// campaign.Config embed it, for the ablation identity tests); no wire
// form carries it.
type Tuning struct {
	// NoICache disables the predecoded instruction cache: Step then
	// fetches and decodes every instruction from memory bytes and
	// executes it through the interpreter switch (exec.go), and the
	// machine builds no decode tables.
	NoICache bool

	// NoDirtyTracking disables dirty-page write tracking: Restore then
	// copies every region's full bytes back from the snapshot instead of
	// only the pages written since the last restore.
	NoDirtyTracking bool

	// NoTraces disables superblock trace fusion: Step then dispatches
	// every retirement individually through the micro-op table instead of
	// executing fused straight-line traces (trace.go).
	NoTraces bool
}

// Counters counts a machine's fast-path work. It is measurement state,
// not architectural state: Restore leaves it alone, so it accumulates
// across snapshot-restored runs until its owner harvests and zeroes it.
type Counters struct {
	// ICacheHits and ICacheMisses count retirements served from the
	// predecoded instruction cache versus decoded on a miss.
	ICacheHits   uint64
	ICacheMisses uint64

	// TraceHits counts fused-trace executions started by Step; TraceExits
	// counts the ones that ended early (a fault, exit or kernel error
	// mid-trace, or a self-modifying write aborting the remainder).
	TraceHits  uint64
	TraceExits uint64

	// DirtyBytesCopied accumulates bytes copied back by O(dirty) restores;
	// FullRestores counts restores that fell back to (or started from) a
	// full-image copy.
	DirtyBytesCopied uint64
	FullRestores     uint64
}

// Machine is one user-mode x86 hardware thread plus its address space.
type Machine struct {
	Regs  [x86.NumRegs]uint32
	EIP   uint32
	Flags uint32
	Mem   *Memory
	Sys   SyscallHandler

	// Steps counts retired instructions (user mode only, like the paper's
	// latency measurements which exclude kernel-mode execution).
	Steps uint64
	// Fuel is the maximum number of instructions to retire; 0 means
	// DefaultFuel.
	Fuel uint64
	// TSC is a deterministic timestamp counter for rdtsc.
	TSC uint64

	// CFValid, when non-nil, enables the control-flow watchdog: before
	// each fetch, EIP must be a member of this set (the instruction-start
	// addresses of the loaded program) or execution stops with FaultCFE.
	// This models software signature checkers (BSSC/ECCA/PECOS) from the
	// paper's related work: they catch wild jumps and instruction-stream
	// desynchronization, but by construction they cannot catch a valid
	// branch taken in the wrong direction.
	CFValid map[uint32]struct{}

	// Tuning holds the ablation knobs; the zero value runs every fast
	// path.
	Tuning

	// ParanoidRestore enables the dirty-restore self-check: after an
	// O(dirty) restore, every region is compared byte-for-byte against the
	// snapshot and any divergence — a write that escaped the tracking
	// bitmap — is returned as an error. Debug aid; costs a full image
	// compare per restore.
	ParanoidRestore bool

	// Counters is the machine's work-counter record; measurement state,
	// not architectural state.
	Counters

	// lastSnap remembers which snapshot the machine was last restored
	// from. The O(dirty) restore is only sound when rewinding to that very
	// snapshot (pointer identity): the dirty bitmap records what diverged
	// from it, not from any other checkpoint.
	lastSnap *Snapshot

	breakpoints map[uint32]struct{}

	// alarm is the step count of the armed step alarm, 0 when none is
	// armed (SetAlarm). Like a breakpoint it is not architectural state:
	// Restore disarms it.
	alarm uint64

	// pc is the address of the instruction currently retiring, stashed by
	// Step so micro-op handlers (and the shared string/bit-test cores) can
	// stamp faults without threading it through every call. Transient: only
	// valid during a Step.
	pc uint32
}

// New returns a machine with the given address space and syscall handler.
func New(mem *Memory, sys SyscallHandler) *Machine {
	return &Machine{Mem: mem, Sys: sys, Fuel: DefaultFuel}
}

// SetBreakpoint arms a breakpoint: Run returns a *BreakpointHit when EIP
// reaches addr, before executing the instruction there.
func (m *Machine) SetBreakpoint(addr uint32) {
	if m.breakpoints == nil {
		m.breakpoints = make(map[uint32]struct{})
	}
	m.breakpoints[addr] = struct{}{}
}

// ClearBreakpoint disarms the breakpoint at addr.
func (m *Machine) ClearBreakpoint(addr uint32) {
	delete(m.breakpoints, addr)
}

// ClearBreakpoints disarms every breakpoint. The campaign engine uses it
// on snapshot-restored machines: the snapshot is captured mid-sweep with
// other targets' breakpoints still armed, but an injected run must execute
// to its own fate without stopping at them.
func (m *Machine) ClearBreakpoints() { m.breakpoints = nil }

// SetAlarm arms the step alarm: Run returns an *AlarmHit at the first
// instruction boundary where Steps >= steps, and disarms it. 0 disarms.
// Unlike Fuel, the alarm never stops a run inside an instruction: a rep
// string op that retires past it stops at the boundary after it, where
// the run can resume. Like breakpoints it must be armed before Run is
// called.
func (m *Machine) SetAlarm(steps uint64) { m.alarm = steps }

// Reg returns register r (32-bit).
func (m *Machine) Reg(r uint8) uint32 { return m.Regs[r] }

// SetReg sets register r (32-bit).
func (m *Machine) SetReg(r uint8, v uint32) { m.Regs[r] = v }

// regRead reads register r at width w. Width-1 registers follow x86 8-bit
// register numbering: 0..3 are AL/CL/DL/BL, 4..7 are AH/CH/DH/BH.
func (m *Machine) regRead(r uint8, w uint8) uint32 {
	switch w {
	case 1:
		if r < 4 {
			return m.Regs[r] & 0xFF
		}
		return (m.Regs[r-4] >> 8) & 0xFF
	case 2:
		return m.Regs[r] & 0xFFFF
	default:
		return m.Regs[r]
	}
}

// regWrite writes register r at width w (partial-register update for w<4).
func (m *Machine) regWrite(r uint8, w uint8, v uint32) {
	switch w {
	case 1:
		if r < 4 {
			m.Regs[r] = m.Regs[r]&^uint32(0xFF) | v&0xFF
		} else {
			m.Regs[r-4] = m.Regs[r-4]&^uint32(0xFF00) | (v&0xFF)<<8
		}
	case 2:
		m.Regs[r] = m.Regs[r]&^uint32(0xFFFF) | v&0xFFFF
	default:
		m.Regs[r] = v
	}
}

// effAddr computes the effective address of a memory operand.
func (m *Machine) effAddr(rm *x86.RM) uint32 {
	return x86.EffAddr(rm, &m.Regs)
}

// rmRead reads the r/m operand at width w.
func (m *Machine) rmRead(rm *x86.RM, w uint8) (uint32, *Fault) {
	if rm.IsReg {
		return m.regRead(rm.Reg, w), nil
	}
	return m.Mem.ReadW(m.effAddr(rm), w)
}

// rmWrite writes the r/m operand at width w.
func (m *Machine) rmWrite(rm *x86.RM, w uint8, v uint32) *Fault {
	if rm.IsReg {
		m.regWrite(rm.Reg, w, v)
		return nil
	}
	return m.Mem.WriteW(m.effAddr(rm), v, w)
}

// push pushes a 32-bit value.
func (m *Machine) push(v uint32) *Fault {
	m.Regs[x86.ESP] -= 4
	return m.Mem.Write32(m.Regs[x86.ESP], v)
}

// pop pops a 32-bit value.
func (m *Machine) pop() (uint32, *Fault) {
	v, f := m.Mem.Read32(m.Regs[x86.ESP])
	if f != nil {
		return 0, f
	}
	m.Regs[x86.ESP] += 4
	return v, nil
}

// fuel returns the effective fuel budget.
func (m *Machine) fuel() uint64 {
	if m.Fuel == 0 {
		return DefaultFuel
	}
	return m.Fuel
}

// limit is the step count at which Run stops retiring: the fuel budget,
// or the armed alarm when it comes first.
func (m *Machine) limit() uint64 {
	if f := m.fuel(); m.alarm == 0 || f <= m.alarm {
		return f
	}
	return m.alarm
}

// stop is the end of a run at its limit: OutOfFuel once the budget is
// spent, else the alarm, which it disarms.
func (m *Machine) stop() error {
	if m.Steps >= m.fuel() {
		return &OutOfFuel{Steps: m.Steps}
	}
	m.alarm = 0
	return &AlarmHit{Steps: m.Steps}
}

// Step decodes and executes one instruction. It returns nil on normal
// retirement; a *Fault, *ExitStatus, *OutOfFuel, or a kernel error ends the
// run.
//
// The warm path is: predecoded-cache hit -> indirect call through the
// micro-op dispatch table. The decoded form, operand routing, width masks
// and handler index were all resolved at fill time (x86.Inst.Bind), so a
// warm retirement performs no per-form dispatch at all. The monolithic
// switch (exec.go) runs only when nothing is cached (NoICache).
func (m *Machine) Step() error { return m.step(m.fuel()) }

// step is Step against a step limit, the fuel budget or Run's limit: at
// or past it, it retires nothing and returns stop's error.
func (m *Machine) step(limit uint64) error {
	if m.Steps >= limit {
		return m.stop()
	}
	pc := m.EIP
	if m.CFValid != nil {
		if _, ok := m.CFValid[pc]; !ok {
			return &Fault{Kind: FaultCFE, Addr: pc, PC: pc}
		}
	}
	m.pc = pc
	if !m.NoICache {
		if s := m.Mem.icacheLookup(pc); s != nil {
			m.ICacheHits++
			m.Steps++
			m.TSC += 3 // deterministic pseudo cycle count
			m.EIP = pc + uint32(s.uop.Len)
			return uopTable[s.uop.H&(uopTableSize-1)](m, &s.uop)
		}
	}
	code, f := m.Mem.Fetch(pc, x86.MaxInstLen)
	if f != nil {
		f.PC = pc
		return f
	}
	var in x86.Inst
	if err := x86.DecodeInto(&in, code); err != nil {
		de, ok := err.(*x86.DecodeError)
		if ok && de.Truncated {
			// Ran off the end of the executable region mid-instruction.
			return &Fault{Kind: FaultFetch, Addr: pc + uint32(de.Offset), PC: pc}
		}
		return &Fault{Kind: FaultUndefined, Addr: pc, PC: pc}
	}
	m.Steps++
	m.TSC += 3 // deterministic pseudo cycle count
	if m.NoICache {
		// Nothing is cached, so nothing is bound: every retirement decodes
		// from bytes and executes through the interpreter switch.
		return m.exec(&in, pc)
	}
	m.ICacheMisses++
	var s islot
	in.Bind(&s.uop)
	m.Mem.icacheFill(pc, &s)
	m.EIP = pc + uint32(s.uop.Len)
	return uopTable[s.uop.H&(uopTableSize-1)](m, &s.uop)
}

// stepFused is Run's inner step: like Step, except that hot straight-line
// code executes as a fused superblock trace (trace.go), retiring every
// instruction up to and including the next branch in one call with no
// per-instruction dispatch. Architectural state after each retirement is
// identical to single-stepping (the Step contract of one instruction per
// call is why trace execution lives here and not in Step itself). Falls
// back to Step whenever traces are gated off — ablation knobs, watchdog,
// armed breakpoints — or when the trace at EIP would outrun limit, so
// OutOfFuel and the alarm still fire at the exact step they would under
// single-stepping. A trace that fits starts below limit, so the trace
// path needs no compare of its own.
func (m *Machine) stepFused(limit uint64) error {
	if !m.NoICache && !m.NoTraces &&
		m.CFValid == nil && len(m.breakpoints) == 0 {
		pc := m.EIP
		tr := m.Mem.traceLookup(pc)
		if tr == nil {
			tr = m.buildTrace(pc)
		}
		if tr != nil && len(tr.ops) > 0 && m.Steps+uint64(len(tr.ops)) <= limit {
			return m.runTrace(tr)
		}
	}
	return m.step(limit)
}

// Run executes until the program exits, faults, runs out of fuel, hits an
// armed breakpoint or the armed alarm, or the kernel aborts the run. The
// returned error is never nil and is one of *ExitStatus, *Fault,
// *OutOfFuel, *BreakpointHit, *AlarmHit, or a kernel-defined error. After
// a breakpoint or an alarm the run can be continued by calling Run again.
//
// Breakpoints, the alarm and Fuel must be set before Run is called: once
// the armed set drains to empty, Run stops probing it entirely, so a
// breakpoint armed from inside a syscall handler mid-run is not seen
// until the next Run, and the same holds for the alarm and Fuel.
func (m *Machine) Run() error {
	limit := m.limit()
	for len(m.breakpoints) != 0 {
		if _, hit := m.breakpoints[m.EIP]; hit {
			return &BreakpointHit{Addr: m.EIP}
		}
		if err := m.stepFused(limit); err != nil {
			return err
		}
	}
	for {
		if err := m.stepFused(limit); err != nil {
			return err
		}
	}
}
