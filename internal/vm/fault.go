package vm

import "fmt"

// FaultKind classifies a processor fault.
type FaultKind int

// Fault kinds, with the POSIX signal a Linux process would receive.
const (
	FaultUndefined  FaultKind = iota + 1 // #UD: illegal instruction (SIGILL)
	FaultMemory                          // bad data access (SIGSEGV)
	FaultFetch                           // bad instruction fetch (SIGSEGV)
	FaultDivide                          // #DE: divide error (SIGFPE)
	FaultPrivileged                      // #GP: privileged instruction (SIGSEGV)
	FaultBreak                           // int3/into/bound (SIGTRAP)
	FaultSyscall                         // unsupported software interrupt (SIGSEGV)
	// FaultCFE is raised by the optional control-flow watchdog (a
	// PECOS/BSSC-style checker; see the paper's related work) when EIP
	// leaves the program's known instruction boundaries. It is a
	// *detection*, modeled as a SIGKILL-style termination.
	FaultCFE
)

// Signal returns the name of the POSIX signal this fault delivers to a
// Linux process.
func (k FaultKind) Signal() string {
	switch k {
	case FaultUndefined:
		return "SIGILL"
	case FaultMemory, FaultFetch, FaultPrivileged, FaultSyscall:
		return "SIGSEGV"
	case FaultDivide:
		return "SIGFPE"
	case FaultBreak:
		return "SIGTRAP"
	case FaultCFE:
		return "CFE"
	}
	return "SIG?"
}

// String returns a short description of the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultUndefined:
		return "illegal instruction"
	case FaultMemory:
		return "segmentation violation"
	case FaultFetch:
		return "instruction fetch violation"
	case FaultDivide:
		return "divide error"
	case FaultPrivileged:
		return "privileged instruction"
	case FaultBreak:
		return "trap"
	case FaultSyscall:
		return "bad system call"
	case FaultCFE:
		return "control-flow error detected by watchdog"
	}
	return "unknown fault"
}

// Fault is a precise processor exception. It terminates the run: the study
// classifies it as a crash (the paper's "system detection", SD).
type Fault struct {
	Kind FaultKind
	Addr uint32 // faulting data/fetch address, if applicable
	PC   uint32 // EIP of the faulting instruction
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("%s (%s) at pc=%#x addr=%#x", f.Kind, f.Kind.Signal(), f.PC, f.Addr)
}

// ExitStatus is returned (as an error) when the program invokes the exit
// system call.
type ExitStatus struct {
	Code int
}

// Error implements the error interface.
func (e *ExitStatus) Error() string {
	return fmt.Sprintf("process exited with status %d", e.Code)
}

// BreakpointHit is returned by Run when EIP reaches an armed breakpoint.
// The instruction at the breakpoint has not been executed yet.
type BreakpointHit struct {
	Addr uint32
}

// Error implements the error interface.
func (b *BreakpointHit) Error() string {
	return fmt.Sprintf("breakpoint at %#x", b.Addr)
}

// OutOfFuel is returned when the retired-instruction budget is exhausted;
// the study treats it as a hung process (the client observes a hang).
type OutOfFuel struct {
	Steps uint64
}

// Error implements the error interface.
func (o *OutOfFuel) Error() string {
	return fmt.Sprintf("out of fuel after %d instructions", o.Steps)
}

// AlarmHit is returned by Run at the first instruction boundary where
// Steps reaches the armed alarm (Machine.SetAlarm). It does not end the
// run: calling Run again continues it.
type AlarmHit struct {
	Steps uint64
}

// Error implements the error interface.
func (a *AlarmHit) Error() string {
	return fmt.Sprintf("step alarm after %d instructions", a.Steps)
}
