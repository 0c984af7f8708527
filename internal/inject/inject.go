// Package inject implements the study's error-injection machinery: an
// NFTAPE-style debugger-based injector over the VM, selective-exhaustive
// campaign enumeration over the branch instructions of the authentication
// functions, the naive reference campaign runner, and the random
// whole-text injection testbed from the paper's §7.
//
// One experiment is Activate (run a fresh server to a breakpoint at the
// target instruction) then Execute (apply the mutation to a session
// stopped there, run it to its end). Every single-run path finishes
// through Execute, the campaign engine's snapshot-restored runs included.
package inject

import (
	"errors"
	"fmt"

	"faultsec/internal/classify"
	"faultsec/internal/disasm"
	"faultsec/internal/encoding"
	"faultsec/internal/target"
	"faultsec/internal/vm"
	"faultsec/internal/x86"
)

// Target is one instruction selected for injection.
type Target struct {
	// Func is the function containing the instruction.
	Func string
	// Addr is the instruction's virtual address.
	Addr uint32
	// Raw is the pristine encoding.
	Raw []byte
	// Inst is the decoded instruction.
	Inst x86.Inst
}

// Bits returns the number of single-bit experiments this target yields.
func (t Target) Bits() int { return len(t.Raw) * 8 }

// isBranchTarget reports whether a decoded instruction belongs to the
// paper's "branch instruction" target population: all conditional branches
// (2-byte and 6-byte jcc — the Table 2 locations), plus the short
// intra-function transfers (jmp rel8, loop/jecxz, ret) that populate the
// small MISC row of Table 3. Long-range transfers (call rel32, jmp rel32)
// are not branch instructions in the paper's sense; their 32-bit operands
// would otherwise dominate the injected-bit population.
func isBranchTarget(in *x86.Inst, raw []byte) bool {
	switch in.Op {
	case x86.OpJcc, x86.OpLoop, x86.OpLoopE, x86.OpLoopNE, x86.OpJCXZ, x86.OpRet:
		return true
	case x86.OpJmp:
		return len(raw) == 2 // jmp rel8 only
	}
	return false
}

// Targets enumerates the branch instructions of the app's authentication
// functions, in address order — the selective-exhaustive target set.
func Targets(app *target.App) ([]Target, error) {
	var out []Target
	for _, fname := range app.AuthFuncs {
		f, ok := app.Image.FuncByName(fname)
		if !ok {
			return nil, fmt.Errorf("inject: function %q not in image", fname)
		}
		entries := disasm.Sweep(app.Image.Text, app.Image.TextBase,
			f.Start-app.Image.TextBase, f.End-app.Image.TextBase)
		for _, e := range entries {
			if e.Bad {
				return nil, fmt.Errorf("inject: undecodable byte at %#x in %s", e.Addr, fname)
			}
			if isBranchTarget(&e.Inst, e.Raw) {
				raw := make([]byte, len(e.Raw))
				copy(raw, e.Raw)
				out = append(out, Target{Func: fname, Addr: e.Addr, Raw: raw, Inst: e.Inst})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("inject: no branch instructions in %v", app.AuthFuncs)
	}
	return out, nil
}

// GoldenRun executes one fault-free session and records the golden
// behaviour; fuel 0 means DefaultFuel. It fails if the fault-free server
// does not exit cleanly.
func GoldenRun(app *target.App, sc target.Scenario, fuel uint64) (*classify.Golden, error) {
	s, err := load(app, sc, fuel, nil)
	if err != nil {
		return nil, fmt.Errorf("inject: golden: %w", err)
	}
	runErr := s.Machine.Run()
	var exit *vm.ExitStatus
	if !errors.As(runErr, &exit) {
		return nil, fmt.Errorf("inject: golden run of %s/%s did not exit cleanly: %w\ntranscript:\n%s",
			app.Name, sc.Name, runErr, s.Kernel.Transcript.String())
	}
	if s.Client.Granted() != sc.ShouldGrant {
		return nil, fmt.Errorf("inject: golden run of %s/%s granted=%v, want %v",
			app.Name, sc.Name, s.Client.Granted(), sc.ShouldGrant)
	}
	return &classify.Golden{
		ServerBytes: s.Kernel.Transcript.ServerBytes(),
		Granted:     s.Client.Granted(),
		ExitCode:    exit.Code,
		Steps:       s.Machine.Steps,
	}, nil
}

// MutationKind selects what the injector does at the breakpoint.
type MutationKind int

// Mutation kinds.
const (
	// MutBytes replaces the target instruction's bytes in memory (the
	// paper's debugger protocol). The corruption is persistent: every
	// subsequent execution of the instruction runs the corrupted bytes.
	MutBytes MutationKind = iota
	// MutSkip advances EIP past the target instruction without executing
	// it — the standard instruction-skip fault-attack model. The skip is
	// transient: only the breakpointed execution is skipped; later
	// executions run the pristine instruction.
	MutSkip
	// MutReg XORs a mask into a general-purpose register at the
	// breakpoint — a transient register corruption. Memory is untouched.
	MutReg
)

// Mutation describes one injection action, produced by a fault model
// (internal/faultmodel) and applied by the injector when the run reaches
// the target instruction.
type Mutation struct {
	// Kind selects which of the fields below are meaningful.
	Kind MutationKind
	// Bytes is the full replacement encoding of the target instruction
	// (MutBytes).
	Bytes []byte
	// SkipLen is the EIP advance in bytes (MutSkip); normally the target
	// instruction's length.
	SkipLen int
	// Reg and RegXor are the register index and XOR mask (MutReg).
	Reg    uint8
	RegXor uint32
	// SpanStart and SpanEnd delimit the instruction bytes the mutation is
	// attributed to, [SpanStart, SpanEnd), for Table 2/3 error-location
	// accounting. For MutBytes this is the intended corruption span (set
	// even when the replacement happens to equal the original bytes); for
	// MutSkip it is the whole instruction; MutReg corruptions carry no
	// byte span and classify as MISC.
	SpanStart int
	SpanEnd   int
}

// Apply performs the mutation on a machine stopped at the target
// instruction (EIP == t.Addr). A byte replacement must cover exactly the
// target instruction: a shorter one would leave part of it pristine, and
// an empty one would run the fault-free session as an injection.
func (mu *Mutation) Apply(m *vm.Machine, t *Target) error {
	switch mu.Kind {
	case MutSkip:
		m.EIP += uint32(mu.SkipLen)
		return nil
	case MutReg:
		m.SetReg(mu.Reg, m.Reg(mu.Reg)^mu.RegXor)
		return nil
	default:
		if len(mu.Bytes) != len(t.Raw) {
			return fmt.Errorf("inject: %d replacement bytes for the %d-byte instruction at %#x",
				len(mu.Bytes), len(t.Raw), t.Addr)
		}
		if err := m.Mem.Poke(t.Addr, mu.Bytes); err != nil {
			return fmt.Errorf("inject: poke: %w", err)
		}
		return nil
	}
}

// Experiment identifies one injection: the target, the fault model's
// registry name, the model-local mutation index within the target, and the
// mutation that index resolves to under the campaign's scheme. Index
// ModelIdx means the same injection in every process, which is what
// journals, fleet shards and the result cache key on.
type Experiment struct {
	Target Target
	// Model is the fault-model registry name ("bitflip", "regflip", ...).
	Model string
	// ModelIdx is the mutation index within the target under Model
	// (0 <= ModelIdx < Count(Target)); for bitflip it is 8·byte+bit.
	ModelIdx int
	// Mut is the resolved mutation.
	Mut Mutation
}

// BitFlip is the paper's experiment: flip bit of byte byteIdx of the
// target's encoding, mapped through the scheme's re-encoding (paper §6.2:
// map to the stock encoding, flip, map back). It is the bitflip fault
// model's one implementation.
func BitFlip(t Target, byteIdx, bit int, scheme encoding.Scheme) Experiment {
	return Experiment{
		Target:   t,
		Model:    "bitflip",
		ModelIdx: byteIdx*8 + bit,
		Mut: Mutation{
			Kind:      MutBytes,
			Bytes:     encoding.Corrupt(t.Raw, byteIdx, bit, scheme),
			SpanStart: byteIdx,
			SpanEnd:   byteIdx + 1,
		},
	}
}

// ModelOf returns the fault-model name of an experiment list ("bitflip"
// for an empty list, the paper's model).
func ModelOf(exps []Experiment) string {
	if len(exps) == 0 {
		return "bitflip"
	}
	return exps[0].Model
}

// CorruptedBytes returns the instruction bytes this experiment executes:
// the replacement for a byte mutation, the pristine bytes for skip and
// register mutations, which leave the instruction untouched.
func (e Experiment) CorruptedBytes() []byte {
	if e.Mut.Kind != MutBytes {
		out := make([]byte, len(e.Target.Raw))
		copy(out, e.Target.Raw)
		return out
	}
	return e.Mut.Bytes
}

// Mutation returns the experiment's injection action.
func (e Experiment) Mutation() Mutation { return e.Mut }

// Location classifies the experiment for the paper's Table 2/3 error-
// location breakdown. Byte-span mutations are attributed to their span
// (a single flipped byte exactly as the original study; the lowest
// corrupted byte decides when a span straddles opcode and operand), and
// register corruptions, which touch no instruction byte, count under MISC.
func (e Experiment) Location() classify.Location {
	if e.Mut.Kind == MutReg {
		return classify.LocMISC
	}
	return classify.LocationOfSpan(&e.Target.Inst, e.Target.Raw, e.Mut.SpanStart, e.Mut.SpanEnd)
}

// Result is the classified outcome of one experiment.
type Result struct {
	Experiment Experiment
	Outcome    classify.Outcome
	Location   classify.Location
	// Activated mirrors Outcome != NA, kept for convenience.
	Activated bool
	// FaultKind is the crash signal class for SD/FSV-with-crash runs
	// (empty otherwise).
	FaultKind string
	// CrashLatency is the instruction count between activation and crash
	// (Figure 4), valid when the run crashed.
	CrashLatency uint64
	// Crashed reports whether the run ended in a processor fault
	// (regardless of classification).
	Crashed bool
	// Granted is the client's access observation.
	Granted bool
	// BytesInWindow counts server-to-client bytes written between error
	// activation and the end of the run — the network activity inside the
	// transient window of vulnerability (§5.4: "erroneous messages were
	// sent out").
	BytesInWindow int
	// DetectedByWatchdog reports that the control-flow watchdog (when
	// enabled) terminated the run.
	DetectedByWatchdog bool
}

// ResultFromRun classifies one completed (possibly injected) session into
// a Result. bytesInWindow is the server-to-client byte count between
// activation and the end of the run; it is ignored for non-activated runs.
// The campaign engine's snapshot path builds results through this exact
// function so that its classification is bit-identical to the naive path.
func ResultFromRun(golden *classify.Golden, ex Experiment, run *classify.Run,
	shouldGrant bool, bytesInWindow int) Result {
	outcome := classify.Classify(golden, run, shouldGrant)
	res := Result{
		Experiment: ex,
		Outcome:    outcome,
		Location:   ex.Location(),
		Activated:  run.Activated,
		Granted:    run.Granted,
	}
	if run.Activated {
		res.BytesInWindow = bytesInWindow
	}
	if fault, crashed := run.Crashed(); crashed {
		res.Crashed = true
		res.FaultKind = fault.Kind.Signal()
		res.CrashLatency = run.CrashLatency()
		res.DetectedByWatchdog = fault.Kind == vm.FaultCFE
	}
	return res
}

// Text is an app's pristine text, swept once: every valid instruction
// start, which of them enter the kernel, and, when the sweep asks for
// them, the instructions' data flows (x86.RegFlow).
type Text struct {
	// Flows holds the instructions' flows in address order; nil when the
	// sweep did not ask for them.
	Flows []x86.Flow
	at    map[uint32]Start
}

// Start is what a Text holds of one valid instruction start.
type Start struct {
	// Index is the instruction's position in address order, the index of
	// its flow in Flows.
	Index int32
	// Syscall marks an int 0x80, the one instruction the VM serves through
	// its syscall handler.
	Syscall bool
}

// SweepText builds app's Text in one linear sweep, with each
// instruction's flow when flows is set. It is the one definition of a
// valid instruction start: the control-flow watchdog's signature set and
// the golden shadow's control-flow guard.
func SweepText(app *target.App, flows bool) *Text {
	entries := disasm.Sweep(app.Image.Text, app.Image.TextBase, 0, uint32(len(app.Image.Text)))
	t := &Text{at: make(map[uint32]Start, len(entries))}
	if flows {
		t.Flows = make([]x86.Flow, 0, len(entries))
	}
	n := int32(0)
	for _, e := range entries {
		if e.Bad {
			continue
		}
		t.at[e.Addr] = Start{Index: n, Syscall: e.Inst.Op == x86.OpIntN && e.Inst.Imm == 0x80}
		if flows {
			t.Flows = append(t.Flows, x86.RegFlow(&e.Inst))
		}
		n++
	}
	return t
}

// At returns what t holds of the instruction starting at addr, and
// whether addr is a valid instruction start.
func (t *Text) At(addr uint32) (Start, bool) {
	s, ok := t.at[addr]
	return s, ok
}

// Starts returns the valid instruction starts, the set the control-flow
// watchdog checks EIP against (vm.Machine.CFValid).
func (t *Text) Starts() map[uint32]struct{} {
	out := make(map[uint32]struct{}, len(t.at))
	for addr := range t.at {
		out[addr] = struct{}{}
	}
	return out
}
