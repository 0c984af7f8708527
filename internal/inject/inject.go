// Package inject implements the study's error-injection machinery: an
// NFTAPE-style debugger-based injector over the VM (run to a breakpoint at
// the target instruction, flip one bit, continue), selective-exhaustive
// campaign enumeration over the branch instructions of the authentication
// functions, a parallel campaign runner, and the random whole-text
// injection testbed from the paper's §7.
package inject

import (
	"errors"
	"fmt"

	"faultsec/internal/classify"
	"faultsec/internal/disasm"
	"faultsec/internal/encoding"
	"faultsec/internal/kernel"
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

// TotalBits returns the number of experiments (one per bit) for a target
// set — the paper's per-client run count.
func TotalBits(targets []Target) int {
	n := 0
	for _, t := range targets {
		n += t.Bits()
	}
	return n
}

// GoldenRun executes one fault-free session and records the golden
// behaviour. It fails if the fault-free server does not exit cleanly.
func GoldenRun(app *target.App, sc target.Scenario, fuel uint64) (*classify.Golden, error) {
	client := sc.New()
	k := kernel.New(client)
	ld, err := app.Image.Load(k, nil)
	if err != nil {
		return nil, fmt.Errorf("inject: golden load: %w", err)
	}
	m := ld.Machine
	if fuel != 0 {
		m.Fuel = fuel
	}
	runErr := m.Run()
	var exit *vm.ExitStatus
	if !errors.As(runErr, &exit) {
		return nil, fmt.Errorf("inject: golden run of %s/%s did not exit cleanly: %w\ntranscript:\n%s",
			app.Name, sc.Name, runErr, k.Transcript.String())
	}
	if client.Granted() != sc.ShouldGrant {
		return nil, fmt.Errorf("inject: golden run of %s/%s granted=%v, want %v",
			app.Name, sc.Name, client.Granted(), sc.ShouldGrant)
	}
	return &classify.Golden{
		ServerBytes: k.Transcript.ServerBytes(),
		Granted:     client.Granted(),
		ExitCode:    exit.Code,
		Steps:       m.Steps,
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
// instruction (EIP == t.Addr).
func (mu *Mutation) Apply(m *vm.Machine, t *Target) error {
	switch mu.Kind {
	case MutSkip:
		m.EIP += uint32(mu.SkipLen)
		return nil
	case MutReg:
		m.SetReg(mu.Reg, m.Reg(mu.Reg)^mu.RegXor)
		return nil
	default:
		if err := m.Mem.Poke(t.Addr, mu.Bytes); err != nil {
			return fmt.Errorf("inject: poke: %w", err)
		}
		return nil
	}
}

// Experiment identifies one injection. The zero model ("" = the paper's
// bitflip model) is fully described by (Target, ByteIdx, Bit, Scheme),
// exactly as before fault models existed, so bitflip experiment values —
// and the journal/fleet index spaces derived from their enumeration order
// — are unchanged. Other models carry their registry name, their
// model-local mutation index within the target, and the resolved Mutation.
type Experiment struct {
	Target  Target
	ByteIdx int
	Bit     int
	Scheme  encoding.Scheme

	// Model is the fault-model name; "" means bitflip (wire-compatible
	// with pre-fault-model enumerations and journals).
	Model string
	// ModelIdx is the mutation index within the target under Model
	// (0 <= ModelIdx < Count(Target)). Bitflip experiments leave it zero
	// and carry the equivalent index as (ByteIdx, Bit).
	ModelIdx int
	// Mut is the resolved mutation for non-bitflip models (bitflip
	// derives its mutation from ByteIdx/Bit/Scheme on demand).
	Mut Mutation
}

// ModelName returns the experiment's fault-model registry name,
// canonicalizing the wire-compatible zero value to "bitflip".
func (e Experiment) ModelName() string {
	if e.Model == "" {
		return "bitflip"
	}
	return e.Model
}

// ModelOf returns the canonical fault-model name of an experiment list
// ("bitflip" for an empty list — the zero model).
func ModelOf(exps []Experiment) string {
	if len(exps) == 0 {
		return "bitflip"
	}
	return exps[0].ModelName()
}

// CorruptedBytes returns the instruction bytes this experiment executes.
// Valid for byte-replacement mutations (the bitflip family); skip and
// register mutations leave the instruction bytes pristine and return them
// unchanged.
func (e Experiment) CorruptedBytes() []byte {
	if e.Model != "" {
		if e.Mut.Kind != MutBytes {
			out := make([]byte, len(e.Target.Raw))
			copy(out, e.Target.Raw)
			return out
		}
		return e.Mut.Bytes
	}
	return encoding.Corrupt(e.Target.Raw, e.ByteIdx, e.Bit, e.Scheme)
}

// Mutation resolves the experiment's injection action.
func (e Experiment) Mutation() Mutation {
	if e.Model != "" {
		return e.Mut
	}
	return Mutation{
		Kind:      MutBytes,
		Bytes:     e.CorruptedBytes(),
		SpanStart: e.ByteIdx,
		SpanEnd:   e.ByteIdx + 1,
	}
}

// MutationKind returns the kind of the experiment's mutation without
// resolving it; bitflip experiments always replace bytes.
func (e *Experiment) MutationKind() MutationKind {
	if e.Model == "" {
		return MutBytes
	}
	return e.Mut.Kind
}

// Location classifies the experiment for the paper's Table 2/3 error-
// location breakdown. Bitflip attributes the flipped byte exactly as the
// original study; byte-span mutations are attributed to their span (the
// lowest corrupted byte decides when a span straddles opcode and
// operand), and register corruptions — which touch no instruction byte —
// count under MISC.
func (e Experiment) Location() classify.Location {
	if e.Model == "" {
		return classify.LocationOf(&e.Target.Inst, e.Target.Raw, e.ByteIdx)
	}
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

// RunOne executes a single injection experiment against a fresh server
// instance and classifies it against the golden run.
func RunOne(app *target.App, sc target.Scenario, golden *classify.Golden,
	ex Experiment, fuel uint64) (Result, error) {
	return RunOneWatched(app, sc, golden, ex, fuel, nil)
}

// RunOneWatched is RunOne with an optional control-flow watchdog: when
// cfValid is non-nil, the machine stops with a CFE detection as soon as
// EIP leaves the program's known instruction boundaries (a software
// signature checker in the style of the paper's related work).
func RunOneWatched(app *target.App, sc target.Scenario, golden *classify.Golden,
	ex Experiment, fuel uint64, cfValid map[uint32]struct{}) (Result, error) {
	client := sc.New()
	k := kernel.New(client)
	ld, err := app.Image.Load(k, nil)
	if err != nil {
		return Result{}, fmt.Errorf("inject: load: %w", err)
	}
	m := ld.Machine
	if fuel != 0 {
		m.Fuel = fuel
	}
	m.CFValid = cfValid

	// Debugger protocol: run to the target instruction, apply the fault
	// model's mutation (corrupt bytes, skip, or register flip), resume.
	m.SetBreakpoint(ex.Target.Addr)
	runErr := m.Run()
	activated := false
	var activationSteps uint64
	bytesAtActivation := 0
	var bp *vm.BreakpointHit
	if errors.As(runErr, &bp) {
		activated = true
		activationSteps = m.Steps
		bytesAtActivation = len(k.Transcript.ServerBytes())
		mut := ex.Mutation()
		if applyErr := mut.Apply(m, &ex.Target); applyErr != nil {
			return Result{}, applyErr
		}
		m.ClearBreakpoint(ex.Target.Addr)
		runErr = m.Run()
	}

	serverBytes := k.Transcript.ServerBytes()
	run := &classify.Run{
		Activated:       activated,
		Err:             runErr,
		ServerBytes:     serverBytes,
		Granted:         client.Granted(),
		ActivationSteps: activationSteps,
		EndSteps:        m.Steps,
	}
	return ResultFromRun(golden, ex, run, sc.ShouldGrant, len(serverBytes)-bytesAtActivation), nil
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

// Enumerate lists every single-bit experiment for the target set under the
// given scheme, in deterministic order. It is the bitflip fault model's
// shared implementation: faultmodel's "bitflip" delegates here, so the
// model's enumeration is byte-for-byte the pre-fault-model one.
func Enumerate(targets []Target, scheme encoding.Scheme) []Experiment {
	out := make([]Experiment, 0, TotalBits(targets))
	for _, t := range targets {
		for byteIdx := 0; byteIdx < len(t.Raw); byteIdx++ {
			for bit := 0; bit < 8; bit++ {
				out = append(out, Experiment{
					Target:  t,
					ByteIdx: byteIdx,
					Bit:     bit,
					Scheme:  scheme,
				})
			}
		}
	}
	return out
}

// ValidInstructionStarts returns the set of instruction-start addresses of
// the pristine program — the signature database the control-flow watchdog
// checks EIP against.
func ValidInstructionStarts(app *target.App) map[uint32]struct{} {
	entries := disasm.Sweep(app.Image.Text, app.Image.TextBase, 0, uint32(len(app.Image.Text)))
	out := make(map[uint32]struct{}, len(entries))
	for _, e := range entries {
		if !e.Bad {
			out[e.Addr] = struct{}{}
		}
	}
	return out
}
