package inject

import (
	"errors"
	"fmt"

	"faultsec/internal/classify"
	"faultsec/internal/kernel"
	"faultsec/internal/target"
	"faultsec/internal/vm"
)

// Session is one server session: a machine with its session kernel and
// client. A session stopped at an experiment's target also records where
// the transient window opens: the step and server-to-client byte counts
// at the breakpoint.
type Session struct {
	Machine           *vm.Machine
	Kernel            *kernel.Kernel
	Client            target.Client
	ActivationSteps   uint64
	BytesAtActivation int

	// OnAlarm serves the machine's step alarm during Execute: it returns
	// nil to continue the run (re-arming the alarm if it wants another)
	// or the error that ends it. A session that arms no alarm leaves it
	// nil.
	OnAlarm func(m *vm.Machine) error

	// end is how a session that never reached its target ended.
	end error
}

// Observer is Execute's per-step hook. It sees the machine before each
// step and returns false to let the rest of the run go at full speed.
type Observer func(m *vm.Machine) bool

// load starts a fresh server session for sc; fuel 0 means DefaultFuel.
func load(app *target.App, sc target.Scenario, fuel uint64, cfValid map[uint32]struct{}) (*Session, error) {
	client := sc.New()
	k := kernel.New(client)
	ld, err := app.Image.Load(k, nil)
	if err != nil {
		return nil, fmt.Errorf("inject: load: %w", err)
	}
	ld.Machine.Fuel = EffectiveFuel(fuel)
	ld.Machine.CFValid = cfValid
	return &Session{Machine: ld.Machine, Kernel: k, Client: client}, nil
}

// Activate is the from-scratch prefix of the debugger protocol: it loads a
// fresh server for sc and runs it to a breakpoint at addr. The session it
// returns is stopped at addr with the breakpoint disarmed, or holds its
// end if it never got there. A non-nil cfValid arms the control-flow
// watchdog; fuel 0 means DefaultFuel.
func Activate(app *target.App, sc target.Scenario, addr uint32, fuel uint64,
	cfValid map[uint32]struct{}) (*Session, error) {
	s, err := load(app, sc, fuel, cfValid)
	if err != nil {
		return nil, err
	}
	s.Machine.SetBreakpoint(addr)
	s.end = s.Machine.Run()
	s.Machine.ClearBreakpoint(addr)
	var bp *vm.BreakpointHit
	if errors.As(s.end, &bp) {
		s.end = nil
		s.ActivationSteps = s.Machine.Steps
		s.BytesAtActivation = len(s.Kernel.Transcript.ServerBytes())
	}
	return s, nil
}

// Execute finishes one experiment on a session stopped at target t: it
// applies mut, the experiment's resolved Mutation, and runs to the end.
// A non-nil observe is called before each attempted step until it
// declines: EndSteps − ActivationSteps times, plus once for a last attempt
// that retires nothing (out of fuel, or a fetch, decode or control-flow
// fault). The rest of the run is Machine.Run, resumed after each step
// alarm that OnAlarm lets pass. Execute returns the run and the server
// bytes sent inside the transient window; a session that never reached
// its target returns its never-activated end.
func Execute(s *Session, t *Target, mut *Mutation, observe Observer) (classify.Run, int, error) {
	run := classify.Run{Err: s.end}
	if s.end == nil {
		if err := mut.Apply(s.Machine, t); err != nil {
			return run, 0, err
		}
		for observe != nil && run.Err == nil && observe(s.Machine) {
			run.Err = s.Machine.Step()
		}
		for run.Err == nil {
			run.Err = s.Machine.Run()
			if _, ok := run.Err.(*vm.AlarmHit); ok && s.OnAlarm != nil {
				run.Err = s.OnAlarm(s.Machine)
			}
		}
		run.Activated, run.ActivationSteps = true, s.ActivationSteps
	}
	run.ServerBytes = s.Kernel.Transcript.ServerBytes()
	run.Granted = s.Client.Granted()
	run.EndSteps = s.Machine.Steps
	if !run.Activated {
		return run, 0, nil
	}
	return run, len(run.ServerBytes) - s.BytesAtActivation, nil
}

// RunOne executes a single injection experiment against a fresh server
// instance and classifies it against the golden run; fuel 0 means
// DefaultFuel, as in a campaign.
func RunOne(app *target.App, sc target.Scenario, golden *classify.Golden,
	ex Experiment, fuel uint64) (Result, error) {
	return runOne(app, sc, golden, ex, fuel, nil)
}

// runOne is RunOne under the control-flow watchdog when cfValid is
// non-nil: the run stops with a CFE detection as soon as EIP leaves the
// program's valid instruction starts.
func runOne(app *target.App, sc target.Scenario, golden *classify.Golden,
	ex Experiment, fuel uint64, cfValid map[uint32]struct{}) (Result, error) {
	s, err := Activate(app, sc, ex.Target.Addr, fuel, cfValid)
	if err != nil {
		return Result{}, err
	}
	mut := ex.Mutation()
	run, window, err := Execute(s, &ex.Target, &mut, nil)
	if err != nil {
		return Result{}, err
	}
	return ResultFromRun(golden, ex, &run, sc.ShouldGrant, window), nil
}
