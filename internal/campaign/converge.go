package campaign

import (
	"bytes"
	"errors"
	"fmt"

	"faultsec/internal/classify"
	"faultsec/internal/inject"
	"faultsec/internal/kernel"
	"faultsec/internal/vm"
)

// Golden convergence. A transient register fault either derails the run or
// is overwritten before it matters; in the second case the run soon holds
// exactly the state of the fault-free run at the same step, and from there
// determinism fixes the rest of its outcome. For every regflip group the
// engine first runs one shadow — the group's activation snapshot continued
// without a fault — recording a checkpoint at each syscall entry. Each
// injected run then compares itself against the shadow's checkpoint at its
// own syscall entries with the same step count, and stops on an exact
// match: registers, EIP, flags and TSC first, then the kernel session, then
// the union of both runs' dirty pages. Its result is built from the golden
// end state instead of interpreting the remaining instructions. DESIGN.md
// §3k has the soundness argument.
//
// Only MutReg groups qualify. A skip retires one instruction fewer than the
// shadow, so its step count never meets a checkpoint; a byte corruption
// leaves corrupted text that never equals the shadow's.

// errConverged ends an injected run that has rejoined its shadow.
var errConverged = errors.New("campaign: run rejoined the fault-free shadow")

// onConverged, when non-nil, makes every converged run execute to its real
// end as well; it receives the run's index, the result built from the
// golden end state and the executed one. Set by tests only, to prove the
// two equal.
var onConverged func(idx int, synthesized, executed inject.Result)

// checkpoint is the shadow's full state at one syscall entry.
type checkpoint struct {
	m *vm.Checkpoint
	k *kernel.Snapshot
}

// shadowRecorder is the shadow's syscall handler: it checkpoints the
// machine and the session at every syscall entry, then serves the call.
type shadowRecorder struct {
	k   *kernel.Kernel
	cps []checkpoint
}

func (r *shadowRecorder) Syscall(m *vm.Machine) error {
	r.cps = append(r.cps, checkpoint{m: m.Checkpoint(), k: r.k.Snapshot()})
	return r.k.Syscall(m)
}

// convergenceChecker is an injected run's syscall handler: before serving
// a call it tests the run against the shadow checkpoint of the same step
// count, if any, and ends the run with errConverged on a match.
type convergenceChecker struct {
	k   *kernel.Kernel
	cps []checkpoint
	// next is the first checkpoint not yet behind the run; syscalls come
	// at increasing step counts in both runs, so the scan is amortized
	// constant.
	next int
	// at is the step count of the matching syscall entry, 0 until the run
	// converges.
	at uint64
}

func (c *convergenceChecker) Syscall(m *vm.Machine) error {
	if c.at == 0 {
		for c.next < len(c.cps) && c.cps[c.next].m.Steps() < m.Steps {
			c.next++
		}
		if c.next < len(c.cps) {
			cp := &c.cps[c.next]
			if m.MatchesArch(cp.m) && c.k.Matches(cp.k) && m.MatchesMemory(cp.m) {
				c.at = m.Steps
				if onConverged == nil {
					return errConverged
				}
			}
		}
	}
	return c.k.Syscall(m)
}

// convergible reports whether a group's experiments all inject transient
// register faults, the mutations the convergence exit applies to.
func convergible(exps []inject.Experiment, indices []int) bool {
	for _, idx := range indices {
		if exps[idx].MutationKind() != inject.MutReg {
			return false
		}
	}
	return true
}

// rewind readies the worker machine for one run from snap with syscall
// handler sys, allocating it on first use. It returns the (possibly new)
// machine.
func (e *Engine) rewind(wm *vm.Machine, snap *snapEntry, sys vm.SyscallHandler) (*vm.Machine, error) {
	if wm == nil {
		wm = snap.m.NewMachine(sys)
		wm.NoICache = e.cfg.NoICache
		wm.NoUops = e.cfg.NoUops
		wm.NoDirtyTracking = e.cfg.NoDirtyTracking
		wm.NoTraces = e.cfg.NoTraces
	} else {
		if err := wm.Restore(snap.m); err != nil {
			return wm, err
		}
		wm.Sys = sys
	}
	// The snapshot was captured mid-sweep: its own and later targets'
	// breakpoints are still armed. A run from it must execute to its fate
	// without stopping at any of them.
	wm.ClearBreakpoints()
	return wm, nil
}

// runShadow runs the fault-free continuation of snap and returns its
// syscall-entry checkpoints. Its end must reproduce the golden run; any
// difference is a determinism violation and fails the campaign.
func (e *Engine) runShadow(wm *vm.Machine, snap *snapEntry, golden *classify.Golden) (*vm.Machine, []checkpoint, error) {
	client := e.cfg.Scenario.New()
	rec := &shadowRecorder{k: snap.k.NewKernel(client)}
	wm, err := e.rewind(wm, snap, rec)
	if err != nil {
		return wm, nil, err
	}
	endErr := wm.Run()
	var exit *vm.ExitStatus
	if !errors.As(endErr, &exit) || exit.Code != golden.ExitCode || wm.Steps != golden.Steps ||
		client.Granted() != golden.Granted || !bytes.Equal(rec.k.Transcript.ServerBytes(), golden.ServerBytes) {
		return wm, nil, fmt.Errorf("determinism violation: fault-free continuation from step %d ended %v after %d steps, golden run exited %d after %d",
			snap.activationSteps, endErr, wm.Steps, golden.ExitCode, golden.Steps)
	}
	return wm, rec.cps, nil
}

// goldenEnd is the observable end of a run from this snapshot that
// rejoined the shadow: the golden session's, activated at the breakpoint.
func (s *snapEntry) goldenEnd(golden *classify.Golden) *classify.Run {
	return &classify.Run{
		Activated:       true,
		Err:             &vm.ExitStatus{Code: golden.ExitCode},
		ServerBytes:     golden.ServerBytes,
		Granted:         golden.Granted,
		ActivationSteps: s.activationSteps,
		EndSteps:        golden.Steps,
	}
}
