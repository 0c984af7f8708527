package campaign

import (
	"bytes"
	"errors"
	"fmt"

	"faultsec/internal/classify"
	"faultsec/internal/inject"
	"faultsec/internal/kernel"
	"faultsec/internal/vm"
	"faultsec/internal/x86"
)

// Golden convergence. Many injected runs either derail or soon hold
// exactly the state of the fault-free session at the same step, and from
// there determinism fixes the rest of their outcome. Once per campaign the
// engine replays the fault-free session — the golden shadow — recording a
// checkpoint at each syscall entry and, for every target, the first and
// last steps at which the session retires it. Each injected run then
// compares itself against the checkpoint with its own step count at its
// syscall entries, and stops on an exact match: registers, EIP, flags and
// TSC first, then the kernel session, then every page either run wrote,
// skipping only the bytes the injector poked. A persistent byte fault may
// stop only where the session never again retires the corrupted
// instruction. The run's result is built from the golden end state
// instead of interpreting the remaining instructions. DESIGN.md §3k has
// the soundness argument.
//
// The same replay records each target's first retirement, the step every
// activation must match, and in a campaign with register faults answers
// one liveness question per target: which registers does the session,
// from its first retirement of the target on, fully overwrite before
// reading them again, or never read again? A register fault into such a
// dead register cannot change the run: it is the golden session from its
// activation on, and is recorded as such without interpreting anything.
// The replay logs each step's register use/def, and one backward pass over
// the log answers every target.

// errConverged ends an injected run that has rejoined the golden shadow.
var errConverged = errors.New("campaign: run rejoined the fault-free shadow")

// errShadowDiverged reports a golden shadow that did not end exactly like
// the golden run. The campaign then converges nothing.
var errShadowDiverged = errors.New("determinism violation")

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

// shadow is a campaign's golden shadow. While the replay runs it is the
// machine's syscall handler: it checkpoints the machine and the session
// at every syscall entry, then serves the call.
type shadow struct {
	k       *kernel.Kernel // the replay's session; nil once the replay ends
	cps     []checkpoint
	targets map[uint32]*retirement // what the replay learned of each target
}

// retirement is what the golden shadow learned of one target.
type retirement struct {
	// first is the step count at the session's first retirement of the
	// target; last is the step count just after its last retirement, 0 if
	// the session never retires it.
	first, last uint64
	// dead holds the registers the session fully writes before reading
	// them again after first, or never reads again; 0 in a campaign
	// without register faults.
	dead x86.RegMask
}

// dead returns the registers a fault at target addr's activation, step
// count at, cannot affect. An activation at another step than the
// shadow's first retirement is a determinism violation.
func (sh *shadow) dead(addr uint32, at uint64) (x86.RegMask, error) {
	t := sh.targets[addr]
	if t.last == 0 || t.first != at {
		return 0, fmt.Errorf("campaign: %w: the golden shadow first retires the target at step %d (retired %v), the sweep at %d",
			errShadowDiverged, t.first, t.last != 0, at)
	}
	return t.dead, nil
}

func (sh *shadow) Syscall(m *vm.Machine) error {
	sh.cps = append(sh.cps, checkpoint{m: m.Checkpoint(), k: sh.k.Snapshot()})
	return sh.k.Syscall(m)
}

// goldenShadow replays the fault-free session one step at a time on a
// machine whose dirty tracking is armed at load, so every checkpoint holds
// exactly the pages the session wrote since load. Two guards make the
// replay prove what a persistent fault needs: text is mapped execute-only,
// so a session that reads its own text faults, and every step must start
// a valid instruction of text, so a session that jumps mid-instruction
// faults. A replay that does not end exactly like golden returns an error
// wrapping errShadowDiverged.
//
// One lookup per step in text serves as that second guard and, in a
// campaign with register faults, as the step's entry in the use/def log
// the liveness pass reads.
func (e *Engine) goldenShadow(golden *classify.Golden, text inject.Text, exps []inject.Experiment,
	groups []group) (*shadow, error) {
	client := e.cfg.Scenario.New()
	sh := &shadow{k: kernel.New(client), targets: make(map[uint32]*retirement, len(groups))}
	ld, err := e.cfg.App.Image.Load(sh, nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: shadow load: %w", err)
	}
	m := ld.Machine
	m.Fuel = e.cfg.effectiveFuel()
	// One pass over the session gains little from predecoding, and the
	// decode tables would be garbage as soon as the replay ends.
	m.NoICache = true
	if err := m.Restore(m.Snapshot()); err != nil {
		return nil, fmt.Errorf("campaign: shadow: %w", err)
	}
	for _, r := range m.Mem.Regions() {
		if r.Perm&vm.PermExec != 0 {
			r.Perm = vm.PermExec
		}
	}

	var log []inject.UseDef // each step's use/def in a campaign with register faults
	for i := range groups {
		sh.targets[groups[i].addr] = &retirement{}
		for _, idx := range groups[i].indices {
			if log == nil && exps[idx].Mut.Kind == inject.MutReg {
				log = make([]inject.UseDef, 0, golden.Steps)
			}
		}
	}
	var endErr error
	for endErr == nil {
		ud, ok := text[m.EIP]
		if !ok {
			endErr = &vm.Fault{Kind: vm.FaultCFE, Addr: m.EIP, PC: m.EIP}
			break
		}
		if t := sh.targets[m.EIP]; t != nil {
			if t.last == 0 {
				t.first = m.Steps
			}
			t.last = m.Steps + 1
		}
		if log != nil {
			log = append(log, ud)
		}
		endErr = m.Step()
	}
	var exit *vm.ExitStatus
	if !errors.As(endErr, &exit) || exit.Code != golden.ExitCode || m.Steps != golden.Steps ||
		client.Granted() != golden.Granted || !bytes.Equal(sh.k.Transcript.ServerBytes(), golden.ServerBytes) {
		return nil, fmt.Errorf("%w: golden shadow ended %v after %d steps, golden run exited %d after %d",
			errShadowDiverged, endErr, m.Steps, golden.ExitCode, golden.Steps)
	}
	sh.k = nil

	// Backward pass: a register is live before a step that reads it, or
	// that leaves it unwritten while it is live after; nothing is live
	// after the session's end.
	liveBefore := make([]x86.RegMask, len(log))
	var live x86.RegMask
	for k := len(log) - 1; k >= 0; k-- {
		live = log[k].Reads | live&^log[k].Writes
		liveBefore[k] = live
	}
	for _, t := range sh.targets {
		if log != nil && t.last != 0 {
			t.dead = ^liveBefore[t.first]
		}
	}
	return sh, nil
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
	// from is the first step count at which the run may stop: past the
	// session's last retirement of a corrupted instruction, 0 for a
	// transient fault.
	from uint64
	// skip and n delimit the poked bytes the memory compare ignores.
	skip uint32
	n    int
	// at is the step count of the matching syscall entry, 0 until the run
	// converges.
	at uint64
}

// arm readies c for one run of mutation mut at addr on kernel k. The
// shadow has retired addr: runGroup checked its first retirement.
func (c *convergenceChecker) arm(sh *shadow, k *kernel.Kernel, addr uint32, mut *inject.Mutation) {
	*c = convergenceChecker{k: k, cps: sh.cps}
	if mut.Kind == inject.MutBytes {
		c.from, c.skip, c.n = sh.targets[addr].last, addr, len(mut.Bytes)
	}
}

func (c *convergenceChecker) Syscall(m *vm.Machine) error {
	if c.at == 0 && m.Steps >= c.from {
		for c.next < len(c.cps) && c.cps[c.next].m.Steps() < m.Steps {
			c.next++
		}
		if c.next < len(c.cps) {
			cp := &c.cps[c.next]
			if m.MatchesArch(cp.m) && c.k.Matches(cp.k) && m.MatchesMemory(cp.m, c.skip, c.n) {
				c.at = m.Steps
				if onConverged == nil {
					return errConverged
				}
			}
		}
	}
	return c.k.Syscall(m)
}

// rewind readies the worker machine for one run from snap with syscall
// handler sys, allocating it on first use; a new machine inherits the
// sweep machine's Tuning from the snapshot. It returns the (possibly new)
// machine.
func rewind(wm *vm.Machine, snap *snapEntry, sys vm.SyscallHandler) (*vm.Machine, error) {
	if wm == nil {
		wm = snap.m.NewMachine(sys)
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
