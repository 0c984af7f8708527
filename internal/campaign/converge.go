package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sort"

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
// checkpoint at the instruction boundary before each int 0x80 and, for
// every target, the first and last steps at which the session retires it.
// From the first retirement of a target on, it also checkpoints the first
// boundary at or past every denseK-th step. All checkpoints form one list
// in step order, whatever the fault model. Each injected run's step alarm
// halts it at every checkpoint past its activation, where the run is
// compared against the checkpoint and ends on an exact match: registers,
// EIP, flags, TSC and every page either run wrote, skipping only the
// bytes the injector poked, then the kernel session. A persistent byte
// fault may stop only where the session never again retires the
// corrupted instruction. The run's result is built from the golden end
// state instead of interpreting the remaining instructions.
//
// In a campaign with register faults the same replay also answers, for
// every target, which register byte lanes are strongly live at its first
// retirement, the step every activation must match: which lanes can still
// reach a branch, an address, a fault, a syscall or the bytes the kernel
// reads. A lane whose value is only ever overwritten, copied into other
// dead locations (a callee-saved push and pop with no read between), or
// fed to computations whose results die, is not. A register fault into
// lanes that are not strongly live cannot change the run: it is the
// golden session from its activation on, and is recorded as such without
// interpreting anything. The same argument holds from any checkpoint,
// so the pass also keeps the live set at every checkpoint, dense ones
// included, and a register fault's run stops at a checkpoint where its
// step count, EIP, TSC and kernel session match exactly and every
// register lane, flag and byte it still differs in is dead. The replay logs each step's data flow
// (x86.RegFlow) with the data addresses it touches, and the kernel's
// copies to and from guest memory; one backward pass over register lanes,
// flags and the bytes of the writable regions answers every target and
// every checkpoint. DESIGN.md §3k has the soundness argument for these
// shortcuts.

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

// denseK is the spacing, in retired steps, of the golden shadow's dense
// checkpoints. Each costs a copy of the pages the session has written, so
// their memory grows as denseK shrinks, while the saving hardly moves: on
// the benchmark's bitflip-grid campaigns, spacings of 250 and 4,000 cut
// the interpreted instructions by 40.3% and 39.3%, against 40.1% at 1,000.
const denseK = 1000

// checkpoint is the shadow's full state at one instruction boundary and,
// in a campaign with register faults, the locations strongly live there.
type checkpoint struct {
	m    *vm.Checkpoint
	k    *kernel.Snapshot
	live *vm.Live
}

// shadow is a campaign's golden shadow. While the replay runs it is the
// machine's syscall handler: it serves each call and, in a campaign with
// register faults, logs the kernel's copies to and from guest memory.
type shadow struct {
	k       *kernel.Kernel         // the replay's session; nil once the replay ends
	targets map[uint32]*retirement // what the replay learned of each target

	// cps is the checkpoints in ascending step order. Those with no
	// syscall between them share one kernel snapshot, ks, which each
	// syscall drops.
	cps []checkpoint
	ks  *kernel.Snapshot

	// The replay's flow log, kept in a campaign with register faults
	// only and dropped when the replay ends: each step's flow, the stack
	// slots of the steps that also have an r/m memory operand, in step
	// order, and the kernel's copies to and from guest memory. The log's
	// index is the step count.
	flow   []flowStep
	stacks []uint32
	copies []kernelCopy
}

// retirement is what the golden shadow learned of one target.
type retirement struct {
	// first is the step count at the session's first retirement of the
	// target; last is the step count just after its last retirement, 0 if
	// the session never retires it.
	first, last uint64
	// dead holds the register lanes not strongly live at first; 0 in a
	// campaign without register faults.
	dead x86.Lanes
}

// flowStep is one retired step of the flow log: the index of its
// instruction's flow in the campaign's Text and one data address it
// touches, computed from the step's operands and pre-step registers: the
// r/m memory operand's, else the stack slot's. A push, pop or call with a
// memory r/m operand touches both; its stack slot is in shadow.stacks.
type flowStep struct {
	flow int32
	addr uint32
}

// stepAddrs is the data addresses one step touches: its r/m memory
// operand's and its stack slot's.
type stepAddrs struct{ mem, stk uint32 }

// kernelCopy is one syscall's copy between the kernel and guest memory: n
// bytes at addr that the syscall at flow log index step read (write's
// buffer) or wrote (read's buffer, time's result).
type kernelCopy struct {
	step    int
	addr, n uint32
	read    bool
}

// dead returns the register lanes a fault at target addr's activation, step
// count at, cannot affect. An activation at another step than the shadow's
// first retirement is a determinism violation.
func (sh *shadow) dead(addr uint32, at uint64) (x86.Lanes, error) {
	t := sh.targets[addr]
	if t.last == 0 || t.first != at {
		return 0, fmt.Errorf("campaign: %w: the golden shadow first retires the target at step %d (retired %v), the sweep at %d",
			errShadowDiverged, t.first, t.last != 0, at)
	}
	return t.dead, nil
}

func (sh *shadow) Syscall(m *vm.Machine) error {
	sh.ks = nil
	nr, buf := m.Regs[x86.EAX], m.Regs[x86.ECX]
	if nr == kernel.SysTime {
		buf = m.Regs[x86.EBX]
	}
	err := sh.k.Syscall(m)
	// On success EAX holds the bytes read or written, or time's result.
	n := m.Regs[x86.EAX]
	if sh.flow == nil || err != nil || int32(n) <= 0 {
		return err
	}
	c := kernelCopy{step: len(sh.flow) - 1, addr: buf, n: n}
	switch {
	case nr == kernel.SysWrite:
		c.read = true
	case nr == kernel.SysTime && buf != 0:
		c.n = 4
	case nr != kernel.SysRead:
		return nil
	}
	sh.copies = append(sh.copies, c)
	return nil
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
// One lookup per step in text serves as that second guard, marks the
// int 0x80 steps the replay checkpoints before and, in a campaign with
// register faults (text holds flows), yields the step's entry in the flow
// log the liveness pass reads. The replay also checkpoints the dense
// boundaries, from the first retirement of a target on: no run activates
// earlier.
func (e *Engine) goldenShadow(golden *classify.Golden, text *inject.Text, groups []group) (*shadow, error) {
	client := e.cfg.Scenario.New()
	sh := &shadow{k: kernel.New(client), targets: make(map[uint32]*retirement, len(groups))}
	ld, err := e.cfg.App.Image.Load(sh, nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: shadow load: %w", err)
	}
	m := ld.Machine
	m.Fuel = e.cfg.effectiveFuel()
	m.Tuning = e.cfg.Tuning
	if err := m.Restore(m.Snapshot()); err != nil {
		return nil, fmt.Errorf("campaign: shadow: %w", err)
	}
	for _, r := range m.Mem.Regions() {
		if r.Perm&vm.PermExec != 0 {
			r.Perm = vm.PermExec
		}
	}

	for i := range groups {
		sh.targets[groups[i].addr] = &retirement{}
	}
	if text.Flows != nil {
		sh.flow = make([]flowStep, 0, golden.Steps)
	}
	var endErr error
	// nextDense is the step of the next dense checkpoint, 0 until a
	// target retires. Any checkpoint moves it to the first multiple of
	// denseK past its step, which an int 0x80 checkpoint before it leaves
	// as it was.
	var nextDense uint64
	for endErr == nil {
		in, ok := text.At(m.EIP)
		if !ok {
			endErr = &vm.Fault{Kind: vm.FaultCFE, Addr: m.EIP, PC: m.EIP}
			break
		}
		if in.Syscall || nextDense != 0 && m.Steps >= nextDense {
			if sh.ks == nil {
				sh.ks = sh.k.Snapshot()
			}
			sh.cps = append(sh.cps, checkpoint{m: m.Checkpoint(), k: sh.ks})
			if nextDense != 0 {
				nextDense = (m.Steps/denseK + 1) * denseK
			}
		}
		if t := sh.targets[m.EIP]; t != nil {
			if t.last == 0 {
				t.first = m.Steps
				if nextDense == 0 {
					nextDense = (m.Steps/denseK + 1) * denseK
				}
			}
			t.last = m.Steps + 1
		}
		if sh.flow != nil {
			f, st := &text.Flows[in.Index], flowStep{flow: in.Index}
			switch {
			case f.MemW != 0:
				st.addr = x86.EffAddr(&f.Addr, &m.Regs)
				if f.HasStack {
					sh.stacks = append(sh.stacks, f.StackAddr(&m.Regs))
				}
			case f.HasStack:
				st.addr = f.StackAddr(&m.Regs)
			}
			sh.flow = append(sh.flow, st)
		}
		endErr = m.Step()
	}
	var exit *vm.ExitStatus
	if !errors.As(endErr, &exit) || exit.Code != golden.ExitCode || m.Steps != golden.Steps ||
		client.Granted() != golden.Granted || !bytes.Equal(sh.k.Transcript.ServerBytes(), golden.ServerBytes) {
		return nil, fmt.Errorf("%w: golden shadow ended %v after %d steps, golden run exited %d after %d",
			errShadowDiverged, endErr, m.Steps, golden.ExitCode, golden.Steps)
	}
	sh.k, sh.ks = nil, nil
	if sh.flow != nil {
		sh.liveness(text, m.Mem)
		sh.flow, sh.stacks, sh.copies = nil, nil, nil
	}
	return sh, nil
}

// liveness is the backward strong-liveness pass over the flow log. Nothing
// is live after the session's end. It records at each retired target the
// register lanes not live before its first retirement, and at each
// checkpoint the set live before the step it precedes, that step's
// kernel copies applied. mem is the replay's address space, whose
// writable regions the pass tracks bytes of.
func (sh *shadow) liveness(text *inject.Text, mem *vm.Memory) {
	var ts []*retirement
	for _, t := range sh.targets {
		if t.last != 0 {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].first > ts[j].first })
	lv := newLiveSet(mem)
	ci, si, cpi := len(sh.copies)-1, len(sh.stacks), len(sh.cps)-1
	for k := len(sh.flow) - 1; k >= 0; k-- {
		s := &sh.flow[k]
		f := &text.Flows[s.flow]
		var a stepAddrs
		switch {
		case f.MemW != 0:
			a.mem = s.addr
			if f.HasStack {
				si--
				a.stk = sh.stacks[si]
			}
		case f.HasStack:
			a.stk = s.addr
		}
		lv.step(f, &a)
		for ; ci >= 0 && sh.copies[ci].step == k; ci-- {
			c := &sh.copies[ci]
			lv.putRange(c.addr, c.n, c.read)
		}
		for ; cpi >= 0 && sh.cps[cpi].m.Steps() == uint64(k); cpi-- {
			sh.cps[cpi].live = lv.snapshot()
		}
		for ; len(ts) > 0 && ts[0].first == uint64(k); ts = ts[1:] {
			ts[0].dead = x86.AllLanes &^ lv.regs
		}
	}
}

// liveSet is the strongly live locations at one point of the session:
// register lanes, EFLAGS bits, and one bit per byte of each writable
// region. A byte outside them is never tracked: no run can change a
// read-only byte, and an access to an unmapped one faults at an address
// that is itself live.
type liveSet struct {
	regs  x86.Lanes
	flags uint32
	mem   []liveRegion
	last  int // the region word found last, tried first
}

// liveRegion is the live bits of one writable region's bytes: bit i of
// bits[j] is byte 64·j+i's, so each word is one 64-byte dirty page.
type liveRegion struct {
	base, size uint32
	bits       []uint64
}

// snapshot returns the set as a vm.Live, keeping only the pages that hold
// a live byte.
func (lv *liveSet) snapshot() *vm.Live {
	l := &vm.Live{Regs: lv.regs, Flags: lv.flags, Mem: make([]vm.LivePages, len(lv.mem))}
	for i := range lv.mem {
		r, p := &lv.mem[i], &l.Mem[i]
		p.Base = r.base
		for j, w := range r.bits {
			if w != 0 {
				p.Pages = append(p.Pages, uint32(j))
				p.Bits = append(p.Bits, w)
			}
		}
	}
	return l
}

func newLiveSet(mem *vm.Memory) *liveSet {
	lv := &liveSet{}
	for _, r := range mem.Regions() {
		if r.Perm&vm.PermWrite != 0 {
			lv.mem = append(lv.mem, liveRegion{base: r.Base, size: uint32(len(r.Data)),
				bits: make([]uint64, (len(r.Data)+63)/64)})
		}
	}
	return lv
}

// get returns bit i set for each live byte addr+i, i < n <= 8.
func (lv *liveSet) get(addr uint32, n uint8) uint8 {
	if w, sh := lv.word(addr, n); w != nil {
		return uint8(*w>>sh) & (1<<n - 1)
	}
	var out uint8
	for i := uint8(0); i < n; i++ {
		if w, sh := lv.word(addr+uint32(i), 1); w != nil && *w>>sh&1 != 0 {
			out |= 1 << i
		}
	}
	return out
}

// put makes byte addr+i live (on) or dead for each bit i of m.
func (lv *liveSet) put(addr uint32, m uint8, on bool) {
	if w, sh := lv.word(addr, 8-uint8(bits.LeadingZeros8(m))); w != nil {
		if on {
			*w |= uint64(m) << sh
		} else {
			*w &^= uint64(m) << sh
		}
		return
	}
	for i := uint32(0); m != 0; i, m = i+1, m>>1 {
		if w, sh := lv.word(addr+i, 1); w != nil && m&1 != 0 {
			if on {
				*w |= 1 << sh
			} else {
				*w &^= 1 << sh
			}
		}
	}
}

// putRange makes the n bytes at addr live (on) or dead.
func (lv *liveSet) putRange(addr, n uint32, on bool) {
	for ; n > 0; n-- {
		lv.put(addr, 1, on)
		addr++
	}
}

// word locates the live bits of the n bytes at addr, 1 <= n <= 8, when
// they share one bitmap word of one region: bit sh of *w is byte addr's.
// w is nil otherwise, and for an untracked byte.
func (lv *liveSet) word(addr uint32, n uint8) (w *uint64, sh uint32) {
	if len(lv.mem) == 0 {
		return nil, 0
	}
	r := &lv.mem[lv.last]
	off := addr - r.base
	if off >= r.size {
		i := 0
		for ; i < len(lv.mem); i++ {
			if r, off = &lv.mem[i], addr-lv.mem[i].base; off < r.size {
				break
			}
		}
		if i == len(lv.mem) {
			return nil, 0
		}
		lv.last = i
	}
	if off+uint32(n) > r.size || off&63+uint32(n) > 64 {
		return nil, 0
	}
	return &r.bits[off>>6], off & 63
}

// addr returns the address of memory operand op (x86.MemRM or
// x86.MemStack) at step s.
func (s *stepAddrs) addr(op uint8) uint32 {
	if op == x86.MemStack {
		return s.stk
	}
	return s.mem
}

// step turns the set live after a step of flow f that touches addresses s
// into the set live before it.
func (lv *liveSet) step(f *x86.Flow, s *stepAddrs) {
	if f.Opaque {
		lv.regs, lv.flags = x86.AllLanes, ^uint32(0)
		for i := range lv.mem {
			for j := range lv.mem[i].bits {
				lv.mem[i].bits[j] = ^uint64(0)
			}
		}
		return
	}
	out := f.Writes&lv.regs != 0 || f.FlagWrites&lv.flags != 0 ||
		f.MemWrites&x86.MemRM != 0 && lv.get(s.mem, f.MemW) != 0 ||
		f.MemWrites&x86.MemStack != 0 && lv.get(s.stk, 4) != 0
	// Each copy's live destination bytes, read before any destination dies.
	var live [2]uint8
	for i, c := range f.Copies[:f.NCopies] {
		if c.Dst.Mem == 0 {
			live[i] = uint8(lv.regs >> c.Dst.Lane & (1<<f.N - 1))
		} else {
			live[i] = lv.get(s.addr(c.Dst.Mem), f.N)
		}
	}

	lv.regs &^= f.Writes
	lv.flags &^= f.FlagWrites
	if f.MemWrites&x86.MemRM != 0 {
		lv.put(s.mem, 1<<f.MemW-1, false)
	}
	if f.MemWrites&x86.MemStack != 0 {
		lv.put(s.stk, 0xF, false)
	}
	for _, c := range f.Copies[:f.NCopies] {
		if c.Dst.Mem == 0 {
			lv.regs &^= x86.Lanes(1<<f.N-1) << c.Dst.Lane
		} else {
			lv.put(s.addr(c.Dst.Mem), 1<<f.N-1, false)
		}
	}

	for i, c := range f.Copies[:f.NCopies] {
		if c.Src.Mem == 0 {
			lv.regs |= x86.Lanes(live[i]) << c.Src.Lane
		} else if live[i] != 0 {
			lv.put(s.addr(c.Src.Mem), live[i], true)
		}
	}
	lv.regs |= f.Sinks
	lv.flags |= f.SinkFlags
	reads := f.SinkMem
	if out {
		lv.regs |= f.Reads
		lv.flags |= f.FlagReads
		reads |= f.MemReads
	}
	if reads&x86.MemRM != 0 {
		lv.put(s.mem, 1<<f.MemW-1, true)
	}
	if reads&x86.MemStack != 0 {
		lv.put(s.stk, 0xF, true)
	}
}

// convergenceChecker is an injected run's step-alarm hook: it arms the
// alarm at the shadow's checkpoints one at a time, tests the run against
// each where the alarm stops it, and ends the run with errConverged on a
// match. Where the checkpoint holds a live set, in a campaign of register
// faults, the run matches if every location it differs in is dead there;
// elsewhere it must match exactly.
type convergenceChecker struct {
	k   *kernel.Kernel
	cps []checkpoint
	// next is the checkpoint the run's alarm is armed at, when next <
	// len(cps).
	next int
	// from is the first step count at which the run may stop: past the
	// session's last retirement of a corrupted instruction, 0 for a
	// transient fault.
	from uint64
	// skip and n delimit the poked bytes the memory compare ignores.
	skip uint32
	n    int
	// at is the step count of the checkpoint the run matched, 0 until
	// the run converges.
	at uint64
}

// arm readies c for one run of mutation mut at addr on kernel k and
// machine m, stopped at its activation, and arms m's step alarm. The
// shadow has retired addr: runGroup checked its first retirement.
func (c *convergenceChecker) arm(sh *shadow, k *kernel.Kernel, m *vm.Machine, addr uint32, mut *inject.Mutation) {
	*c = convergenceChecker{k: k, cps: sh.cps}
	if mut.Kind == inject.MutBytes {
		c.from, c.skip, c.n = sh.targets[addr].last, addr, len(mut.Bytes)
	}
	c.rearm(m)
}

// rearm arms m's step alarm at the first checkpoint past m's step count
// and at or past from; past the last one it arms nothing.
func (c *convergenceChecker) rearm(m *vm.Machine) {
	for c.next < len(c.cps) && (c.cps[c.next].m.Steps() <= m.Steps || c.cps[c.next].m.Steps() < c.from) {
		c.next++
	}
	if c.next < len(c.cps) {
		m.SetAlarm(c.cps[c.next].m.Steps())
	}
}

// alarm is the run's inject.Session.OnAlarm: the compare against the
// checkpoint the alarm was armed for. A run whose step count is not the
// checkpoint's (a rep string op carried it past) fails it, and on a miss
// the alarm moves on to the next checkpoint. A match arms nothing more.
func (c *convergenceChecker) alarm(m *vm.Machine) error {
	cp := &c.cps[c.next]
	if !m.Matches(cp.m, cp.live, c.skip, c.n) || !c.k.Matches(cp.k) {
		c.rearm(m)
		return nil
	}
	c.at = m.Steps
	if onConverged == nil {
		return errConverged
	}
	return nil
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
