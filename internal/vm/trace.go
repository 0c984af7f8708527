package vm

import "faultsec/internal/x86"

// This file implements superblock trace fusion: straight-line runs of
// predecoded micro-ops are fused, once, into a trace that Machine.Run's
// fused step executes end to end without per-instruction dispatch — no
// per-step icache lookup, no fuel/watchdog/breakpoint probing, no Run-loop
// round-trip. (Machine.Step keeps its one-instruction-per-call contract
// and never runs traces.) A trace extends from its head instruction to the first
// control-flow instruction (included, as the final op), the containing
// region's edge, an unfuseable op, or the size caps, whichever comes
// first.
//
// Correctness invariants:
//
//   - Traces fuse only micro-ops whose EIP effect is plain fall-through
//     (control flow terminates the trace), so the pre-advanced EIP each op
//     sees is exactly what the per-step path would have set.
//   - Per-op bookkeeping (m.pc, m.EIP, Steps, TSC) is identical to Step's,
//     so a fault, exit or kernel error raised mid-trace observes the same
//     machine state as single-stepping would.
//   - Run only enters a trace when no per-step check can fire: fuel is
//     pre-checked for the whole trace (otherwise it single-steps to the
//     OutOfFuel point), and traces are gated off entirely while
//     breakpoints are armed or the control-flow watchdog is on.
//   - Self-modifying writes: Memory.invalGen is polled after every fused
//     op; a change means a store just invalidated cached decodes, so the
//     remainder of the trace may be stale and the trace aborts (EIP
//     already points at the next instruction, so execution resumes
//     seamlessly through the per-step path, which re-decodes from the
//     current bytes).
//   - REP string ops never fuse: their handler runs an internal
//     per-iteration loop with its own Steps/fuel accounting. RDTSC never
//     fuses so that a fused TSC update scheme never becomes observable.
//   - Traces are private to one machine, like its decode tables. Restore
//     keeps traces over pristine bytes and drops the ones over the bytes
//     it rewrites (icacheRevert), which is what lets decode and fuse work
//     survive from run to run on a reused machine.

const (
	// maxTraceUops caps the fused ops per trace; maxTraceBytes caps the
	// byte span, bounding the invalidation back-span a poke must widen to.
	maxTraceUops  = 32
	maxTraceBytes = 128
)

// traceOp is one fused micro-op: the resolved handler, the bound
// micro-op, and the instruction address with its precomputed fall-through
// successor.
type traceOp struct {
	fn   uopFn
	pc   uint32
	next uint32
	u    x86.Uop
}

// trace is a fused superblock. A trace with no ops is the "don't fuse
// here" sentinel: the head instruction is unfuseable (string/rdtsc op, or
// undecodable), and Run falls through to the single-step path without
// re-attempting the fuse.
type trace struct {
	ops []traceOp
}

// traceLookup returns the fused trace headed at pc, nil when none has
// been built (or the slot was invalidated).
func (m *Memory) traceLookup(pc uint32) *trace {
	rt, i := m.icacheAt(pc)
	if rt == nil || rt.traces == nil {
		return nil
	}
	return rt.traces[i]
}

// buildTrace fuses and caches the trace headed at pc. Returns nil when pc
// is not in an executable region (the caller's fetch will fault).
func (m *Machine) buildTrace(pc uint32) *trace {
	rt := m.Mem.icacheTable(pc)
	if rt == nil {
		return nil
	}
	tr := m.fuseTrace(pc, rt.base+uint32(len(rt.entries)))
	if rt.traces == nil {
		rt.traces = make([]*trace, len(rt.entries))
	}
	rt.traces[pc-rt.base] = tr
	return tr
}

// fuseTrace walks the instruction stream from pc, reusing cached decodes
// and filling the icache for new ones, and fuses ops until a terminator
// (included), the region end, an unfuseable op, or a size cap. Traces
// never cross end (the region edge): invalidation is per-region, so a
// trace must live entirely inside the region that indexes it.
func (m *Machine) fuseTrace(pc, end uint32) *trace {
	tr := &trace{}
	addr := pc
	for len(tr.ops) < maxTraceUops {
		s := m.Mem.icacheLookup(addr)
		if s == nil {
			code, f := m.Mem.Fetch(addr, x86.MaxInstLen)
			if f != nil {
				break
			}
			var in x86.Inst
			if err := x86.DecodeInto(&in, code); err != nil {
				break
			}
			var tmp islot
			in.Bind(&tmp.uop)
			m.ICacheMisses++
			m.Mem.icacheFill(addr, &tmp)
			s = &tmp
		}
		h := s.uop.H
		if h == x86.UString || h == x86.URdtsc {
			break
		}
		next := addr + uint32(s.uop.Len)
		if next > end || next-pc > maxTraceBytes {
			break
		}
		tr.ops = append(tr.ops, traceOp{
			fn:   uopTable[h&(uopTableSize-1)],
			pc:   addr,
			next: next,
			u:    s.uop,
		})
		if traceTerminator(h) {
			break
		}
		addr = next
	}
	return tr
}

// traceTerminator reports whether handler h ends a trace: anything that
// redirects EIP, enters the kernel, or unconditionally faults. Such an op
// fuses as the trace's final op and the next Step starts a new trace at
// wherever it went.
func traceTerminator(h uint16) bool {
	switch h {
	case x86.UJcc, x86.UJmpRel, x86.UJmpRM, x86.UJCXZ,
		x86.ULoop, x86.ULoopE, x86.ULoopNE,
		x86.UCallRel, x86.UCallRM, x86.URet,
		x86.UInt3, x86.UInto, x86.USyscall, x86.UBadInt, x86.UBound,
		x86.UPrivileged, x86.UUD, x86.UInvalid:
		return true
	}
	return false
}

// runTrace executes a fused trace. The caller (stepFused) has verified
// fuel for the whole trace, no armed breakpoints, and no watchdog.
//
// Steps, TSC and EIP are batched: inside the trace only m.pc (fault
// stamping) is maintained per op, and the architectural counters are
// materialized at every exit point — before the final op (the only place
// a kernel entry can observe them: syscalls are terminators, so they are
// always last, and RDTSC never fuses) and on the early-exit paths, where
// they land on exactly the values per-step execution would have produced
// at that instruction.
func (m *Machine) runTrace(tr *trace) error {
	m.TraceHits++
	gen := m.Mem.invalGen
	ops := tr.ops
	last := len(ops) - 1
	for i := range ops {
		e := &ops[i]
		m.pc = e.pc
		if i == last {
			m.flushTrace(e, i)
			if err := e.fn(m, &e.u); err != nil {
				m.TraceExits++
				return err
			}
			return nil
		}
		if err := e.fn(m, &e.u); err != nil {
			m.flushTrace(e, i)
			m.TraceExits++
			return err
		}
		if m.Mem.invalGen != gen {
			// A store just landed in an executable region: the rest of
			// the trace may be decoded from dead bytes. Materialize the
			// counters and fall back to single-stepping, which
			// re-decodes from the current bytes.
			m.flushTrace(e, i)
			m.TraceExits++
			return nil
		}
	}
	return nil
}

// flushTrace materializes the batched per-step state as of having retired
// ops[0..i] of the current trace, with e = &ops[i]: EIP points past e
// exactly as Step would have left it.
func (m *Machine) flushTrace(e *traceOp, i int) {
	m.EIP = e.next
	m.Steps += uint64(i + 1)
	m.TSC += 3 * uint64(i+1) // deterministic pseudo cycle count, as in Step
}
