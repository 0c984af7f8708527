package vm

import (
	"bytes"
	"math/bits"

	"faultsec/internal/x86"
)

// This file implements the predecoded instruction cache (icache): a dense
// per-region table mapping every executable address to the micro-op its
// decode binds to (see exec_uop.go), filled lazily by Machine.Step and
// consulted before the fetch+decode+bind slow path. The text segment is
// immutable apart from the injector's pokes, so almost every retirement
// after warm-up is a hit.
//
// The cache is private to its machine and obeys one rule: it describes
// the bytes its machine holds. Three channels change those bytes:
//
//   - Memory.Poke (the injector's ptrace-POKETEXT analog),
//   - a successful program write to a region mapped PermExec
//     (self-modifying code; regular images map text r-x, so this only
//     fires for deliberately rwx-mapped regions), and
//   - Machine.Restore, which rewrites the bytes a run changed.
//
// All three funnel through Memory.icacheInvalidate, which voids every
// cached decode whose instruction span could overlap the written bytes —
// an instruction starting up to MaxInstLen-1 bytes before the first
// written byte may straddle it. Everything else survives, so a machine
// reused across the runs of a campaign keeps its decodes and traces over
// pristine code from run to run. A fresh mapping drops the cache.

// islot is one predecoded cache slot: the micro-op the instruction's
// decode was bound to at fill time. Warm retirements dispatch straight
// through uop.H. uop.Len == 0 marks an empty slot; every successfully
// decoded instruction has Len >= 1.
type islot struct {
	uop x86.Uop
}

// icacheRegion is the decode table for one executable region: entries[i]
// caches the instruction starting at base+i.
type icacheRegion struct {
	base    uint32
	entries []islot
	// traces holds the fused superblock traces (trace.go), indexed like
	// entries by start address and allocated on the first fuse.
	// Invalidation zeroes trace pointers with a back-span widened to
	// maxTraceBytes-1, since a trace may extend that far past its start.
	traces []*trace
}

// zeroTraces drops fused traces that could overlap [lo, hi). The span
// carries only the islot back-span (MaxInstLen-1); a trace starting up to
// maxTraceBytes-1 bytes before a written byte can extend across it, so
// the low edge is widened by the difference (conservatively by the full
// maxTraceBytes) and re-clamped to the region.
func (rt *icacheRegion) zeroTraces(lo, hi uint32) {
	if rt.traces == nil {
		return
	}
	wlo := lo - maxTraceBytes
	if wlo > lo || wlo < rt.base { // underflow or region edge
		wlo = rt.base
	}
	clear(rt.traces[wlo-rt.base : hi-rt.base])
}

// icacheAt returns the decode table covering pc and pc's index in it, or
// nil when no table covers pc.
func (m *Memory) icacheAt(pc uint32) (*icacheRegion, uint32) {
	for _, rt := range m.icache {
		// Unsigned wrap folds the two range compares into one: pc below
		// base underflows to a huge index and fails the length check.
		if i := pc - rt.base; i < uint32(len(rt.entries)) {
			return rt, i
		}
	}
	return nil, 0
}

// icacheLookup returns the cached slot (decode + bound micro-op) of the
// instruction at pc, or nil on a miss.
func (m *Memory) icacheLookup(pc uint32) *islot {
	rt, i := m.icacheAt(pc)
	if rt == nil || rt.entries[i].uop.Len == 0 {
		return nil
	}
	return &rt.entries[i]
}

// icacheTable returns the decode table covering pc, creating it on first
// use; nil when pc is not in an executable region.
func (m *Memory) icacheTable(pc uint32) *icacheRegion {
	if rt, _ := m.icacheAt(pc); rt != nil {
		return rt
	}
	r := m.Find(pc)
	if r == nil || r.Perm&PermExec == 0 {
		return nil
	}
	rt := &icacheRegion{base: r.Base, entries: make([]islot, len(r.Data))}
	m.icache = append(m.icache, rt)
	return rt
}

// icacheFill records the decoded-and-bound slot for the instruction at pc.
func (m *Memory) icacheFill(pc uint32, s *islot) {
	if rt := m.icacheTable(pc); rt != nil {
		rt.entries[pc-rt.base] = *s
	}
}

// icacheInvalidate voids every cached decode and fused trace that could
// cover the n bytes written at addr: instructions start at most
// MaxInstLen-1 bytes before the first written byte.
func (m *Memory) icacheInvalidate(addr uint32, n int) {
	if n <= 0 {
		return
	}
	// Bump the invalidation generation before anything else: an in-flight
	// fused trace polls it between micro-ops and must see the change even
	// when the write lands outside every cached table.
	m.invalGen++
	lo := addr - (x86.MaxInstLen - 1)
	if lo > addr { // underflow below address zero
		lo = 0
	}
	hi := addr + uint32(n)
	for _, rt := range m.icache {
		rlo, rhi := max(lo, rt.base), min(hi, rt.base+uint32(len(rt.entries)))
		if rlo >= rhi {
			continue
		}
		clear(rt.entries[rlo-rt.base : rhi-rt.base])
		rt.zeroTraces(rlo, rhi)
	}
}

// icacheRevert voids the decodes over the bytes of r that a restore is
// about to overwrite with src (the snapshot's copy, same length): in
// every dirty page when dirtyOnly, else in every page. Pristine code
// keeps its decodes and traces across restores. Regions without a decode
// table cost nothing.
func (m *Memory) icacheRevert(r *Region, src []byte, dirtyOnly bool) {
	if rt, _ := m.icacheAt(r.Base); rt == nil {
		return
	}
	if !dirtyOnly {
		for p := range uint32(len(r.Data)+dirtyPageSize-1) >> dirtyPageShift {
			m.icacheRevertPage(r, src, p)
		}
		return
	}
	for wi, w := range r.dirty {
		for w != 0 {
			b := uint32(bits.TrailingZeros64(w))
			w &^= 1 << b
			m.icacheRevertPage(r, src, uint32(wi)<<6|b)
		}
	}
}

// icacheRevertPage invalidates page p of r from the first to the last
// byte that differs from src.
func (m *Memory) icacheRevertPage(r *Region, src []byte, p uint32) {
	lo, hi := r.page(p)
	cur, old := r.Data[lo:hi], src[lo:hi]
	if bytes.Equal(cur, old) {
		return
	}
	first, last := 0, len(cur)-1
	for cur[first] == old[first] {
		first++
	}
	for cur[last] == old[last] {
		last--
	}
	m.icacheInvalidate(r.Base+lo+uint32(first), last-first+1)
}
