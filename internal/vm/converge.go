package vm

import (
	"bytes"
	"math/bits"

	"faultsec/internal/x86"
)

// Checkpoint is a machine's complete architectural state at one instant,
// held against the snapshot the machine was last restored from: registers,
// EIP, EFLAGS, the step and TSC counters, and a copy of only the 64-byte
// pages written since that restore (every other byte still equals the
// snapshot, which the dirty bitmaps guarantee). The campaign engine records
// one at every syscall entry of a fault-free replay whose dirty tracking is
// armed at load, and asks each injected run whether it has rejoined it. A
// Checkpoint keeps no reference to its snapshot: the runs it is compared
// against hold a later snapshot of the same session, which equals it
// outside the checkpoint's written pages (see MatchesMemory).
//
// A Checkpoint is immutable after capture and safe for concurrent use.
type Checkpoint struct {
	regs  [x86.NumRegs]uint32
	eip   uint32
	flags uint32
	steps uint64
	tsc   uint64

	// sizes is each region's length, the layout a compared machine must
	// have.
	sizes []int
	// dirty is a copy of each region's dirty bitmap (nil: no page written);
	// pages holds the written pages' bytes packed in page order, so the
	// k-th set bit of dirty[i] is pages[i][k*64:].
	dirty [][]uint64
	pages [][]byte
}

// Steps returns the retired-instruction count at capture time.
func (c *Checkpoint) Steps() uint64 { return c.steps }

// Checkpoint captures the machine's state relative to the snapshot it was
// last restored from. It returns nil when there is no such baseline: dirty
// tracking is off, or the machine was never restored.
func (m *Machine) Checkpoint() *Checkpoint {
	if m.lastSnap == nil {
		return nil
	}
	regions := m.Mem.Regions()
	c := &Checkpoint{
		regs:  m.Regs,
		eip:   m.EIP,
		flags: m.Flags,
		steps: m.Steps,
		tsc:   m.TSC,
		sizes: make([]int, len(regions)),
		dirty: make([][]uint64, len(regions)),
		pages: make([][]byte, len(regions)),
	}
	for i, r := range regions {
		c.sizes[i] = len(r.Data)
		n := r.dirtyPageCount()
		if n == 0 {
			continue
		}
		c.dirty[i] = append([]uint64(nil), r.dirty...)
		data := make([]byte, 0, n*dirtyPageSize)
		for wi, w := range r.dirty {
			for w != 0 {
				b := uint32(bits.TrailingZeros64(w))
				w &^= 1 << b
				lo, hi := r.page(uint32(wi)<<6 | b)
				data = append(data, r.Data[lo:hi]...)
			}
		}
		c.pages[i] = data
	}
	return c
}

// MatchesArch reports whether the machine's registers, EIP, EFLAGS, step
// count and TSC equal the checkpoint's, and the machine tracks its writes
// (without dirty tracking its memory cannot be compared). It is the cheap
// first half of a convergence test.
func (m *Machine) MatchesArch(c *Checkpoint) bool {
	return c != nil && m.lastSnap != nil && m.Steps == c.steps &&
		m.EIP == c.eip && m.Flags == c.flags && m.TSC == c.tsc && m.Regs == c.regs
}

// MatchesMemory reports whether the machine's address space equals the
// checkpoint's byte for byte, except for the n bytes at skip (n = 0
// skips nothing): the injector's poked span, which a persistent fault
// leaves different for good.
//
// The checkpoint's machine was restored from a snapshot B; this machine
// was restored from a snapshot S. The caller guarantees that B and S are
// states of one session and that S is no later than the checkpoint: every
// page the session wrote between B and S is then in the checkpoint's
// dirty set, so outside that set S still holds B's bytes. Only the union
// of the two dirty sets can therefore differ, and only it is compared:
// against the checkpoint's copy where it has one, and elsewhere against
// S, which there equals B. The region layouts are checked here.
func (m *Machine) MatchesMemory(c *Checkpoint, skip uint32, n int) bool {
	regions := m.Mem.Regions()
	if m.lastSnap == nil || len(regions) != len(c.sizes) {
		return false
	}
	for i, r := range regions {
		if len(r.Data) != c.sizes[i] {
			return false
		}
		snap := &m.lastSnap.regions[i]
		cdirty, cpages := c.dirty[i], c.pages[i]
		// The skipped span as offsets into this region; empty when it
		// lies elsewhere.
		var slo, shi uint32
		if n > 0 && r.Contains(skip) {
			slo = skip - r.Base
			shi = slo + uint32(n)
		}
		rank := 0
		for wi, w := range r.dirty {
			var cw uint64
			if cdirty != nil {
				cw = cdirty[wi]
			}
			for u := w | cw; u != 0; {
				b := uint32(bits.TrailingZeros64(u))
				u &^= 1 << b
				lo, hi := r.page(uint32(wi)<<6 | b)
				want := snap.Data[lo:hi]
				if cw&(1<<b) != 0 {
					off := rank * dirtyPageSize
					want = cpages[off : off+int(hi-lo)]
					rank++
				}
				if !equalOutside(r.Data[lo:hi], want, lo, slo, shi) {
					return false
				}
			}
		}
	}
	return true
}

// equalOutside reports whether the page bytes a and b, which start at
// region offset lo, are equal everywhere outside the region offsets
// [slo, shi).
func equalOutside(a, b []byte, lo, slo, shi uint32) bool {
	end := lo + uint32(len(a))
	if shi <= lo || slo >= end {
		return bytes.Equal(a, b)
	}
	s0, s1 := uint32(0), uint32(len(a))
	if slo > lo {
		s0 = slo - lo
	}
	if shi < end {
		s1 = shi - lo
	}
	return bytes.Equal(a[:s0], b[:s0]) && bytes.Equal(a[s1:], b[s1:])
}
