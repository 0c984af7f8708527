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
// one at every syscall entry of a fault-free continuation and asks each
// injected run restored from the same snapshot whether it has rejoined it.
//
// A Checkpoint is immutable after capture and safe for concurrent use.
type Checkpoint struct {
	regs  [x86.NumRegs]uint32
	eip   uint32
	flags uint32
	steps uint64
	tsc   uint64

	// base is the snapshot both machines diverge from.
	base *Snapshot
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
		base:  m.lastSnap,
		dirty: make([][]uint64, len(regions)),
		pages: make([][]byte, len(regions)),
	}
	for i, r := range regions {
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
// count and TSC equal the checkpoint's, and both diverge from the same
// snapshot. It is the cheap first half of a convergence test.
func (m *Machine) MatchesArch(c *Checkpoint) bool {
	return c != nil && m.lastSnap == c.base && m.Steps == c.steps &&
		m.EIP == c.eip && m.Flags == c.flags && m.TSC == c.tsc && m.Regs == c.regs
}

// MatchesMemory reports whether the machine's address space equals the
// checkpoint's byte for byte. Only the union of the two dirty sets can
// differ — every other page still holds the common snapshot's bytes — so
// only those pages are compared: the machine's against the checkpoint's
// copy where the checkpoint wrote the page, against the snapshot where it
// did not. The caller has established MatchesArch (same snapshot, hence
// the same region layout).
func (m *Machine) MatchesMemory(c *Checkpoint) bool {
	for i, r := range m.Mem.Regions() {
		base := c.base.regions[i].Data
		cdirty, cpages := c.dirty[i], c.pages[i]
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
				want := base[lo:hi]
				if cw&(1<<b) != 0 {
					off := rank * dirtyPageSize
					want = cpages[off : off+int(hi-lo)]
					rank++
				}
				if !bytes.Equal(r.Data[lo:hi], want) {
					return false
				}
			}
		}
	}
	return true
}
