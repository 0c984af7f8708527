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
// one at instruction boundaries of a fault-free replay whose dirty
// tracking is armed at load, the one before every int 0x80 among them,
// and asks each injected run stopped there whether it has rejoined it. A
// Checkpoint keeps no reference to its snapshot: the runs it is compared
// against hold a later snapshot of the same session, which equals it
// outside the checkpoint's written pages (see Matches).
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

// Live is the strongly live locations of a session at one checkpoint:
// the register byte lanes, the EFLAGS bits and, per writable region, the
// live bytes. Memory is kept sparsely: only the 64-byte pages that hold a
// live byte are listed. A region Mem does not list is compared whole.
type Live struct {
	Regs  x86.Lanes
	Flags uint32
	Mem   []LivePages
}

// LivePages is the live bytes of the region at Base: bit i of Bits[j] is
// byte i of 64-byte page Pages[j]. Pages ascend; a page not listed holds
// no live byte.
type LivePages struct {
	Base  uint32
	Pages []uint32
	Bits  []uint64
}

// Matches is the convergence test: whether the machine has rejoined the
// session at checkpoint c. The step count, EIP and TSC must equal c's,
// and so must every register lane, EFLAGS bit and memory byte that live
// holds, except the n bytes at skip (n = 0 skips nothing): the
// injector's poked span, which a persistent fault leaves different for
// good. A nil live holds every location, so the compare is exact. The
// machine must track its writes: without dirty tracking its memory
// cannot be compared.
//
// The checkpoint's machine was restored from a snapshot B; this machine
// was restored from a snapshot S. The caller guarantees that B and S are
// states of one session and that S is no later than the checkpoint: every
// page the session wrote between B and S is then in the checkpoint's
// dirty set, so outside that set S still holds B's bytes. Only the union
// of the two dirty sets can therefore differ, and only it is compared:
// against the checkpoint's copy where it has one, and elsewhere against
// S, which there equals B. The region layouts are checked here.
func (m *Machine) Matches(c *Checkpoint, live *Live, skip uint32, n int) bool {
	regions := m.Mem.Regions()
	if c == nil || m.lastSnap == nil || m.Steps != c.steps || m.EIP != c.eip || m.TSC != c.tsc ||
		len(regions) != len(c.sizes) {
		return false
	}
	lanes, flags := x86.AllLanes, ^uint32(0)
	if live != nil {
		lanes, flags = live.Regs, live.Flags
	}
	if (m.Flags^c.flags)&flags != 0 {
		return false
	}
	for r, v := range m.Regs {
		if d := v ^ c.regs[r]; d != 0 && x86.MaskLanes(uint8(r), d)&lanes != 0 {
			return false
		}
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
		var lp *LivePages
		if live != nil {
			for j := range live.Mem {
				if live.Mem[j].Base == r.Base {
					lp = &live.Mem[j]
				}
			}
		}
		rank, lj := 0, 0
		for wi, w := range r.dirty {
			var cw uint64
			if cdirty != nil {
				cw = cdirty[wi]
			}
			for u := w | cw; u != 0; {
				b := uint32(bits.TrailingZeros64(u))
				u &^= 1 << b
				p := uint32(wi)<<6 | b
				lo, hi := r.page(p)
				want := snap.Data[lo:hi]
				if cw&(1<<b) != 0 {
					off := rank * dirtyPageSize
					want = cpages[off : off+int(hi-lo)]
					rank++
				}
				got := r.Data[lo:hi]
				if bytes.Equal(got, want) {
					continue
				}
				// dead has bit k set when byte k of the page is not live
				// and may differ.
				var dead uint64
				if lp != nil {
					for lj < len(lp.Pages) && lp.Pages[lj] < p {
						lj++
					}
					dead = ^uint64(0)
					if lj < len(lp.Pages) && lp.Pages[lj] == p {
						dead = ^lp.Bits[lj]
					}
				}
				for k := range got {
					if got[k] != want[k] && dead>>k&1 == 0 && (lo+uint32(k) < slo || lo+uint32(k) >= shi) {
						return false
					}
				}
			}
		}
	}
	return true
}
