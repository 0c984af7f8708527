package vm

import (
	"bytes"
	"fmt"

	"faultsec/internal/x86"
)

// Snapshot is a complete architectural checkpoint of a Machine: registers,
// EIP, EFLAGS, instruction counters, fuel, armed breakpoints, and a deep
// copy of every mapped memory region. It is the campaign engine's
// fast-forward primitive: the golden prefix from _start to the injection
// breakpoint runs once per target instruction, and every bit-flip
// experiment on that target restores the snapshot instead of re-executing
// the prefix.
//
// A Snapshot is immutable after capture and safe for concurrent Restore
// from multiple goroutines.
type Snapshot struct {
	regs  [x86.NumRegs]uint32
	eip   uint32
	flags uint32
	steps uint64
	fuel  uint64
	tsc   uint64

	// regions are deep copies of the machine's address space, in address
	// order (same order as Memory.Regions).
	regions []Region

	// breakpoints are the armed breakpoints at capture time (typically the
	// injection breakpoint itself, since capture happens on BreakpointHit).
	breakpoints []uint32

	// cfValid is shared by reference: the watchdog signature set is
	// read-only for the lifetime of a campaign.
	cfValid map[uint32]struct{}

	// tuning is the capturing machine's ablation knobs, inherited by
	// every machine NewMachine creates from the snapshot.
	tuning Tuning
}

// Snapshot captures the machine's architectural state. The machine must be
// stopped (between Run/Step calls).
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		regs:    m.Regs,
		eip:     m.EIP,
		flags:   m.Flags,
		steps:   m.Steps,
		fuel:    m.Fuel,
		tsc:     m.TSC,
		cfValid: m.CFValid,
		tuning:  m.Tuning,
	}
	s.regions = make([]Region, 0, len(m.Mem.Regions()))
	for _, r := range m.Mem.Regions() {
		s.regions = append(s.regions, Region{
			Name: r.Name,
			Base: r.Base,
			Perm: r.Perm,
			Data: append([]byte(nil), r.Data...),
		})
	}
	s.breakpoints = make([]uint32, 0, len(m.breakpoints))
	for addr := range m.breakpoints {
		s.breakpoints = append(s.breakpoints, addr)
	}
	return s
}

// Steps returns the retired-instruction count at capture time (the
// injector's activation step count).
func (s *Snapshot) Steps() uint64 { return s.steps }

// EIP returns the program counter at capture time.
func (s *Snapshot) EIP() uint32 { return s.eip }

// NewMachine instantiates a fresh machine from the snapshot with its own
// copy of the address space, the given syscall handler, and the capturing
// machine's Tuning. The knobs are set before the first Restore, so a
// NoDirtyTracking snapshot yields a machine that never arms a bitmap.
func (s *Snapshot) NewMachine(sys SyscallHandler) *Machine {
	m := &Machine{Mem: NewMemory(), Sys: sys, Tuning: s.tuning}
	// Restore against an empty address space maps fresh regions.
	if err := m.Restore(s); err != nil {
		// Unreachable: an empty memory cannot mismatch the snapshot.
		panic(fmt.Sprintf("vm: restore into fresh machine: %v", err))
	}
	return m
}

// Restore rewinds the machine to the snapshot. When the machine's address
// space has the same region layout as the snapshot (the common case: the
// machine was loaded from the same image, or previously restored from this
// snapshot), region bytes are copied in place and no allocation happens —
// this is the engine's hot path, run once per bit-flip experiment. A
// machine with an empty address space gets fresh region mappings; that
// path is all-or-nothing: on error the address space is left empty, never
// partially populated. Any other layout is an error.
//
// With dirty tracking on (the default), a re-restore from the very
// snapshot the machine last restored from copies back only the pages
// written since — by guest stores, string ops, kernel writes, or injector
// pokes, all of which maintain the per-region dirty bitmap — making
// restore cost proportional to what the run actually changed. Restoring
// from any other snapshot, or with NoDirtyTracking set, falls back to the
// full-image copy.
//
// The machine keeps its decode cache: before rewriting a page, Restore
// voids the decodes over the bytes in it that differ from the snapshot,
// so the cache keeps describing the bytes the machine holds. A fresh
// mapping starts with no cache.
//
// The syscall handler and the machine's own Tuning are left untouched:
// callers pair each Restore with the kernel restored for the same run.
func (m *Machine) Restore(s *Snapshot) error {
	existing := m.Mem.Regions()
	switch {
	case len(existing) == 0:
		// Stage the fresh mappings in a scratch address space and adopt
		// them only once every region mapped cleanly.
		staged := NewMemory()
		for i := range s.regions {
			src := &s.regions[i]
			if err := staged.Map(&Region{
				Name: src.Name,
				Base: src.Base,
				Perm: src.Perm,
				Data: append([]byte(nil), src.Data...),
			}); err != nil {
				return err
			}
		}
		m.Mem.regions = staged.regions
		m.Mem.hot = nil
		m.Mem.icache = nil
		m.FullRestores++
		if !m.NoDirtyTracking {
			for _, r := range m.Mem.regions {
				r.armDirty()
			}
		}
	case len(existing) == len(s.regions):
		// Validate the whole layout before touching any bytes, so a
		// mismatch never leaves a half-restored address space.
		for i, r := range existing {
			src := &s.regions[i]
			if r.Name != src.Name || r.Base != src.Base || len(r.Data) != len(src.Data) {
				return fmt.Errorf("vm: restore: region %d is %s@%#x+%d, snapshot has %s@%#x+%d",
					i, r.Name, r.Base, len(r.Data), src.Name, src.Base, len(src.Data))
			}
		}
		if !m.NoDirtyTracking && m.lastSnap == s {
			// O(dirty) path: rewinding to the snapshot the dirty bitmaps
			// diverge from, so only the written pages need copying.
			for i, r := range existing {
				r.Perm = s.regions[i].Perm
				m.Mem.icacheRevert(r, s.regions[i].Data, true)
				m.DirtyBytesCopied += uint64(r.copyDirtyFrom(s.regions[i].Data))
			}
			if m.ParanoidRestore {
				for i, r := range existing {
					if !bytes.Equal(r.Data, s.regions[i].Data) {
						return fmt.Errorf("vm: paranoid restore: region %q diverges from snapshot after dirty-page restore (untracked write)", r.Name)
					}
				}
			}
		} else {
			m.FullRestores++
			for i, r := range existing {
				src := &s.regions[i]
				r.Perm = src.Perm
				m.Mem.icacheRevert(r, src.Data, false)
				copy(r.Data, src.Data)
				if m.NoDirtyTracking {
					r.dirty = nil
				} else {
					r.armDirty()
				}
			}
		}
	default:
		return fmt.Errorf("vm: restore: machine has %d regions, snapshot has %d",
			len(existing), len(s.regions))
	}
	if m.NoDirtyTracking {
		m.lastSnap = nil
	} else {
		m.lastSnap = s
	}

	m.Regs = s.regs
	m.EIP = s.eip
	m.Flags = s.flags
	m.Steps = s.steps
	m.Fuel = s.fuel
	m.TSC = s.tsc
	m.CFValid = s.cfValid
	m.breakpoints = nil
	for _, addr := range s.breakpoints {
		m.SetBreakpoint(addr)
	}
	return nil
}
