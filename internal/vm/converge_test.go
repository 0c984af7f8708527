package vm

import (
	"testing"

	"faultsec/internal/x86"
)

// convergePair returns two machines restored from one snapshot — a shadow
// and a run — over a data region whose length (100 bytes) leaves its last
// dirty page short.
func convergePair(t *testing.T) (shadow, run *Machine, snap *Snapshot) {
	t.Helper()
	m := buildCounter(t)
	if err := m.Mem.Map(&Region{Name: "odd", Base: 0x4000, Perm: PermRead | PermWrite, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	snap = m.Snapshot()
	return snap.NewMachine(exitKernel{}), snap.NewMachine(exitKernel{}), snap
}

func write8(t *testing.T, m *Machine, addr uint32, v uint32) {
	t.Helper()
	if f := m.Mem.Write8(addr, v); f != nil {
		t.Fatal(f)
	}
}

// converged is the full comparison in the order the engine applies it.
func converged(m *Machine, c *Checkpoint) bool {
	return m.MatchesArch(c) && m.MatchesMemory(c, 0, 0)
}

// TestCheckpointPageComparison checks the dirty-page comparison behind
// golden convergence: only the union of both machines' written pages can
// differ from the common snapshot, and a differing byte in a page that
// only one of them wrote must still be seen.
func TestCheckpointPageComparison(t *testing.T) {
	for _, c := range []struct {
		name        string
		shadow, run func(t *testing.T, m *Machine)
		want        bool
	}{
		{"untouched", nil, nil, true},
		{"same writes", func(t *testing.T, m *Machine) { write8(t, m, 0x3010, 7); write8(t, m, 0x4063, 9) },
			func(t *testing.T, m *Machine) { write8(t, m, 0x3010, 7); write8(t, m, 0x4063, 9) }, true},
		{"only the run dirtied a differing page", nil,
			func(t *testing.T, m *Machine) { write8(t, m, 0x3010, 7) }, false},
		{"only the shadow dirtied a differing page",
			func(t *testing.T, m *Machine) { write8(t, m, 0x3010, 7) }, nil, false},
		{"short last page, only the run", nil,
			func(t *testing.T, m *Machine) { write8(t, m, 0x4063, 1) }, false},
		{"short last page, only the shadow",
			func(t *testing.T, m *Machine) { write8(t, m, 0x4063, 1) }, nil, false},
		{"both dirtied one page with different bytes",
			func(t *testing.T, m *Machine) { write8(t, m, 0x2001, 1) },
			func(t *testing.T, m *Machine) { write8(t, m, 0x2002, 1) }, false},
		{"run rewrote the snapshot's byte", nil,
			func(t *testing.T, m *Machine) { write8(t, m, 0x3010, 7); write8(t, m, 0x3010, 0) }, true},
		{"shadow dirtied pages around an equal one",
			func(t *testing.T, m *Machine) {
				write8(t, m, 0x3000, 1)
				write8(t, m, 0x30c0, 2)
				write8(t, m, 0x3080, 3)
			},
			func(t *testing.T, m *Machine) {
				write8(t, m, 0x3080, 3)
				write8(t, m, 0x30c0, 2)
				write8(t, m, 0x3000, 1)
			}, true},
		{"shadow dirtied pages around a differing one",
			func(t *testing.T, m *Machine) {
				write8(t, m, 0x3000, 1)
				write8(t, m, 0x30c0, 2)
				write8(t, m, 0x3080, 3)
			},
			func(t *testing.T, m *Machine) {
				write8(t, m, 0x3000, 1)
				write8(t, m, 0x30c0, 2)
				write8(t, m, 0x3080, 4)
			}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			shadow, run, _ := convergePair(t)
			if c.shadow != nil {
				c.shadow(t, shadow)
			}
			if c.run != nil {
				c.run(t, run)
			}
			cp := shadow.Checkpoint()
			if !run.MatchesArch(cp) {
				t.Fatal("registers differ; the case must differ only in memory")
			}
			if got := run.MatchesMemory(cp, 0, 0); got != c.want {
				t.Errorf("MatchesMemory = %v, want %v", got, c.want)
			}
		})
	}
}

// TestCheckpointArchitecturalState checks the register-level half: any
// difference in registers, EIP, flags, steps or TSC, or a different region
// layout, is not convergence; a machine without dirty tracking has no
// checkpoint at all.
func TestCheckpointArchitecturalState(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(m *Machine)
	}{
		{"register", func(m *Machine) { m.Regs[x86.EBX] ^= 1 }},
		{"eip", func(m *Machine) { m.EIP++ }},
		{"flags", func(m *Machine) { m.Flags ^= 1 }},
		{"steps", func(m *Machine) { m.Steps++ }},
		{"tsc", func(m *Machine) { m.TSC++ }},
	} {
		shadow, run, _ := convergePair(t)
		cp := shadow.Checkpoint()
		if !converged(run, cp) {
			t.Fatalf("%s: identical machines do not converge", c.name)
		}
		c.mut(run)
		if converged(run, cp) {
			t.Errorf("%s differs, yet the run converged", c.name)
		}
	}

	shadow, _, _ := convergePair(t)
	other := buildCounter(t).Snapshot().NewMachine(exitKernel{})
	if converged(other, shadow.Checkpoint()) {
		t.Error("a machine with another region layout converged")
	}

	_, run, snap := convergePair(t)
	run.NoDirtyTracking = true
	if err := run.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if cp := run.Checkpoint(); cp != nil {
		t.Error("a machine without dirty tracking returned a checkpoint")
	}
	if run.MatchesArch(nil) {
		t.Error("MatchesArch(nil) reported a match")
	}
}

// TestCheckpointAfterRun checks convergence of two machines that execute
// the same program from one snapshot: at every common step they agree,
// and a register flip that the program later overwrites rejoins the
// fault-free machine once the overwrite retires.
func TestCheckpointAfterRun(t *testing.T) {
	shadow, run, _ := convergePair(t)
	// buildCounter starts with mov ecx, 0, which overwrites the flipped
	// ECX.
	run.Regs[x86.ECX] ^= 0x80
	if err := shadow.Step(); err != nil {
		t.Fatal(err)
	}
	cp := shadow.Checkpoint()
	if converged(run, cp) {
		t.Fatal("the run converged before retiring the overwrite")
	}
	if err := run.Step(); err != nil {
		t.Fatal(err)
	}
	if !converged(run, cp) {
		t.Fatal("the run did not rejoin the shadow after the overwrite")
	}
	for i := 0; i < 20; i++ {
		if err := shadow.Step(); err != nil {
			t.Fatal(err)
		}
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
		if !converged(run, shadow.Checkpoint()) {
			t.Fatalf("step %d: converged machines diverged", i)
		}
	}
}

// TestCheckpointPokedSpan checks the masked compare a persistent byte
// fault needs: a differing byte inside the poked span is ignored, one
// outside it in the same 64-byte page is not.
func TestCheckpointPokedSpan(t *testing.T) {
	const jne = 0x1009 // buildCounter's 2-byte jne
	shadow, run, _ := convergePair(t)
	if err := run.Mem.Poke(jne, []byte{0x74, 0xfa}); err != nil {
		t.Fatal(err)
	}
	cp := shadow.Checkpoint()
	if !run.MatchesArch(cp) {
		t.Fatal("registers differ; the case must differ only in memory")
	}
	if run.MatchesMemory(cp, 0, 0) {
		t.Error("a poked byte went unnoticed without a skipped span")
	}
	if !run.MatchesMemory(cp, jne, 2) {
		t.Error("a differing byte inside the poked span was not ignored")
	}
	if err := run.Mem.Poke(jne+2, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	if run.MatchesMemory(cp, jne, 2) {
		t.Error("a differing byte just past the poked span, in the same page, went unnoticed")
	}
}

// TestCheckpointAcrossSnapshots checks convergence against a checkpoint
// whose base is an earlier snapshot of the same session than the run's:
// a page the session wrote before the run's snapshot is in the
// checkpoint's dirty set, and the run, which never wrote it, is compared
// against the checkpoint's copy of it rather than the base.
func TestCheckpointAcrossSnapshots(t *testing.T) {
	for _, c := range []struct {
		name  string
		after func(t *testing.T, shadow *Machine)
		want  bool
	}{
		{"page unchanged since the run's snapshot", nil, true},
		{"session rewrote the page after the run's snapshot",
			func(t *testing.T, m *Machine) { write8(t, m, 0x3010, 8) }, false},
		{"session wrote another page after the run's snapshot",
			func(t *testing.T, m *Machine) { write8(t, m, 0x4000, 1) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			shadow, _, _ := convergePair(t) // restored from the load image
			write8(t, shadow, 0x3010, 7)
			run := shadow.Snapshot().NewMachine(exitKernel{})
			if c.after != nil {
				c.after(t, shadow)
			}
			cp := shadow.Checkpoint()
			if got := converged(run, cp); got != c.want {
				t.Errorf("converged = %v, want %v", got, c.want)
			}
		})
	}
}

// TestCheckpointLiveCompare checks the liveness-relaxed compare: a run may
// differ from the checkpoint in register lanes, EFLAGS bits and bytes that
// are not live there, and in nothing that is, whichever machine dirtied
// the page. A region the live set does not list is compared whole.
func TestCheckpointLiveCompare(t *testing.T) {
	// Live: EBX's low lane, CF, stack bytes 0x3010 and 0x3085, and odd's
	// byte 0x4041 in its short last page. The data region holds no live
	// byte; text is not listed.
	live := &Live{
		Regs:  x86.RegLanes(x86.EBX, 1),
		Flags: x86.FlagCF,
		Mem: []LivePages{
			{Base: 0x2000},
			{Base: 0x3000, Pages: []uint32{0, 2}, Bits: []uint64{1 << 0x10, 1 << 5}},
			{Base: 0x4000, Pages: []uint32{1}, Bits: []uint64{1 << 1}},
		},
	}
	for _, c := range []struct {
		name        string
		shadow, run func(t *testing.T, m *Machine)
		want        bool
	}{
		{"identical", nil, nil, true},
		{"dead lanes", nil, func(t *testing.T, m *Machine) { m.Regs[x86.EBX] ^= 0xff00; m.Regs[x86.ESI] ^= 1 }, true},
		{"dead flags", nil, func(t *testing.T, m *Machine) { m.Flags ^= x86.FlagZF | x86.FlagSF }, true},
		{"dead bytes on pages only the run dirtied", nil, func(t *testing.T, m *Machine) {
			write8(t, m, 0x2005, 1)
			write8(t, m, 0x3011, 1)
			write8(t, m, 0x3084, 1)
			write8(t, m, 0x4040, 1)
		}, true},
		{"dead bytes on pages only the checkpoint dirtied", func(t *testing.T, m *Machine) {
			write8(t, m, 0x2005, 1)
			write8(t, m, 0x30c0, 1)
			write8(t, m, 0x4063, 1)
		}, nil, true},
		{"live lane", nil, func(t *testing.T, m *Machine) { m.Regs[x86.EBX] ^= 1 }, false},
		{"live flag bit", nil, func(t *testing.T, m *Machine) { m.Flags ^= x86.FlagCF }, false},
		{"live byte on a page only the run dirtied", nil, func(t *testing.T, m *Machine) { write8(t, m, 0x3010, 7) }, false},
		{"live byte on a page only the checkpoint dirtied", func(t *testing.T, m *Machine) { write8(t, m, 0x3010, 7) }, nil, false},
		{"live byte past a dead one on a later listed page", nil, func(t *testing.T, m *Machine) {
			write8(t, m, 0x3011, 1)
			write8(t, m, 0x3085, 1)
		}, false},
		{"live byte in a short last page", func(t *testing.T, m *Machine) { write8(t, m, 0x4041, 1) }, nil, false},
		{"byte of an unlisted region", nil, func(t *testing.T, m *Machine) {
			if err := m.Mem.Poke(0x1000, []byte{0x90}); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"eip", nil, func(t *testing.T, m *Machine) { m.EIP++ }, false},
		{"steps", nil, func(t *testing.T, m *Machine) { m.Steps++ }, false},
		{"tsc", nil, func(t *testing.T, m *Machine) { m.TSC++ }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			shadow, run, _ := convergePair(t)
			if c.shadow != nil {
				c.shadow(t, shadow)
			}
			if c.run != nil {
				c.run(t, run)
			}
			if got := run.MatchesLive(shadow.Checkpoint(), live); got != c.want {
				t.Errorf("MatchesLive = %v, want %v", got, c.want)
			}
		})
	}
}
