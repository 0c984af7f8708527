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
	return m.MatchesArch(c) && m.MatchesMemory(c)
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
			if got := run.MatchesMemory(cp); got != c.want {
				t.Errorf("MatchesMemory = %v, want %v", got, c.want)
			}
		})
	}
}

// TestCheckpointArchitecturalState checks the register-level half: any
// difference in registers, EIP, flags, steps or TSC, or a different base
// snapshot, is not convergence; a machine without dirty tracking has no
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
	_, other, _ := convergePair(t)
	if converged(other, shadow.Checkpoint()) {
		t.Error("a machine restored from another snapshot converged")
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
