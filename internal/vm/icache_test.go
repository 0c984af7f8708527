package vm_test

import (
	"errors"
	"testing"

	"faultsec/internal/vm"
	"faultsec/internal/x86"
)

// icacheMachine builds a machine whose text is `inc eax; jmp $-1` — the
// same instruction retires every other step, so the decode cache is hot
// after one loop iteration.
func icacheMachine(t *testing.T, textPerm vm.Perm) *vm.Machine {
	t.Helper()
	code := []byte{
		0x40,       // 0x1000: inc eax
		0xEB, 0xFD, // 0x1001: jmp 0x1000
	}
	mem := vm.NewMemory()
	text := make([]byte, 64)
	copy(text, code)
	if err := mem.Map(&vm.Region{Name: "text", Base: 0x1000, Perm: textPerm, Data: text}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Map(&vm.Region{Name: "stack", Base: 0x8000, Perm: vm.PermRead | vm.PermWrite, Data: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	m := vm.New(mem, exitSys{})
	m.EIP = 0x1000
	m.Regs[x86.ESP] = 0x9000 - 16
	return m
}

func stepN(t *testing.T, m *vm.Machine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestICachePokeInvalidation is the injector's exact sequence: warm the
// cache by executing the target, Poke corrupted bytes over it, and check
// the machine executes the corrupted encoding rather than the stale
// decode (inc eax 0x40 → inc ecx 0x41 is a single-bit flip).
func TestICachePokeInvalidation(t *testing.T) {
	m := icacheMachine(t, vm.PermRead|vm.PermExec)
	stepN(t, m, 4) // two loop iterations: every address cached
	if m.ICacheHits == 0 {
		t.Fatalf("cache never hit while warming (hits=%d misses=%d)", m.ICacheHits, m.ICacheMisses)
	}
	if m.Regs[x86.EAX] != 2 || m.Regs[x86.ECX] != 0 {
		t.Fatalf("warm-up state eax=%d ecx=%d, want 2,0", m.Regs[x86.EAX], m.Regs[x86.ECX])
	}

	if err := m.Mem.Poke(0x1000, []byte{0x41}); err != nil { // inc eax -> inc ecx
		t.Fatal(err)
	}
	stepN(t, m, 2) // one more iteration from the poked text
	if m.Regs[x86.EAX] != 2 || m.Regs[x86.ECX] != 1 {
		t.Errorf("post-poke state eax=%d ecx=%d, want 2,1 (stale decode executed?)",
			m.Regs[x86.EAX], m.Regs[x86.ECX])
	}
}

// TestICacheWriteInvalidation covers the self-modifying-code channel: a
// successful program-level store into a PermExec region must invalidate
// the covering cache lines just like a debugger poke.
func TestICacheWriteInvalidation(t *testing.T) {
	m := icacheMachine(t, vm.PermRead|vm.PermWrite|vm.PermExec)
	stepN(t, m, 4)
	if f := m.Mem.Write8(0x1000, 0x41); f != nil {
		t.Fatalf("write to rwx text faulted: %v", f)
	}
	stepN(t, m, 2)
	if m.Regs[x86.EAX] != 2 || m.Regs[x86.ECX] != 1 {
		t.Errorf("post-write state eax=%d ecx=%d, want 2,1", m.Regs[x86.EAX], m.Regs[x86.ECX])
	}
}

// TestICacheSnapshotRestorePoke mirrors the campaign engine's hot path
// (engine.go runGroup): capture a snapshot at a breakpoint with a warm
// cache, then repeatedly restore-poke-run the same machine with different
// corrupted bytes. Each run must execute its own corruption — neither a
// decode of the pristine bytes nor the previous run's patch may leak —
// while the machine's decodes of untouched code serve the later runs.
func TestICacheSnapshotRestorePoke(t *testing.T) {
	m := icacheMachine(t, vm.PermRead|vm.PermExec)
	m.SetBreakpoint(0x1001) // the jmp: inc eax has retired once
	runErr := m.Run()
	var bp *vm.BreakpointHit
	if !errors.As(runErr, &bp) {
		t.Fatalf("run ended %v, want breakpoint", runErr)
	}
	snap := m.Snapshot()

	// Each case pokes a different single-byte instruction over the inc at
	// 0x1000 and retires two instructions from the restored state (the
	// breakpoint-armed jmp first, then the poked instruction).
	cases := []struct {
		poke     byte
		eax, ecx uint32
	}{
		{0x41, 1, 1}, // inc ecx
		{0x48, 0, 0}, // dec eax
		{0x40, 2, 0}, // pristine inc eax again
	}
	wm := snap.NewMachine(exitSys{})
	for _, c := range cases {
		if err := wm.Restore(snap); err != nil {
			t.Fatal(err)
		}
		wm.ClearBreakpoints()
		if err := wm.Mem.Poke(0x1000, []byte{c.poke}); err != nil {
			t.Fatal(err)
		}
		stepN(t, wm, 2)
		if wm.Regs[x86.EAX] != c.eax || wm.Regs[x86.ECX] != c.ecx {
			t.Errorf("poke %#02x: eax=%d ecx=%d, want %d,%d",
				c.poke, wm.Regs[x86.EAX], wm.Regs[x86.ECX], c.eax, c.ecx)
		}
	}
	if wm.ICacheHits == 0 {
		t.Errorf("restored machine never hit its own cache (hits=%d misses=%d)",
			wm.ICacheHits, wm.ICacheMisses)
	}
}

// TestICacheDisabled pins the ablation knob: with NoICache the machine
// still executes correctly and records no cache traffic.
func TestICacheDisabled(t *testing.T) {
	m := icacheMachine(t, vm.PermRead|vm.PermExec)
	m.NoICache = true
	stepN(t, m, 6)
	if m.Regs[x86.EAX] != 3 {
		t.Errorf("eax=%d, want 3", m.Regs[x86.EAX])
	}
	if m.ICacheHits != 0 || m.ICacheMisses != 0 {
		t.Errorf("NoICache machine recorded cache traffic: hits=%d misses=%d",
			m.ICacheHits, m.ICacheMisses)
	}
}

// TestCStringSemantics pins the fast CString against the fault semantics
// of the old per-byte loop: NUL-terminated reads, the maxLen cap, a fault
// at the first unreadable byte past the region end, and scanning across
// contiguously mapped regions.
func TestCStringSemantics(t *testing.T) {
	mem := vm.NewMemory()
	a := []byte("hello\x00xx")
	if err := mem.Map(&vm.Region{Name: "a", Base: 0x1000, Perm: vm.PermRead, Data: a}); err != nil {
		t.Fatal(err)
	}
	// Contiguous second region: "wor" continues "ld\x00" at 0x1008.
	if err := mem.Map(&vm.Region{Name: "b", Base: 0x1008, Perm: vm.PermRead, Data: []byte("ld\x00")}); err != nil {
		t.Fatal(err)
	}

	if s, f := mem.CString(0x1000, 64); f != nil || s != "hello" {
		t.Errorf("CString(hello) = %q, %v", s, f)
	}
	if s, f := mem.CString(0x1000, 3); f != nil || s != "hel" {
		t.Errorf("maxLen-capped CString = %q, %v", s, f)
	}
	// "xxld\x00" spans the a/b region boundary.
	if s, f := mem.CString(0x1006, 64); f != nil || s != "xxld" {
		t.Errorf("region-spanning CString = %q, %v", s, f)
	}
	// No NUL before the mapped bytes run out: fault at the first
	// unreadable address (one past the end of the region).
	if err := mem.Map(&vm.Region{Name: "c", Base: 0x2000, Perm: vm.PermRead, Data: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if _, f := mem.CString(0x2000, 64); f == nil || f.Addr != 0x2003 {
		t.Errorf("unterminated CString fault = %+v, want fault at 0x2003", f)
	}
	// Unreadable start faults at addr.
	if _, f := mem.CString(0x9999_0000, 8); f == nil || f.Addr != 0x9999_0000 {
		t.Errorf("unmapped CString fault = %+v, want fault at start", f)
	}
}
