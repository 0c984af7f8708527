package vm

import (
	"errors"
	"fmt"
	"testing"

	"faultsec/internal/x86"
)

// buildCounter assembles a tiny hand-encoded program:
//
//	mov ecx, 0          ; b9 00 00 00 00
//	loop: inc ecx       ; 41
//	cmp ecx, 10         ; 83 f9 0a
//	jne loop            ; 75 fa
//	mov [0x2000], ecx   ; 89 0d 00 20 00 00
//	int 0x80 exit       ; b8 01 00 00 00  (eax=1) / 31 db (ebx: xor) / cd 80
func buildCounter(t *testing.T) *Machine {
	t.Helper()
	code := []byte{
		0xb9, 0x00, 0x00, 0x00, 0x00,
		0x41,
		0x83, 0xf9, 0x0a,
		0x75, 0xfa,
		0x89, 0x0d, 0x00, 0x20, 0x00, 0x00,
		0xb8, 0x01, 0x00, 0x00, 0x00,
		0x31, 0xdb,
		0xcd, 0x80,
	}
	return codeMachine(t, code)
}

// codeMachine maps a copy of code as buildCounter's r-x text at 0x1000,
// with its 64-byte data region at 0x2000 and 256-byte stack at 0x3000,
// and starts it at 0x1000.
func codeMachine(t testing.TB, code []byte) *Machine {
	t.Helper()
	mem := NewMemory()
	if err := mem.Map(&Region{Name: "text", Base: 0x1000, Perm: PermRead | PermExec, Data: append([]byte(nil), code...)}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Map(&Region{Name: "data", Base: 0x2000, Perm: PermRead | PermWrite, Data: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Map(&Region{Name: "stack", Base: 0x3000, Perm: PermRead | PermWrite, Data: make([]byte, 256)}); err != nil {
		t.Fatal(err)
	}
	m := New(mem, exitKernel{})
	m.EIP = 0x1000
	m.Regs[x86.ESP] = 0x3000 + 256
	return m
}

type exitKernel struct{}

func (exitKernel) Syscall(m *Machine) error {
	return &ExitStatus{Code: int(int32(m.Regs[x86.EBX]))}
}

func runToExit(t *testing.T, m *Machine) *ExitStatus {
	t.Helper()
	err := m.Run()
	var exit *ExitStatus
	if !errors.As(err, &exit) {
		t.Fatalf("run ended with %v, want exit", err)
	}
	return exit
}

// TestSnapshotRestoreResumesIdentically stops a run at a breakpoint,
// snapshots, lets the original run to completion, then replays the suffix
// from the snapshot twice and checks every observable matches.
func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	m := buildCounter(t)
	bp := uint32(0x100b) // the mov [0x2000], ecx after the loop
	m.SetBreakpoint(bp)
	var hit *BreakpointHit
	if err := m.Run(); !errors.As(err, &hit) {
		t.Fatalf("run ended with %v, want breakpoint", err)
	}
	snap := m.Snapshot()
	if snap.EIP() != bp {
		t.Fatalf("snapshot EIP=%#x, want %#x", snap.EIP(), bp)
	}
	m.ClearBreakpoint(bp)
	runToExit(t, m)
	wantSteps := m.Steps
	data := m.Mem.FindByName("data")
	wantCounter := uint32(data.Data[0]) | uint32(data.Data[1])<<8

	for i := 0; i < 2; i++ {
		m2 := snap.NewMachine(exitKernel{})
		if m2.Steps != snap.Steps() {
			t.Fatalf("restored Steps=%d, want %d", m2.Steps, snap.Steps())
		}
		m2.ClearBreakpoint(bp)
		runToExit(t, m2)
		if m2.Steps != wantSteps {
			t.Errorf("replay %d: Steps=%d, want %d", i, m2.Steps, wantSteps)
		}
		d2 := m2.Mem.FindByName("data")
		got := uint32(d2.Data[0]) | uint32(d2.Data[1])<<8
		if got != wantCounter || got != 10 {
			t.Errorf("replay %d: counter=%d, want %d", i, got, wantCounter)
		}
	}
}

// TestSnapshotIsolation checks that machines restored from one snapshot do
// not share mutable memory: a poke in one replay must not leak into the
// next.
func TestSnapshotIsolation(t *testing.T) {
	m := buildCounter(t)
	m.SetBreakpoint(0x100b)
	var hit *BreakpointHit
	if err := m.Run(); !errors.As(err, &hit) {
		t.Fatalf("run ended with %v, want breakpoint", err)
	}
	snap := m.Snapshot()

	m2 := snap.NewMachine(exitKernel{})
	m2.ClearBreakpoint(0x100b)
	// Corrupt the store instruction into a self-fault (undefined byte).
	if err := m2.Mem.Poke(0x100b, []byte{0xF1}); err != nil {
		t.Fatal(err)
	}
	_ = m2.Run() // outcome irrelevant; only isolation matters

	m3 := snap.NewMachine(exitKernel{})
	m3.ClearBreakpoint(0x100b)
	b, err := m3.Mem.Peek(0x100b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x89 {
		t.Fatalf("poke leaked across restores: text byte %#x, want 0x89", b[0])
	}
	runToExit(t, m3)
}

// TestRestoreInPlace checks the allocation-free path: restoring into a
// machine that already has the snapshot's region layout rewinds it.
func TestRestoreInPlace(t *testing.T) {
	m := buildCounter(t)
	m.SetBreakpoint(0x100b)
	var hit *BreakpointHit
	if err := m.Run(); !errors.As(err, &hit) {
		t.Fatalf("run ended with %v, want breakpoint", err)
	}
	snap := m.Snapshot()

	worker := snap.NewMachine(exitKernel{})
	for i := 0; i < 3; i++ {
		if err := worker.Restore(snap); err != nil {
			t.Fatal(err)
		}
		worker.ClearBreakpoint(0x100b)
		if err := worker.Mem.Poke(0x100b, []byte{0xF1}); err != nil {
			t.Fatal(err)
		}
		var fault *Fault
		if err := worker.Run(); !errors.As(err, &fault) {
			t.Fatalf("iteration %d: corrupted run ended with %v, want fault", i, err)
		}
	}
	// A final clean restore must still complete normally.
	if err := worker.Restore(snap); err != nil {
		t.Fatal(err)
	}
	worker.ClearBreakpoint(0x100b)
	runToExit(t, worker)
}

// TestRestoreLayoutMismatch checks that restoring into a foreign address
// space is refused rather than silently corrupting state.
func TestRestoreLayoutMismatch(t *testing.T) {
	m := buildCounter(t)
	snap := m.Snapshot()

	other := New(NewMemory(), exitKernel{})
	if err := other.Mem.Map(&Region{Name: "blob", Base: 0x9000, Perm: PermRead, Data: make([]byte, 16)}); err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore into mismatched layout succeeded, want error")
	}
}

// restorePokeCode is buildCounter's loop followed by a straight-line tail
// of 36 bytes, so the trace fused at 0x100b reaches more than MaxInstLen
// bytes past its head; 47 bytes in all:
//
//	mov ecx, 0          ; b9 00 00 00 00
//	loop: inc ecx       ; 41
//	cmp ecx, 10         ; 83 f9 0a
//	jne loop            ; 75 fa
//	mov ebx, 1..4       ; bb 0n 00 00 00, four times
//	mov [0x2000], ecx   ; 89 0c 25 00 20 00 00 (SIB form)
//	int 0x80 exit       ; b8 01 00 00 00  (eax=1) / 31 db (ebx: xor) / cd 80
var restorePokeCode = []byte{
	0xb9, 0x00, 0x00, 0x00, 0x00,
	0x41,
	0x83, 0xf9, 0x0a,
	0x75, 0xfa,
	0xbb, 0x01, 0x00, 0x00, 0x00,
	0xbb, 0x02, 0x00, 0x00, 0x00,
	0xbb, 0x03, 0x00, 0x00, 0x00,
	0xbb, 0x04, 0x00, 0x00, 0x00,
	0x89, 0x0c, 0x25, 0x00, 0x20, 0x00, 0x00,
	0xb8, 0x01, 0x00, 0x00, 0x00,
	0x31, 0xdb,
	0xcd, 0x80,
}

// TestRestorePokeDifferential drives one reused machine through the
// engine's restore-poke-run cycle over every single-bit flip of
// restorePokeCode, alternating between a snapshot at the start (s0) and
// one at the loop head (s1), and between flipped and pristine runs, so
// restores take both the O(dirty) and the full-copy path over poked and
// fused code. Each run must end exactly like a NoICache machine restored
// from the same snapshot with the same flip: the reused machine's decodes
// and traces must describe the bytes it holds after every restore.
func TestRestorePokeDifferential(t *testing.T) {
	m := codeMachine(t, restorePokeCode)
	s0 := m.Snapshot()
	m.SetBreakpoint(0x1005)
	var hit *BreakpointHit
	if err := m.Run(); !errors.As(err, &hit) {
		t.Fatalf("run ended with %v, want breakpoint", err)
	}
	s1 := m.Snapshot()

	// run restores m from s, pokes flip (a bit index into the program;
	// -1 pokes nothing) and runs to the end at fusedFuel.
	run := func(m *Machine, s *Snapshot, flip int) error {
		if err := m.Restore(s); err != nil {
			t.Fatal(err)
		}
		m.ClearBreakpoints()
		m.Fuel = fusedFuel
		if flip >= 0 {
			b := restorePokeCode[flip/8] ^ 1<<(flip%8)
			if err := m.Mem.Poke(0x1000+uint32(flip/8), []byte{b}); err != nil {
				t.Fatal(err)
			}
		}
		return m.Run()
	}
	cycle := []struct {
		s    *Snapshot
		flip bool
	}{{s0, true}, {s0, false}, {s0, true}, {s1, false}, {s1, true}, {s1, false}, {s1, true}, {s0, false}}
	wm := s0.NewMachine(exitKernel{})
	n := 0
	for flip := 0; flip < 8*len(restorePokeCode); flip++ {
		for _, c := range cycle {
			f := -1
			if c.flip {
				f = flip
			}
			err := run(wm, c.s, f)
			ref := c.s.NewMachine(exitKernel{})
			ref.NoICache = true
			if msg := endDiff(wm, ref, err, run(ref, c.s, f)); msg != "" {
				t.Fatalf("case %d (snapshot at %#x, %s): %s", n, c.s.EIP(), flipName(f), msg)
			}
			n++
		}
	}
	if wm.ICacheHits == 0 || wm.TraceHits == 0 {
		t.Fatalf("reused machine never hit its cache: icache hits %d, trace hits %d", wm.ICacheHits, wm.TraceHits)
	}
	t.Logf("%d cases; icache hits %d, trace hits %d", n, wm.ICacheHits, wm.TraceHits)
}

// flipName describes a restorePokeCode bit flip (-1: none).
func flipName(flip int) string {
	if flip < 0 {
		return "no flip"
	}
	return fmt.Sprintf("flip bit %d of %#x", flip%8, 0x1000+flip/8)
}

// BenchmarkRestorePokeRun times the campaign engine's per-run cycle on one
// reused machine: Restore to the loop-head snapshot of restorePokeCode,
// Poke one byte of the tail (an immediate, so the run still exits), and
// Run to the exit through fused traces. One op is one run.
func BenchmarkRestorePokeRun(b *testing.B) {
	m := codeMachine(b, restorePokeCode)
	m.SetBreakpoint(0x1005)
	var hit *BreakpointHit
	if err := m.Run(); !errors.As(err, &hit) {
		b.Fatalf("run ended with %v, want breakpoint", err)
	}
	s1 := m.Snapshot()
	wm := s1.NewMachine(exitKernel{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wm.Restore(s1); err != nil {
			b.Fatal(err)
		}
		wm.ClearBreakpoints()
		if err := wm.Mem.Poke(0x1011, []byte{0x07}); err != nil { // mov ebx, 2 -> mov ebx, 7
			b.Fatal(err)
		}
		var exit *ExitStatus
		if err := wm.Run(); !errors.As(err, &exit) {
			b.Fatalf("run ended with %v, want exit", err)
		}
	}
	b.ReportMetric(float64(wm.TraceHits)/float64(b.N), "traceHits/op")
}
