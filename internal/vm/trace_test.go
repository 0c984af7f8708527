package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"faultsec/internal/x86"
)

// runCounter runs a fresh counter machine to exit with the given trace
// knob and returns it for end-state comparison.
func runCounter(t *testing.T, noTraces bool) *Machine {
	t.Helper()
	m := buildCounter(t)
	m.NoTraces = noTraces
	runToExit(t, m)
	return m
}

// TestTraceRunDifferential runs the counter program to completion with
// and without superblock fusion and requires identical end state. Traces
// batch Steps/TSC/EIP updates, so any bookkeeping skew shows up here.
func TestTraceRunDifferential(t *testing.T) {
	fused := runCounter(t, false)
	stepped := runCounter(t, true)

	if fused.TraceHits == 0 {
		t.Fatal("fused run executed no traces")
	}
	if stepped.TraceHits != 0 {
		t.Fatalf("NoTraces run executed %d traces", stepped.TraceHits)
	}
	if fused.Regs != stepped.Regs {
		t.Errorf("Regs diverge: fused %v, stepped %v", fused.Regs, stepped.Regs)
	}
	if fused.EIP != stepped.EIP || fused.Flags != stepped.Flags {
		t.Errorf("EIP/Flags diverge: fused %#x/%#x, stepped %#x/%#x",
			fused.EIP, fused.Flags, stepped.EIP, stepped.Flags)
	}
	if fused.Steps != stepped.Steps || fused.TSC != stepped.TSC {
		t.Errorf("Steps/TSC diverge: fused %d/%d, stepped %d/%d",
			fused.Steps, fused.TSC, stepped.Steps, stepped.TSC)
	}
	for _, r := range fused.Mem.Regions() {
		sr := stepped.Mem.FindByName(r.Name)
		if !bytes.Equal(r.Data, sr.Data) {
			t.Errorf("region %q diverges between fused and stepped runs", r.Name)
		}
	}
}

// fusedFuel is the retirement budget of fuseDiff's runs: small enough
// that a looping stream ends in OutOfFuel quickly.
const fusedFuel = 300

// fuseDiff runs code from regs through Run on a machine with traces and on
// a NoTraces one, both at fusedFuel, and describes the first difference
// (endDiff; the fused run is got). A non-zero alarm arms the fused run's
// step alarm, which must stop it at a boundary at or past alarm, from
// where Run continues it. It also returns the fused run's trace hits.
func fuseDiff(t *testing.T, code []byte, regs [x86.NumRegs]uint32, alarm uint64) (string, uint64) {
	t.Helper()
	mf := diffMachine(t, code, false, regs)
	mf.Fuel = fusedFuel
	mf.SetAlarm(alarm)
	ef := mf.Run()
	if hit, ok := ef.(*AlarmHit); ok {
		if hit.Steps < alarm || mf.Steps != hit.Steps {
			return fmt.Sprintf("alarm at %d stopped at step %d (reported %d)", alarm, mf.Steps, hit.Steps), 0
		}
		ef = mf.Run()
	}
	ms := diffMachine(t, code, false, regs)
	ms.NoTraces = true
	ms.Fuel = fusedFuel
	es := ms.Run()
	return endDiff(mf, ms, ef, es), mf.TraceHits
}

// endDiff describes the first difference between two finished runs in end
// error, registers, EIP, flags, Steps, TSC or memory ("" when they agree);
// got is the run under test and want its reference.
func endDiff(got, want *Machine, egot, ewant error) string {
	switch {
	case !reflect.DeepEqual(egot, ewant):
		return fmt.Sprintf("end error: got %v, want %v", egot, ewant)
	case got.Regs != want.Regs || got.EIP != want.EIP || got.Flags != want.Flags ||
		got.Steps != want.Steps || got.TSC != want.TSC:
		return fmt.Sprintf("end state (err %v):\ngot:  regs=%v eip=%#x flags=%#x steps=%d tsc=%d\nwant: regs=%v eip=%#x flags=%#x steps=%d tsc=%d",
			egot, got.Regs, got.EIP, got.Flags, got.Steps, got.TSC,
			want.Regs, want.EIP, want.Flags, want.Steps, want.TSC)
	case !reflect.DeepEqual(memImage(got), memImage(want)):
		return "memory images diverge"
	}
	return ""
}

// TestTraceFusionDifferential runs TestUopDifferentialRandom's byte
// streams and the Figure corpus through Run with and without superblock
// fusion and requires the same end error and end state. Unlike
// TestTraceRunDifferential's one counter program, these streams fault,
// exit to a refusing kernel and run out of fuel in the middle of fused
// traces, so a bookkeeping skew on any trace exit shows up here.
func TestTraceFusionDifferential(t *testing.T) {
	var hits uint64
	check := func(label string, code []byte, regs [x86.NumRegs]uint32) {
		msg, n := fuseDiff(t, code, regs, 0)
		if msg != "" {
			t.Fatalf("%s % x: %s", label, code, msg)
		}
		hits += n
	}
	randomStreams(func(code []byte, regs [x86.NumRegs]uint32) {
		check("random", code, regs)
	})
	for _, fm := range figureCorpus() {
		var regs [x86.NumRegs]uint32
		regs[x86.ESP] = 0x8000 + 2048
		check(fm.name, fm.code, regs)
	}
	if hits == 0 {
		t.Fatal("no fused trace ran")
	}
	t.Logf("%d trace hits", hits)
}

// FuzzTraceFusion is TestTraceFusionDifferential's check over
// fuzzer-chosen code bytes, start registers and step alarm: regs holds up
// to eight little-endian words, EAX first, and the fused run stops at the
// alarm (0: none) and continues. The seed corpus is the Figure corpus,
// with alarms inside it.
func FuzzTraceFusion(f *testing.F) {
	for i, fm := range figureCorpus() {
		regs := make([]byte, 4*x86.NumRegs)
		binary.LittleEndian.PutUint32(regs[4*x86.ESP:], 0x8000+2048)
		f.Add(fm.code, regs, uint16(i%8*5))
	}
	f.Fuzz(func(t *testing.T, code, regBytes []byte, alarm uint16) {
		if len(code) == 0 {
			t.Skip("no code to map")
		}
		if len(code) > 0x1000 {
			code = code[:0x1000] // the data region starts at 0x2000
		}
		var regs [x86.NumRegs]uint32
		for i := range regs {
			if len(regBytes) >= 4*(i+1) {
				regs[i] = binary.LittleEndian.Uint32(regBytes[4*i:])
			}
		}
		if msg, _ := fuseDiff(t, code, regs, uint64(alarm)); msg != "" {
			t.Fatalf("% x (alarm %d): %s", code, alarm, msg)
		}
	})
}

// TestPokeInvalidatesFusedTrace pins the injection-path invalidation rule:
// a Poke into the span of an already-fused trace must drop the trace, and
// the next run must execute the poked bytes.
func TestPokeInvalidatesFusedTrace(t *testing.T) {
	m := buildCounter(t)
	runToExit(t, m)

	// The loop body fused a trace headed at the inc (0x1005).
	if m.Mem.traceLookup(0x1005) == nil {
		t.Fatal("no fused trace at the loop head after a full run")
	}

	// Poke the cmp immediate (0x1008) — inside the 0x1005 trace's span.
	if err := m.Mem.Poke(0x1008, []byte{0x14}); err != nil {
		t.Fatal(err)
	}
	if tr := m.Mem.traceLookup(0x1005); tr != nil {
		t.Fatal("trace at 0x1005 survived a poke into its span")
	}

	// Re-run from scratch state: the counter must now run to the poked
	// bound (20), proving re-fused traces decode the new bytes.
	m.EIP = 0x1000
	m.Steps, m.Fuel = 0, 0
	runToExit(t, m)
	d := m.Mem.FindByName("data")
	if got := uint32(d.Data[0]); got != 20 {
		t.Errorf("counter after poke = %d, want 20", got)
	}
}

// TestSMCAbortsTrace pins the self-modifying-code barrier: a store into
// the executable region mid-trace bumps invalGen and the trace aborts, so
// the following instructions re-decode from the stored bytes.
func TestSMCAbortsTrace(t *testing.T) {
	// mov byte [0x1010], 0x42   ; c6 05 10 10 00 00 42  (overwrite below)
	// mov ebx, 7                ; bb 07 00 00 00
	// mov ebx, 9                ; bb 09 00 00 00   <- at 0x100c..0x1010
	//                           ;    last imm byte at 0x1010 becomes 0x42
	// int 0x80 exit             ; b8 01 00 00 00 / cd 80
	code := []byte{
		0xc6, 0x05, 0x10, 0x10, 0x00, 0x00, 0x42,
		0xbb, 0x07, 0x00, 0x00, 0x00,
		0xbb, 0x09, 0x00, 0x00, 0x00,
		0xb8, 0x01, 0x00, 0x00, 0x00,
		0xcd, 0x80,
	}
	mem := NewMemory()
	// rwx text: the store targets its own region.
	if err := mem.Map(&Region{Name: "text", Base: 0x1000, Perm: PermRead | PermWrite | PermExec, Data: code}); err != nil {
		t.Fatal(err)
	}
	m := New(mem, exitKernel{})
	m.EIP = 0x1000
	runToExit(t, m)
	// With the barrier honored, the second mov's immediate was 0x42000009
	// by the time it executed.
	if got := m.Regs[x86.EBX]; got != 0x42000009 {
		t.Errorf("ebx = %#x, want 0x42000009 (stale trace executed pre-store bytes?)", got)
	}
}

// TestMutBytesNeverDirtiedSpanRestores pins the injector/restore contract:
// a Poke into a span the program itself never writes must still be
// reverted by the O(dirty) restore (Poke marks dirty like any store).
func TestMutBytesNeverDirtiedSpanRestores(t *testing.T) {
	m := buildCounter(t)
	m.SetBreakpoint(0x100b)
	var hit *BreakpointHit
	if err := m.Run(); !errors.As(err, &hit) {
		t.Fatalf("run ended with %v, want breakpoint", err)
	}
	snap := m.Snapshot()

	m2 := snap.NewMachine(exitKernel{})
	if m2.FullRestores != 1 {
		t.Fatalf("fresh machine recorded %d full restores, want 1", m2.FullRestores)
	}
	m2.ClearBreakpoints()
	// data[32..36) is never touched by the program (it stores only data[0..4)).
	if err := m2.Mem.Poke(0x2020, []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	runToExit(t, m2)

	m2.ParanoidRestore = true
	if err := m2.Restore(snap); err != nil {
		t.Fatalf("restore after poked run: %v", err)
	}
	if m2.FullRestores != 1 {
		t.Errorf("re-restore took the full-copy path (%d full restores)", m2.FullRestores)
	}
	if m2.DirtyBytesCopied == 0 {
		t.Error("O(dirty) restore copied nothing despite poked+written pages")
	}
	d := m2.Mem.FindByName("data")
	if !bytes.Equal(d.Data[32:36], []byte{0, 0, 0, 0}) {
		t.Errorf("poked never-program-written span survived restore: % x", d.Data[32:36])
	}
}

// TestStringWriteSpansRegionsMarksBothDirty drives a REP STOSB across a
// region boundary and requires the dirty bitmaps of both regions to see
// it, so the following restore reverts both sides.
func TestStringWriteSpansRegionsMarksBothDirty(t *testing.T) {
	// mov edi, 0x200c ; bf 0c 20 00 00
	// mov ecx, 8      ; b9 08 00 00 00
	// mov al, 0x41    ; b0 41
	// rep stosb       ; f3 aa
	// int 0x80 exit   ; b8 01 00 00 00 / 31 db / cd 80
	code := []byte{
		0xbf, 0x0c, 0x20, 0x00, 0x00,
		0xb9, 0x08, 0x00, 0x00, 0x00,
		0xb0, 0x41,
		0xf3, 0xaa,
		0xb8, 0x01, 0x00, 0x00, 0x00,
		0x31, 0xdb,
		0xcd, 0x80,
	}
	mem := NewMemory()
	if err := mem.Map(&Region{Name: "text", Base: 0x1000, Perm: PermRead | PermExec, Data: code}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Map(&Region{Name: "lo", Base: 0x2000, Perm: PermRead | PermWrite, Data: make([]byte, 16)}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Map(&Region{Name: "hi", Base: 0x2010, Perm: PermRead | PermWrite, Data: make([]byte, 16)}); err != nil {
		t.Fatal(err)
	}
	m := New(mem, exitKernel{})
	m.EIP = 0x1000
	snap := m.Snapshot()

	m2 := snap.NewMachine(exitKernel{})
	runToExit(t, m2)
	for _, name := range []string{"lo", "hi"} {
		r := m2.Mem.FindByName(name)
		if r.dirtyPageCount() == 0 {
			t.Errorf("region %q has no dirty pages after the spanning store", name)
		}
	}
	m2.ParanoidRestore = true
	if err := m2.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, name := range []string{"lo", "hi"} {
		r := m2.Mem.FindByName(name)
		if !bytes.Equal(r.Data, make([]byte, 16)) {
			t.Errorf("region %q not reverted: % x", name, r.Data)
		}
	}
}

// TestParanoidRestoreCatchesUntrackedWrite mutates region bytes behind the
// dirty bitmap's back (as a hypothetical future write path that forgot to
// mark would) and requires ParanoidRestore to refuse.
func TestParanoidRestoreCatchesUntrackedWrite(t *testing.T) {
	m := buildCounter(t)
	snap := m.Snapshot()
	m2 := snap.NewMachine(exitKernel{})
	m2.ParanoidRestore = true

	m2.Mem.FindByName("data").Data[5] ^= 0xFF // bypasses access/Poke
	err := m2.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "paranoid") {
		t.Fatalf("paranoid restore returned %v, want untracked-write error", err)
	}
}

// TestRestoreFreshMappingAllOrNothing pins the bugfix: a fresh-machine
// restore that fails mid-mapping must leave the address space empty, not
// partially populated.
func TestRestoreFreshMappingAllOrNothing(t *testing.T) {
	s := &Snapshot{regions: []Region{
		{Name: "a", Base: 0x1000, Perm: PermRead, Data: make([]byte, 64)},
		{Name: "b", Base: 0x1020, Perm: PermRead, Data: make([]byte, 64)}, // overlaps a
	}}
	m := New(NewMemory(), exitKernel{})
	if err := m.Restore(s); err == nil {
		t.Fatal("restore of overlapping snapshot regions succeeded")
	}
	if n := len(m.Mem.Regions()); n != 0 {
		t.Fatalf("failed fresh restore left %d regions mapped, want 0", n)
	}
}

// TestNoDirtyTrackingKnob pins the ablation: with the knob set no bitmaps
// are armed and every restore is a full-image copy, with identical
// outcomes.
func TestNoDirtyTrackingKnob(t *testing.T) {
	m := buildCounter(t)
	snap := m.Snapshot()

	m2 := snap.NewMachine(exitKernel{})
	m2.NoDirtyTracking = true
	for i := 0; i < 3; i++ {
		if err := m2.Restore(snap); err != nil {
			t.Fatal(err)
		}
		runToExit(t, m2)
	}
	if m2.DirtyBytesCopied != 0 {
		t.Errorf("NoDirtyTracking machine copied %d dirty bytes", m2.DirtyBytesCopied)
	}
	// 1 fresh-machine restore + 3 explicit restores, all full.
	if m2.FullRestores != 4 {
		t.Errorf("FullRestores = %d, want 4", m2.FullRestores)
	}
	d := m2.Mem.FindByName("data")
	if got := uint32(d.Data[0]); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
}

// TestNewMachineInheritsTuning pins that a snapshot hands its capturing
// machine's knobs to every machine NewMachine creates, and that they are
// in force before the first Restore: a NoDirtyTracking snapshot yields a
// machine that never arms a bitmap, not one that tracks its first run.
func TestNewMachineInheritsTuning(t *testing.T) {
	m := buildCounter(t)
	m.NoICache = true
	m.NoDirtyTracking = true
	m.NoTraces = true
	snap := m.Snapshot()

	m2 := snap.NewMachine(exitKernel{})
	if !m2.NoICache || !m2.NoDirtyTracking || !m2.NoTraces {
		t.Fatalf("NewMachine knobs icache=%v dirty=%v traces=%v, want all set",
			m2.NoICache, m2.NoDirtyTracking, m2.NoTraces)
	}
	for _, r := range m2.Mem.Regions() {
		if r.dirty != nil {
			t.Errorf("region %s has a dirty bitmap armed", r.Name)
		}
	}
	if m2.lastSnap != nil {
		t.Error("NewMachine remembered its snapshot for an O(dirty) restore")
	}
	runToExit(t, m2)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m2.DirtyBytesCopied != 0 || m2.FullRestores != 2 {
		t.Errorf("DirtyBytesCopied = %d, FullRestores = %d; want 0 and 2",
			m2.DirtyBytesCopied, m2.FullRestores)
	}
	if m2.ICacheHits != 0 || m2.ICacheMisses != 0 || m2.TraceHits != 0 {
		t.Errorf("knobbed machine used the icache or traces: hits=%d misses=%d traces=%d",
			m2.ICacheHits, m2.ICacheMisses, m2.TraceHits)
	}
}
