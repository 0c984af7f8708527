package vm_test

import (
	"testing"

	"faultsec/internal/vm"
	"faultsec/internal/x86"
)

// benchMachine builds a machine running a tight arithmetic loop.
func benchMachine(b *testing.B) *vm.Machine {
	b.Helper()
	// loop: add eax, 1 ; cmp eax, 0x7fffffff ; jne loop
	code := []byte{
		0x83, 0xC0, 0x01,
		0x3D, 0xFF, 0xFF, 0xFF, 0x7F,
		0x75, 0xF6,
	}
	mem := vm.NewMemory()
	text := make([]byte, 64)
	copy(text, code)
	if err := mem.Map(&vm.Region{Name: "text", Base: 0x1000, Perm: vm.PermRead | vm.PermExec, Data: text}); err != nil {
		b.Fatal(err)
	}
	if err := mem.Map(&vm.Region{Name: "stack", Base: 0x8000, Perm: vm.PermRead | vm.PermWrite, Data: make([]byte, 4096)}); err != nil {
		b.Fatal(err)
	}
	m := vm.New(mem, exitSysB{})
	m.EIP = 0x1000
	m.Regs[x86.ESP] = 0x9000 - 16
	m.Fuel = 1 << 62
	return m
}

type exitSysB struct{}

func (exitSysB) Syscall(m *vm.Machine) error { return &vm.ExitStatus{} }

// BenchmarkStepALULoop measures raw interpreter throughput on the ALU +
// branch mix that dominates authentication code.
func BenchmarkStepALULoop(b *testing.B) {
	m := benchMachine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Steps), "retired")
}

// BenchmarkStepALULoopNoICache measures the same loop with the predecoded
// instruction cache disabled — the decode cost the cache amortises away.
func BenchmarkStepALULoopNoICache(b *testing.B) {
	m := benchMachine(b)
	m.NoICache = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Steps), "retired")
}

// branchMachine builds a machine running a jcc-heavy loop: three
// conditional branches (two data-dependent, one loop-closing) per four ALU
// retirements, the shape of authentication predicate code.
func branchMachine(b *testing.B) *vm.Machine {
	b.Helper()
	// loop: inc eax
	//       test al, 1 ; jz .l1
	// .l1:  test al, 2 ; jz .l2
	// .l2:  cmp eax, 0x7fffffff ; jne loop
	code := []byte{
		0x40,
		0xA8, 0x01,
		0x74, 0x00,
		0xA8, 0x02,
		0x74, 0x00,
		0x3D, 0xFF, 0xFF, 0xFF, 0x7F,
		0x75, 0xF0,
	}
	mem := vm.NewMemory()
	text := make([]byte, 64)
	copy(text, code)
	if err := mem.Map(&vm.Region{Name: "text", Base: 0x1000, Perm: vm.PermRead | vm.PermExec, Data: text}); err != nil {
		b.Fatal(err)
	}
	m := vm.New(mem, exitSysB{})
	m.EIP = 0x1000
	m.Fuel = 1 << 62
	return m
}

// BenchmarkStepBranchLoop measures conditional-branch-dominated
// throughput (condition evaluation + relative-target dispatch).
func BenchmarkStepBranchLoop(b *testing.B) {
	m := branchMachine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Steps), "retired")
}

// memMachine builds a machine running a ModRM-memory-heavy loop
// (base+index*scale effective addresses on both loads and a
// read-modify-write), the operand shape the micro-op layer must not slow
// down relative to moffs fast cases.
func memMachine(b *testing.B) *vm.Machine {
	b.Helper()
	// loop: mov eax, [ebx+esi*4]
	//       add [ebx+esi*4], eax
	//       mov edx, [ebx+4]
	//       jmp loop
	code := []byte{
		0x8B, 0x04, 0xB3,
		0x01, 0x04, 0xB3,
		0x8B, 0x53, 0x04,
		0xEB, 0xF5,
	}
	mem := vm.NewMemory()
	text := make([]byte, 64)
	copy(text, code)
	if err := mem.Map(&vm.Region{Name: "text", Base: 0x1000, Perm: vm.PermRead | vm.PermExec, Data: text}); err != nil {
		b.Fatal(err)
	}
	if err := mem.Map(&vm.Region{Name: "data", Base: 0x8000, Perm: vm.PermRead | vm.PermWrite, Data: make([]byte, 4096)}); err != nil {
		b.Fatal(err)
	}
	m := vm.New(mem, exitSysB{})
	m.EIP = 0x1000
	m.Regs[x86.EBX] = 0x8000
	m.Regs[x86.ESI] = 1
	m.Fuel = 1 << 62
	return m
}

// BenchmarkStepMemLoop measures ModRM-memory-operand throughput.
func BenchmarkStepMemLoop(b *testing.B) {
	m := memMachine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Steps), "retired")
}

// BenchmarkStepMemoryLoop measures throughput with memory operands.
func BenchmarkStepMemoryLoop(b *testing.B) {
	// loop: mov eax, [0x8000] ; add eax, 1 ; mov [0x8000], eax ; jmp loop
	code := []byte{
		0xA1, 0x00, 0x80, 0x00, 0x00,
		0x83, 0xC0, 0x01,
		0xA3, 0x00, 0x80, 0x00, 0x00,
		0xEB, 0xF1,
	}
	mem := vm.NewMemory()
	text := make([]byte, 64)
	copy(text, code)
	if err := mem.Map(&vm.Region{Name: "text", Base: 0x1000, Perm: vm.PermRead | vm.PermExec, Data: text}); err != nil {
		b.Fatal(err)
	}
	if err := mem.Map(&vm.Region{Name: "data", Base: 0x8000, Perm: vm.PermRead | vm.PermWrite, Data: make([]byte, 4096)}); err != nil {
		b.Fatal(err)
	}
	m := vm.New(mem, exitSysB{})
	m.EIP = 0x1000
	m.Fuel = 1 << 62
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBreakpointScan measures the per-step cost the injector's armed
// breakpoint adds (the ablation DESIGN.md calls out: breakpoint scan vs
// plain run).
func BenchmarkBreakpointScan(b *testing.B) {
	m := benchMachine(b)
	m.SetBreakpoint(0xFFFF0000) // never hit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Mem.Regions()) == 0 {
			b.Fatal("no regions")
		}
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
