package campaign_test

import (
	"context"
	"reflect"
	"testing"

	"faultsec/internal/asm"
	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/image"
	"faultsec/internal/inject"
	"faultsec/internal/target"
	"faultsec/internal/x86"
)

// silentClient never answers and never authenticates: the guard images
// below only write to the connection.
type silentClient struct{}

func (silentClient) OnServerLine(string) []string { return nil }
func (silentClient) Done() bool                   { return true }
func (silentClient) Granted() bool                { return false }

// Both guard images write a line, then observe the bytes of check's
// conditional branch again after the session has retired the branch for
// the last time: readsText loads them as data, jumpsMidInstruction jumps
// into the branch and executes its displacement byte (0x90, a nop) as an
// instruction. A bitflip run of that branch therefore holds the golden
// state at the first write, except for the poked bytes, and still ends
// differently from the golden run. Only the golden shadow's guards —
// execute-only text and valid instruction starts — keep such runs from
// converging.
const (
	readsTextSrc = `
.text
.global _start
.func _start
_start:
	call check
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	mov edx, 4
	int 0x80
	mov edx, [branch]
	shr edx, 8
	and edx, 3
	add edx, 1
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov eax, [flag]
	cmp eax, 1
branch:
	.db 0x74, 0x01
	nop
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	jumpsMidInstructionSrc = `
.text
.global _start
.func _start
_start:
	call check
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	mov edx, 4
	int 0x80
	mov eax, 1
	mov [flag], eax
	mov eax, branch
	inc eax
	jmp eax
.endfunc
.func check
check:
	mov eax, [flag]
	cmp eax, 1
branch:
	.db 0x74, 0x90
	mov eax, [flag]
	cmp eax, 0
	jne second
	ret
second:
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	mov edx, 4
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
)

func guardApp(t *testing.T, name, src string) (*target.App, target.Scenario) {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	img, err := image.Link(obj)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	sc := target.Scenario{Name: "Client1", New: func() target.Client { return silentClient{} }}
	return &target.App{Name: name, Image: img, AuthFuncs: []string{"check"}, Scenarios: []target.Scenario{sc}}, sc
}

// TestGoldenConvergenceGuards checks that a program the persistent-fault
// argument does not cover trips the golden shadow's guards: no run
// converges, and Stats equal a run without dirty tracking, which never
// converges.
func TestGoldenConvergenceGuards(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"readsText", readsTextSrc},
		{"jumpsMidInstruction", jumpsMidInstructionSrc},
	} {
		t.Run(c.name, func(t *testing.T) {
			app, sc := guardApp(t, c.name, c.src)
			cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true, Parallelism: 1}
			eng := campaign.New(cfg)
			got, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if n := eng.Metrics().ConvergedRuns; n != 0 {
				t.Errorf("%d runs converged past the guard", n)
			}
			cfg.NoDirtyTracking = true
			want, err := campaign.New(cfg).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stats differ from a run without convergence\ngot:  %+v\nwant: %+v", statsSummary(got), statsSummary(want))
			}
		})
	}
}

// The register-liveness guard images. In each, check's branches are the
// register-fault targets, and after a target the session reads one
// register only in a way a careless use/def rule would miss, so a liveness
// query that misses it records golden results for runs that end
// differently.
const (
	// lateESISrc reads ESI once, as a memory operand's base, after a
	// 2,000-iteration loop: the write count is derived from the byte ESI
	// points to.
	lateESISrc = `
.text
.global _start
.func _start
_start:
	mov esi, msg
	call check
	mov ecx, 2000
spin:
	dec ecx
	jne spin
	movzx edx, byte [esi]
	and edx, 3
	add edx, 1
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov eax, [flag]
	cmp eax, 1
	jne out
	nop
out:
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// pushPopESISrc: check only saves and restores ESI; the caller then
	// passes it to write as the count. pop esi is a full write, so only
	// push esi keeps ESI live at the first branch.
	pushPopESISrc = `
.text
.global _start
.func _start
_start:
	mov esi, 4
	call check
	mov edx, esi
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov eax, [flag]
	cmp eax, 1
	jne save
	nop
save:
	push esi
	mov eax, [flag]
	cmp eax, 1
	jne out
	nop
out:
	pop esi
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// syscallEDXSrc: EDX is set before the targets and read only by the
	// kernel, as write's count.
	syscallEDXSrc = `
.text
.global _start
.func _start
_start:
	call check
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov edx, 4
	mov eax, [flag]
	cmp eax, 1
	jne out
	nop
out:
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// partialWriteSrc writes AL and then reads EAX: the 8-bit write keeps
	// EAX's upper bytes, which end up in write's count.
	partialWriteSrc = `
.text
.global _start
.func _start
_start:
	call check
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov eax, [flag]
	cmp eax, 1
	jne out
	nop
out:
	mov al, 3
	add eax, 1
	mov edx, eax
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
)

// The fault-flow guard images. In each, the value a register holds at
// check's branch is only copied (mov, push, pop, xchg, through registers
// or memory) until it reaches one sink: a strong-liveness pass that misses
// the sink, or the copy, records golden results for runs that end
// differently.
const (
	// addrCopySrc copies ESI to EDI, which addresses the byte write's
	// count is derived from.
	addrCopySrc = `
.text
.global _start
.func _start
_start:
	mov esi, msg
	call check
	mov edi, esi
	movzx edx, byte [edi]
	and edx, 3
	add edx, 1
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// writeBufferSrc stores EBX, the line, into the buffer write sends.
	writeBufferSrc = `
.text
.global _start
.func _start
_start:
	mov ebx, 0x0a0d6b6f
	call check
	mov [buf], ebx
	mov eax, 4
	mov ebx, 1
	mov ecx, buf
	mov edx, 4
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
buf: .dd 0
`
	// retAddrSrc: check stores ESI over its return address and returns
	// through it.
	retAddrSrc = `
.text
.global _start
.func _start
_start:
	mov esi, back
	call check
back:
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	mov edx, 4
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov eax, [flag]
	cmp eax, 1
	jne out
	nop
out:
	mov [esp], esi
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// cmpReloadSrc stores EDI, reloads it into ECX and compares it.
	cmpReloadSrc = `
.text
.global _start
.func _start
_start:
	mov edi, 1
	call check
	mov [tmp], edi
	mov ecx, [tmp]
	cmp ecx, 1
	jne skip
` + writeOKSrc + `
skip:
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
tmp: .dd 0
msg: .ascii "ok\r\n"
`
	// partialCopySrc copies BL, then BH, into AL and compares AL: only
	// EBX's two low lanes are live.
	partialCopySrc = `
.text
.global _start
.func _start
_start:
	mov ebx, 0x0404
	call check
	mov eax, 0
	mov al, bl
	cmp al, 4
	jne skip
	mov al, bh
	cmp al, 4
	jne skip
` + writeOKSrc + `
skip:
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// xchgSrc swaps ECX's value through EAX and EBX into EDX, write's
	// count, in both the short form (0x91 is xchg eax, ecx, which the
	// assembler does not emit) and the r/m form.
	xchgSrc = `
.text
.global _start
.func _start
_start:
	mov ecx, 4
	call check
	mov eax, 0
	.db 0x91
	mov ebx, 0
	xchg ebx, eax
	xchg edx, ebx
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// pushPopChainSrc moves ESI through two push/pop pairs into ECX,
	// which it compares.
	pushPopChainSrc = `
.text
.global _start
.func _start
_start:
	mov esi, 4
	call check
	push esi
	pop edi
	push edi
	pop ecx
	cmp ecx, 4
	jne skip
` + writeOKSrc + `
skip:
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// checkSrc is the fault-flow images' check: its branch is the target.
	checkSrc = `
.func check
check:
	mov eax, [flag]
	cmp eax, 1
	jne out
	nop
out:
	ret
.endfunc
`
	// writeOKSrc writes the line at msg.
	writeOKSrc = `
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	mov edx, 4
	int 0x80
`
)

// pushPopGoldenSrc: after its branch, check pushes EBX twice and pops the
// copies into EDX and EBX, and the caller overwrites both. EBX is read by
// the pushes, so it is live under use/def, but its value only moves: every
// EBX fault at the branch is the golden run.
const pushPopGoldenSrc = `
.text
.global _start
.func _start
_start:
	mov ebx, 7
	call check
` + writeOKSrc + `
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov eax, [flag]
	cmp eax, 1
	jne out
	nop
out:
	push ebx
	push ebx
	pop edx
	pop ebx
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`

// TestRegisterLivenessGuards checks the liveness shortcut on images built
// to defeat one rule each: memory-operand bases, push of a register,
// syscall arguments and partial writes for use/def; and, for the copies of
// strong liveness, a copied value reaching an address, write's buffer, a
// popped return address, a cmp after a reload, a partial copy, xchg, and
// the end of a push/pop chain. Each regflip campaign must record some runs
// through the shortcut and give Stats equal to the naive executor's.
func TestRegisterLivenessGuards(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"lateESI", lateESISrc},
		{"pushPopESI", pushPopESISrc},
		{"syscallEDX", syscallEDXSrc},
		{"partialWrite", partialWriteSrc},
		{"addrCopy", addrCopySrc},
		{"writeBuffer", writeBufferSrc},
		{"retAddr", retAddrSrc},
		{"cmpReload", cmpReloadSrc},
		{"partialCopy", partialCopySrc},
		{"xchg", xchgSrc},
		{"pushPopChain", pushPopChainSrc},
	} {
		t.Run(c.name, func(t *testing.T) {
			app, sc := guardApp(t, c.name, c.src)
			cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: "regflip",
				KeepResults: true, Parallelism: 1}
			exps, err := campaign.EnumerateConfig(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := campaign.New(cfg)
			got, err := eng.RunExperiments(context.Background(), exps)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Metrics().ConvergedRuns == 0 {
				t.Error("no run converged")
			}
			want, err := inject.RunExperimentsNaive(context.Background(), inject.Config{
				App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true, Parallelism: 1,
			}, exps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stats differ from the naive executor\ngot:  %+v\nwant: %+v", statsSummary(got), statsSummary(want))
			}
		})
	}
}

// TestRegisterLivenessGoldenChain checks the precision the copy rule buys:
// on pushPopGoldenSrc every activated EBX fault is recorded as the golden
// run without interpreting an instruction, and the Stats equal the naive
// executor's.
func TestRegisterLivenessGoldenChain(t *testing.T) {
	app, sc := guardApp(t, "pushPopGolden", pushPopGoldenSrc)
	cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: "regflip",
		KeepResults: true, Parallelism: 1}
	all, err := campaign.EnumerateConfig(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var exps []inject.Experiment
	for _, ex := range all {
		if ex.Mut.Reg == x86.EBX {
			exps = append(exps, ex)
		}
	}
	eng := campaign.New(cfg)
	got, err := eng.RunExperiments(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.SnapshotRuns == 0 || m.ConvergedRuns != m.SnapshotRuns || m.InstructionsInterpreted != 0 {
		t.Errorf("%d activated EBX runs, %d converged, %d instructions interpreted; want all converged and none interpreted",
			m.SnapshotRuns, m.ConvergedRuns, m.InstructionsInterpreted)
	}
	want, err := inject.RunExperimentsNaive(context.Background(), inject.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true, Parallelism: 1,
	}, exps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stats differ from the naive executor\ngot:  %+v\nwant: %+v", statsSummary(got), statsSummary(want))
	}
}

// The live-checkpoint guard images. In each, an ESI fault at one of
// check's two targets, its branch and its ret, leaves the run different
// from the session at a syscall entry, in locations of which some are
// live there and some are not. A run may stop at a checkpoint only where
// every location it differs in is dead; one that stops where a live
// location differs is recorded golden and ends differently. ESI is 4 at
// both targets, and six registers are dead there: EAX, EBX, ECX and EDX,
// which the session overwrites before reading, and EBP and EDI, which it
// never reads. Their 6 × 32 faults per target stop at activation.
const (
	// liveThenDeadSrc reads ESI after its first write, deriving the second
	// write's count from ESI's low two bits. ESI is live at the first
	// write and dead at the second: a fault in bits 2-31 stops at the
	// second write, one in bits 0-1 changes the count.
	liveThenDeadSrc = `
.text
.global _start
.func _start
_start:
	mov esi, 4
	call check
` + writeOKSrc + `
	mov edx, esi
	and edx, 3
	add edx, 1
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
	// stackReloadSrc pushes ESI's value from memory, and clears ESI and
	// the memory word, so at the first write the run differs from the
	// session only in the stack slot, which the session pops after the
	// write into the second write's count. Past the pop the slot is dead:
	// a fault in bits 2-31 stops at the second write, one in bits 0-1
	// changes the count. push and pop with a memory operand are the
	// steps whose stack slot the flow log keeps in its side table.
	stackReloadSrc = `
.text
.global _start
.func _start
_start:
	mov esi, 4
	call check
	mov [tmp], esi
	mov esi, 0
	push [tmp]
	mov [tmp], esi
` + writeOKSrc + `
	pop [tmp]
	mov edx, [tmp]
	and edx, 3
	add edx, 1
	mov eax, 4
	mov ebx, 1
	mov ecx, msg
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
tmp: .dd 0
msg: .ascii "ok\r\n"
`
	// flagAcrossSyscallSrc compares ESI with 4 before the first write and
	// branches on CF after it. ESI is dead at the write, and so are every
	// flag but CF: a fault in any bit but bit 2 leaves CF clear and stops
	// at the first write; one in bit 2 sets it, and the run skips the
	// second write.
	flagAcrossSyscallSrc = `
.text
.global _start
.func _start
_start:
	mov esi, 4
	call check
	cmp esi, 4
` + writeOKSrc + `
	jb skip
` + writeOKSrc + `
skip:
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
` + checkSrc + `
.data
flag: .dd 0
msg: .ascii "ok\r\n"
`
)

// TestLiveCheckpointGuards checks the liveness-relaxed checkpoint compare
// on images where a register, a stack slot or a flag that differs at one
// syscall entry is read after it. Each regflip campaign must converge
// exactly the runs whose differences are all dead at some checkpoint,
// and give Stats equal to the naive executor's.
func TestLiveCheckpointGuards(t *testing.T) {
	for _, c := range []struct {
		name, src string
		converged int64
	}{
		{"liveThenDead", liveThenDeadSrc, 2 * (6*32 + 30)},
		{"stackReload", stackReloadSrc, 2 * (6*32 + 30)},
		{"flagAcrossSyscall", flagAcrossSyscallSrc, 2 * (6*32 + 31)},
	} {
		t.Run(c.name, func(t *testing.T) {
			app, sc := guardApp(t, c.name, c.src)
			cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: "regflip",
				KeepResults: true, Parallelism: 1}
			exps, err := campaign.EnumerateConfig(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := campaign.New(cfg)
			got, err := eng.RunExperiments(context.Background(), exps)
			if err != nil {
				t.Fatal(err)
			}
			if n := eng.Metrics().ConvergedRuns; n != c.converged {
				t.Errorf("%d runs converged, want %d", n, c.converged)
			}
			want, err := inject.RunExperimentsNaive(context.Background(), inject.Config{
				App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true, Parallelism: 1,
			}, exps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stats differ from the naive executor\ngot:  %+v\nwant: %+v", statsSummary(got), statsSummary(want))
			}
		})
	}
}

// The dense-checkpoint guard images. Each spins for 6,000 steps between
// its syscalls, so the golden shadow records dense checkpoints there.
const (
	// denseBeforeLastSrc calls check twice, the spin between the calls.
	// check's je falls through in the first call and jumps in the second,
	// so a flip of its displacement holds the session's state, poked
	// bytes aside, at the dense checkpoints of the spin, and only then
	// jumps elsewhere. Those runs may not stop before the second call.
	denseBeforeLastSrc = `
.text
.global _start
.func _start
_start:
	call check
	mov ecx, 3000
spin:
	dec ecx
	jne spin
	mov eax, 1
	mov [flag], eax
	call check
	mov eax, 4
	mov ebx, 1
	mov edx, 4
	int 0x80
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov ecx, msg
	mov eax, [flag]
	cmp eax, 1
	je out
	mov ecx, alt
out:
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
alt: .ascii "no\r\n"
`
	// denseRejoinSrc writes the message check picks and spins before it
	// exits. check's first je picks ESI, its second the message. A flip
	// that makes the first je jump differs from the session in ESI at the
	// write, rejoins it when ESI is cleared after the write, and stops at
	// the first dense checkpoint, between the two syscalls. A flip that
	// makes the second jump writes the other message: it holds the
	// session's machine state in the spin, but not its kernel session,
	// and may not stop.
	denseRejoinSrc = `
.text
.global _start
.func _start
_start:
	call check
	mov eax, 4
	mov ebx, 1
	mov edx, 4
	int 0x80
	mov esi, 0
	mov ecx, 3000
	xor eax, eax
spin:
	dec ecx
	jne spin
	mov eax, 1
	mov ebx, 0
	int 0x80
.endfunc
.func check
check:
	mov esi, 1
	mov ecx, alt
	mov eax, [flag]
	cmp eax, 1
	je first
	mov esi, 2
	jmp second
first:
	nop
	nop
second:
	cmp eax, 1
	je keep
	mov ecx, msg
	jmp out
keep:
	nop
	nop
out:
	ret
.endfunc
.data
flag: .dd 0
msg: .ascii "ok\r\n"
alt: .ascii "no\r\n"
`
)

// TestDenseCheckpointGuards checks the dense-checkpoint compare of byte
// faults on images where a run holds the session's machine state at a
// dense checkpoint it may not stop at: before the session's last
// retirement of the corrupted branch, or with a different kernel
// session. Each bitflip campaign must converge the pinned runs, at the
// write's syscall entry (atWrite runs, step write) or at the first dense
// checkpoint, step 1,000 (atDense runs), and give Stats equal to the
// naive executor's.
func TestDenseCheckpointGuards(t *testing.T) {
	for _, c := range []struct {
		name, src        string
		atWrite, atDense int64
		write            int64
	}{
		{"beforeLast", denseBeforeLastSrc, 0, 0, 0},
		{"rejoin", denseRejoinSrc, 18, 5, 17},
	} {
		t.Run(c.name, func(t *testing.T) {
			app, sc := guardApp(t, c.name, c.src)
			cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true, Parallelism: 1}
			exps, err := campaign.EnumerateConfig(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := campaign.New(cfg)
			got, err := eng.RunExperiments(context.Background(), exps)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := inject.GoldenRun(app, sc, 0)
			if err != nil {
				t.Fatal(err)
			}
			end := int64(golden.Steps)
			m := eng.Metrics()
			if n, saved := c.atWrite+c.atDense, c.atWrite*(end-c.write)+c.atDense*(end-1000); m.ConvergedRuns != n || m.InstructionsSaved != saved {
				t.Errorf("%d runs converged saving %d instructions, want %d saving %d", m.ConvergedRuns, m.InstructionsSaved, n, saved)
			}
			want, err := inject.RunExperimentsNaive(context.Background(), inject.Config{
				App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true, Parallelism: 1,
			}, exps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stats differ from the naive executor\ngot:  %+v\nwant: %+v", statsSummary(got), statsSummary(want))
			}
		})
	}
}
