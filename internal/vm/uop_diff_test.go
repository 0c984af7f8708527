package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"faultsec/internal/x86"
)

// diffMachine builds one machine over a private copy of the given code and
// data images, so the uop and switch runs cannot share state. A noICache
// machine caches nothing, so every retirement decodes afresh and executes
// through the interpreter switch (exec.go): the uop pipeline's oracle.
func diffMachine(t *testing.T, code []byte, noICache bool, regs [x86.NumRegs]uint32) *Machine {
	t.Helper()
	mem := NewMemory()
	if err := mem.Map(&Region{Name: "text", Base: 0x1000, Perm: PermRead | PermExec,
		Data: append([]byte(nil), code...)}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Map(&Region{Name: "data", Base: 0x2000, Perm: PermRead | PermWrite,
		Data: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Map(&Region{Name: "stack", Base: 0x8000, Perm: PermRead | PermWrite,
		Data: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	m := New(mem, nopKernel{})
	m.NoICache = noICache
	m.EIP = 0x1000
	m.Regs = regs
	return m
}

// memImage flattens every region's bytes for comparison.
func memImage(m *Machine) map[string][]byte {
	out := make(map[string][]byte, len(m.Mem.regions))
	for _, r := range m.Mem.regions {
		out[r.Name] = append([]byte(nil), r.Data...)
	}
	return out
}

// stepDiff lock-steps the two machines for at most maxSteps retirements,
// comparing the full architectural state after every step. It returns on
// the first terminating error (which must also be identical).
func stepDiff(t *testing.T, label string, mu, ml *Machine, maxSteps int) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		eu := mu.Step()
		el := ml.Step()
		if !reflect.DeepEqual(eu, el) {
			t.Fatalf("%s: step %d: uop err %v, switch err %v", label, i, eu, el)
		}
		if mu.Regs != ml.Regs || mu.EIP != ml.EIP || mu.Flags != ml.Flags ||
			mu.Steps != ml.Steps {
			t.Fatalf("%s: step %d diverged:\nuop:    regs=%v eip=%#x flags=%#x steps=%d\nswitch: regs=%v eip=%#x flags=%#x steps=%d",
				label, i,
				mu.Regs, mu.EIP, mu.Flags, mu.Steps,
				ml.Regs, ml.EIP, ml.Flags, ml.Steps)
		}
		if eu != nil {
			break
		}
	}
	if !reflect.DeepEqual(memImage(mu), memImage(ml)) {
		t.Fatalf("%s: memory images diverged", label)
	}
}

// TestUopDifferentialRandom drives fixed-seed random byte streams — mostly
// garbage interleaved with valid-looking opcode bytes, the same population
// an injected bit flip produces — through a micro-op machine and a
// NoICache (interpreter switch) machine in lock-step and requires
// identical faults, flags, registers, EIP, step counts and memory at every
// retirement.
func TestUopDifferentialRandom(t *testing.T) {
	randomStreams(func(code []byte, regs [x86.NumRegs]uint32) {
		mu := diffMachine(t, code, false, regs)
		ml := diffMachine(t, code, true, regs)
		stepDiff(t, "random", mu, ml, 300)
	})
}

// randomStreams calls visit with 400 fixed-seed random byte streams and
// start registers.
func randomStreams(visit func(code []byte, regs [x86.NumRegs]uint32)) {
	rng := rand.New(rand.NewSource(0x5EC0DE))
	const rounds = 400
	for round := 0; round < rounds; round++ {
		n := 16 + rng.Intn(240)
		code := make([]byte, n)
		rng.Read(code)
		// Bias some bytes toward common opcodes so runs retire more than
		// one instruction before faulting.
		common := []byte{0x01, 0x29, 0x31, 0x39, 0x40, 0x48, 0x50, 0x58,
			0x74, 0x75, 0x83, 0x89, 0x8B, 0xB8, 0xC3, 0xEB, 0xF7, 0x0F}
		for i := 0; i < n/3; i++ {
			code[rng.Intn(n)] = common[rng.Intn(len(common))]
		}
		var regs [x86.NumRegs]uint32
		for i := range regs {
			// Mostly in-bounds pointers so memory operands sometimes hit
			// mapped regions instead of always faulting.
			switch rng.Intn(3) {
			case 0:
				regs[i] = 0x2000 + uint32(rng.Intn(2048))
			case 1:
				regs[i] = uint32(rng.Intn(1 << 12))
			default:
				regs[i] = rng.Uint32()
			}
		}
		regs[x86.ESP] = 0x8000 + 2048
		visit(code, regs)
	}
}

// figureMutant is one program of the Figure corpus: a name and its bytes.
type figureMutant struct {
	name string
	code []byte
}

// figureCorpus returns the paper's Figure 1/2/3 corruption patterns
// (condition reversal, register-operand flip, branch-offset flip,
// immediate bit flip) applied to a small password-check-shaped program,
// the unmutated program first.
func figureCorpus() []figureMutant {
	// A small password-check-shaped program:
	//   mov eax, [0x2000]   ; rval
	//   cmp eax, 0
	//   je +2 (deny path skip)
	//   inc ebx             ; "grant"
	//   push eax
	//   push ecx
	//   mov ecx, 256
	//   add ecx, 1
	//   ret (faults: stack top is data)
	base := []byte{
		0xA1, 0x00, 0x20, 0x00, 0x00, // mov eax, [0x2000]
		0x83, 0xF8, 0x00, // cmp eax, 0
		0x74, 0x01, // je +1
		0x43,                         // inc ebx
		0x50,                         // push eax
		0x51,                         // push ecx
		0xB9, 0x00, 0x01, 0x00, 0x00, // mov ecx, 256
		0x83, 0xC1, 0x01, // add ecx, 1
		0xC3, // ret
	}
	corpus := []struct {
		name string
		mut  func([]byte)
	}{
		{"golden", func(c []byte) {}},
		// Figure 1: je -> jne at the rval test (0x74 -> 0x75).
		{"je-to-jne", func(c []byte) { c[8] = 0x75 }},
		// Figure 1: push eax -> push ecx (0x50 -> 0x51).
		{"push-eax-to-ecx", func(c []byte) { c[11] = 0x51 }},
		// Branch-offset bit flips jumping into/over the grant path.
		{"branch-offset-bit0", func(c []byte) { c[9] ^= 1 << 0 }},
		{"branch-offset-bit2", func(c []byte) { c[9] ^= 1 << 2 }},
		{"branch-offset-bit7", func(c []byte) { c[9] ^= 1 << 7 }},
		// Figure 3: immediate bit 9 flip, 256 -> 768.
		{"imm-256-to-768", func(c []byte) { c[15] ^= 1 << 1 }},
		// Opcode flips that land mid-family: cmp -> sub group, ret -> #UD
		// territory.
		{"group-digit-flip", func(c []byte) { c[6] ^= 1 << 3 }},
		{"opcode-high-bit", func(c []byte) { c[21] ^= 1 << 6 }},
	}
	out := make([]figureMutant, len(corpus))
	for i, tc := range corpus {
		code := append([]byte(nil), base...)
		tc.mut(code)
		out[i] = figureMutant{tc.name, code}
	}
	return out
}

// TestUopDifferentialFigureCorpus replays the Figure corpus through both
// execution paths.
func TestUopDifferentialFigureCorpus(t *testing.T) {
	for _, tc := range figureCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			var regs [x86.NumRegs]uint32
			regs[x86.ESP] = 0x8000 + 2048
			mu := diffMachine(t, tc.code, false, regs)
			ml := diffMachine(t, tc.code, true, regs)
			stepDiff(t, tc.name, mu, ml, 300)
		})
	}
}
