package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"faultsec/internal/x86"
)

// The register use/def oracle: x86.RegUseDef against the interpreter
// switch (exec.go). For one instruction and one machine state it steps a
// NoICache machine once as is and once per register outside the
// instruction's read set with that register perturbed, and requires:
//
//   - memory, flags, EIP, the step and TSC counters, the fault and every
//     other register come out equal: the instruction does not read it;
//   - a register outside the write set comes out unchanged;
//   - a register in the write set but not the read set comes out equal
//     when the instruction retires: it is overwritten independently of its
//     input.

// Oracle machine layout: the instruction at useDefText, one data and one
// stack region.
const (
	useDefText  = 0x1000
	useDefData  = 0x2000
	useDefStack = 0x3000
	useDefSize  = 1024
)

// argKernel stands in for the kernel at int 0x80. Like the kernel it reads
// only EAX-EDX: it stores them at the start of the data region. Unlike the
// kernel it returns nothing in EAX, matching RegUseDef, which counts no
// register write for a syscall.
type argKernel struct{}

func (argKernel) Syscall(m *Machine) error {
	for r := uint8(x86.EAX); r <= x86.EBX; r++ {
		if f := m.Mem.Write32(useDefData+4*uint32(r), m.Regs[r]); f != nil {
			return f
		}
	}
	return nil
}

// useDefState is a machine state the oracle starts an instruction from.
type useDefState struct {
	regs  [x86.NumRegs]uint32
	flags uint32
}

// randomUseDefState draws registers that are mostly pointers into the data
// and stack regions, so memory operands sometimes hit mapped bytes, and
// random status and direction flags.
func randomUseDefState(rng *rand.Rand) useDefState {
	var st useDefState
	for i := range st.regs {
		switch rng.Intn(4) {
		case 0:
			st.regs[i] = useDefData + uint32(rng.Intn(useDefSize))
		case 1:
			st.regs[i] = useDefStack + uint32(rng.Intn(useDefSize))
		case 2:
			st.regs[i] = uint32(rng.Intn(64))
		default:
			st.regs[i] = rng.Uint32()
		}
	}
	st.regs[x86.ESP] = useDefStack + useDefSize/2 + 4*uint32(rng.Intn(useDefSize/16))
	st.flags = rng.Uint32() & (x86.FlagCF | x86.FlagPF | x86.FlagAF | x86.FlagZF |
		x86.FlagSF | x86.FlagDF | x86.FlagOF)
	return st
}

// useDefRig is one reusable oracle machine; run resets it from the region
// templates before every step.
type useDefRig struct {
	m    *Machine
	tmpl [][]byte
	// base holds the unperturbed run's region bytes.
	base [][]byte
}

func newUseDefRig() *useDefRig {
	g := &useDefRig{m: New(NewMemory(), argKernel{})}
	g.m.NoICache = true
	data := make([]byte, useDefSize)
	for i := range data {
		data[i] = byte(i*7 + i>>3)
	}
	for _, r := range []*Region{
		{Name: "text", Base: useDefText, Perm: PermRead | PermExec, Data: make([]byte, x86.MaxInstLen)},
		{Name: "data", Base: useDefData, Perm: PermRead | PermWrite, Data: append([]byte(nil), data...)},
		{Name: "stack", Base: useDefStack, Perm: PermRead | PermWrite, Data: append([]byte(nil), data...)},
	} {
		if err := g.m.Mem.Map(r); err != nil {
			panic(err)
		}
		g.tmpl = append(g.tmpl, append([]byte(nil), r.Data...))
		g.base = append(g.base, make([]byte, len(r.Data)))
	}
	return g
}

// run steps the instruction once from st with register r XORed by mask
// (r < 0: unperturbed) and returns the step's error.
func (g *useDefRig) run(st useDefState, r int, mask uint32) error {
	for i, reg := range g.m.Mem.Regions() {
		copy(reg.Data, g.tmpl[i])
	}
	g.m.Regs, g.m.Flags, g.m.EIP, g.m.Steps, g.m.TSC = st.regs, st.flags, useDefText, 0, 0
	if r >= 0 {
		g.m.Regs[r] ^= mask
	}
	return g.m.Step()
}

// check runs the oracle for code (one instruction, at most MaxInstLen
// bytes) from st, perturbing with mask. It returns the first violated
// property, or "" when code does not decode or every property holds.
func (g *useDefRig) check(code []byte, st useDefState, mask uint32) string {
	var in x86.Inst
	if x86.DecodeInto(&in, code) != nil {
		return ""
	}
	reads, writes := x86.RegUseDef(&in)
	copy(g.tmpl[0], code)
	for i := len(code); i < len(g.tmpl[0]); i++ {
		g.tmpl[0][i] = 0
	}

	baseErr := g.run(st, -1, 0)
	base := struct {
		Regs       [x86.NumRegs]uint32
		EIP, Flags uint32
		Steps, TSC uint64
	}{g.m.Regs, g.m.EIP, g.m.Flags, g.m.Steps, g.m.TSC}
	for i, reg := range g.m.Mem.Regions() {
		copy(g.base[i], reg.Data)
	}
	for r := 0; r < x86.NumRegs; r++ {
		if writes&(1<<r) == 0 && base.Regs[r] != st.regs[r] {
			return fmt.Sprintf("%s changed outside the write set %08b: %#x -> %#x",
				x86.RegName(uint8(r), 4), writes, st.regs[r], base.Regs[r])
		}
	}
	for r := 0; r < x86.NumRegs; r++ {
		if reads&(1<<r) != 0 {
			continue
		}
		name := x86.RegName(uint8(r), 4)
		err := g.run(st, r, mask)
		m := g.m
		switch {
		case !reflect.DeepEqual(err, baseErr):
			return fmt.Sprintf("%s outside the read set %08b changed the end: %v, unperturbed %v", name, reads, err, baseErr)
		case m.EIP != base.EIP || m.Flags != base.Flags || m.Steps != base.Steps || m.TSC != base.TSC:
			return fmt.Sprintf("%s outside the read set %08b changed EIP/flags/counters", name, reads)
		}
		for q := 0; q < x86.NumRegs; q++ {
			if q != r && m.Regs[q] != base.Regs[q] {
				return fmt.Sprintf("%s outside the read set %08b changed %s", name, reads, x86.RegName(uint8(q), 4))
			}
		}
		for i, reg := range m.Mem.Regions() {
			if !bytes.Equal(reg.Data, g.base[i]) {
				return fmt.Sprintf("%s outside the read set %08b changed %s memory", name, reads, reg.Name)
			}
		}
		switch {
		case writes&(1<<r) == 0 && m.Regs[r] != st.regs[r]^mask:
			return fmt.Sprintf("perturbed %s outside the write set %08b changed", name, writes)
		case writes&(1<<r) != 0 && baseErr == nil && m.Regs[r] != base.Regs[r]:
			return fmt.Sprintf("%s in the write set %08b but not the read set %08b depends on its input: %#x, unperturbed %#x",
				name, writes, reads, m.Regs[r], base.Regs[r])
		}
	}
	return ""
}

// useDefMask draws a perturbation that changes every byte of a register,
// so 8-bit and 16-bit operand reads see it.
func useDefMask(rng *rand.Rand) uint32 { return rng.Uint32() | 0x01010101 }

// useDefSamples returns one encoding per distinct register shape in the
// decoder's reachable space — operation, form, width, REP prefix, register
// field and r/m operand — so every register an instruction can name is
// exercised for every decodable (Op, Form) pair.
func useDefSamples() [][]byte {
	type key struct {
		op                 x86.Op
		form               x86.Form
		w, rep, reg, rmReg uint8
		isReg              bool
		base, index        int8
		int80              bool
	}
	seen := map[key]bool{}
	var out [][]byte
	sweepDecodable(func(enc []byte, in *x86.Inst) {
		k := key{in.Op, in.Form, in.W, in.Rep, in.Reg, in.RM.Reg, in.RM.IsReg,
			in.RM.Base, in.RM.Index, in.Op == x86.OpIntN && in.Imm == 0x80}
		if !seen[k] {
			seen[k] = true
			out = append(out, append([]byte(nil), enc[:in.Len]...))
		}
	})
	return out
}

// useDefStreams replays TestUopDifferentialRandom's byte streams on a
// NoICache machine and calls visit with the bytes and state before each
// retirement.
func useDefStreams(t *testing.T, visit func(code []byte, st useDefState)) {
	randomStreams(func(code []byte, regs [x86.NumRegs]uint32) {
		m := diffMachine(t, code, true, regs)
		for i := 0; i < 300; i++ {
			enc, f := m.Mem.Fetch(m.EIP, x86.MaxInstLen)
			if f != nil {
				return
			}
			visit(enc, useDefState{regs: m.Regs, flags: m.Flags})
			if m.Step() != nil {
				return
			}
		}
	})
}

// TestRegUseDefOracle checks x86.RegUseDef against the interpreter switch
// for one encoding of every register shape of every decodable (Op, Form)
// pair, from random states, and for every instruction the random byte
// streams of TestUopDifferentialRandom retire.
func TestRegUseDefOracle(t *testing.T) {
	g := newUseDefRig()
	rng := rand.New(rand.NewSource(0x11FE))
	samples := useDefSamples()
	checks := 0
	for _, enc := range samples {
		for i := 0; i < 3; i++ {
			if msg := g.check(enc, randomUseDefState(rng), useDefMask(rng)); msg != "" {
				t.Fatalf("% x: %s", enc, msg)
			}
			checks++
		}
	}
	useDefStreams(t, func(code []byte, st useDefState) {
		if msg := g.check(code, st, useDefMask(rng)); msg != "" {
			t.Fatalf("stream % x: %s", code, msg)
		}
		checks++
	})
	t.Logf("%d encodings, %d checks", len(samples), checks)
}

// FuzzRegUseDef is TestRegUseDefOracle's check as a fuzz target: code is
// one instruction's bytes and seed draws the state and perturbation. The
// seed corpus is one encoding per decodable (Op, Form) pair.
func FuzzRegUseDef(f *testing.F) {
	type key struct {
		op   x86.Op
		form x86.Form
	}
	seen := map[key]bool{}
	sweepDecodable(func(enc []byte, in *x86.Inst) {
		if k := (key{in.Op, in.Form}); !seen[k] {
			seen[k] = true
			f.Add(append([]byte(nil), enc[:in.Len]...), int64(len(seen)))
		}
	})
	g := newUseDefRig()
	f.Fuzz(func(t *testing.T, code []byte, seed int64) {
		if len(code) > x86.MaxInstLen {
			code = code[:x86.MaxInstLen]
		}
		rng := rand.New(rand.NewSource(seed))
		if msg := g.check(code, randomUseDefState(rng), useDefMask(rng)); msg != "" {
			t.Fatalf("% x: %s", code, msg)
		}
	})
}
