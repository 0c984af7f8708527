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

// The flow oracle: x86.RegFlow's copies against the interpreter switch.
// For one instruction the descriptor calls a copy and one machine state it
// steps a NoICache machine once as is and, per copy, once with the copy's
// source bytes XORed by random nonzero bytes, and requires:
//
//   - when the step retires, every destination byte equals its source
//     byte before the step;
//   - with the source perturbed, the fault, EIP, flags, counters and every
//     register lane and memory byte come out as unperturbed, except the
//     copy's destination bytes, which carry the perturbation, and the
//     source bytes themselves, which keep it or are overwritten.
//
// A source byte the descriptor also lists as a sink (a pushed ESP, a
// stored address register) is not perturbed: a sink may change anything.

// flowLoc is one byte of a copy operand: a register lane or a memory
// address.
type flowLoc struct {
	reg  bool
	lane uint8
	addr uint32
}

// flowByteLoc returns byte i of copy operand op under flow f from state st.
func flowByteLoc(f *x86.Flow, op x86.Operand, i uint8, st *useDefState) flowLoc {
	switch op.Mem {
	case x86.MemRM:
		return flowLoc{addr: x86.EffAddr(&f.Addr, &st.regs) + uint32(i)}
	case x86.MemStack:
		return flowLoc{addr: f.StackAddr(&st.regs) + uint32(i)}
	}
	return flowLoc{reg: true, lane: op.Lane + i}
}

// regionByte returns the region index and offset of addr, or ok false when
// it is unmapped.
func (g *useDefRig) regionByte(addr uint32) (ri int, off uint32, ok bool) {
	for i, r := range g.m.Mem.Regions() {
		if o := addr - r.Base; o < uint32(len(r.Data)) {
			return i, o, true
		}
	}
	return 0, 0, false
}

// runXor steps the instruction once from st with the given register and
// memory bytes XORed in, and returns the step's error.
func (g *useDefRig) runXor(st useDefState, regXor [x86.NumRegs]uint32, memXor map[uint32]byte) error {
	for i, reg := range g.m.Mem.Regions() {
		copy(reg.Data, g.tmpl[i])
	}
	for addr, x := range memXor {
		ri, off, _ := g.regionByte(addr)
		g.m.Mem.Regions()[ri].Data[off] ^= x
	}
	for r := range st.regs {
		st.regs[r] ^= regXor[r]
	}
	g.m.Regs, g.m.Flags, g.m.EIP, g.m.Steps, g.m.TSC = st.regs, st.flags, useDefText, 0, 0
	return g.m.Step()
}

func laneByte(regs *[x86.NumRegs]uint32, lane uint8) byte {
	return byte(regs[lane/4] >> (8 * (lane % 4)))
}

// checkFlow runs the flow oracle for code from st, drawing perturbations
// from rng. It returns the first violated property, or "" when code does
// not decode, RegFlow lists no copy, or every property holds.
func (g *useDefRig) checkFlow(code []byte, st useDefState, rng *rand.Rand) string {
	var in x86.Inst
	if x86.DecodeInto(&in, code) != nil {
		return ""
	}
	f := x86.RegFlow(&in)
	if f.NCopies == 0 {
		return ""
	}
	copy(g.tmpl[0], code)
	for i := len(code); i < len(g.tmpl[0]); i++ {
		g.tmpl[0][i] = 0
	}

	baseErr := g.runXor(st, [x86.NumRegs]uint32{}, nil)
	base := struct {
		Regs       [x86.NumRegs]uint32
		EIP, Flags uint32
		Steps, TSC uint64
	}{g.m.Regs, g.m.EIP, g.m.Flags, g.m.Steps, g.m.TSC}
	for i, reg := range g.m.Mem.Regions() {
		copy(g.base[i], reg.Data)
	}
	if baseErr == nil {
		for ci, c := range f.Copies[:f.NCopies] {
			for i := uint8(0); i < f.N; i++ {
				src, dst := flowByteLoc(&f, c.Src, i, &st), flowByteLoc(&f, c.Dst, i, &st)
				var sv, dv byte
				if src.reg {
					sv = laneByte(&st.regs, src.lane)
				} else if ri, off, ok := g.regionByte(src.addr); ok {
					sv = g.tmpl[ri][off]
				} else {
					return fmt.Sprintf("copy %d reads unmapped %#x and retires", ci, src.addr)
				}
				if dst.reg {
					dv = laneByte(&base.Regs, dst.lane)
				} else if ri, off, ok := g.regionByte(dst.addr); ok {
					dv = g.base[ri][off]
				} else {
					return fmt.Sprintf("copy %d writes unmapped %#x and retires", ci, dst.addr)
				}
				if sv != dv {
					return fmt.Sprintf("copy %d byte %d: destination %#02x, source was %#02x", ci, i, dv, sv)
				}
			}
		}
	}

	for ci, c := range f.Copies[:f.NCopies] {
		var regXor [x86.NumRegs]uint32
		memXor := map[uint32]byte{}
		diff := map[flowLoc]byte{} // required XOR against the unperturbed end
		free := map[flowLoc]bool{} // source bytes: either
		for i := uint8(0); i < f.N; i++ {
			src, dst := flowByteLoc(&f, c.Src, i, &st), flowByteLoc(&f, c.Dst, i, &st)
			x := byte(rng.Intn(255) + 1)
			if src.reg {
				if f.Sinks>>src.lane&1 != 0 {
					continue
				}
				regXor[src.lane/4] |= uint32(x) << (8 * (src.lane % 4))
			} else {
				if ri, _, ok := g.regionByte(src.addr); f.SinkMem&c.Src.Mem != 0 || !ok || ri == 0 {
					continue // a sink, unmapped, or the instruction's own bytes
				}
				memXor[src.addr] = x
			}
			free[src] = true
			if baseErr == nil {
				diff[dst] = x
			}
		}
		if len(free) == 0 {
			continue
		}
		err := g.runXor(st, regXor, memXor)
		m := g.m
		switch {
		case !reflect.DeepEqual(err, baseErr):
			return fmt.Sprintf("copy %d's source changed the end: %v, unperturbed %v", ci, err, baseErr)
		case m.EIP != base.EIP || m.Flags != base.Flags || m.Steps != base.Steps || m.TSC != base.TSC:
			return fmt.Sprintf("copy %d's source changed EIP/flags/counters", ci)
		}
		check := func(l flowLoc, got, want byte) string {
			x, isDst := diff[l]
			switch {
			case isDst && got != want^x:
				return fmt.Sprintf("copy %d destination %+v = %#02x, want the perturbed source %#02x", ci, l, got, want^x)
			case !isDst && got != want && !free[l]:
				return fmt.Sprintf("copy %d's source changed %+v: %#02x, unperturbed %#02x", ci, l, got, want)
			}
			return ""
		}
		for lane := uint8(0); lane < 4*x86.NumRegs; lane++ {
			if msg := check(flowLoc{reg: true, lane: lane}, laneByte(&m.Regs, lane), laneByte(&base.Regs, lane)); msg != "" {
				return msg
			}
		}
		for ri, reg := range m.Mem.Regions() {
			for off := range reg.Data {
				if msg := check(flowLoc{addr: reg.Base + uint32(off)}, reg.Data[off], g.base[ri][off]); msg != "" {
					return msg
				}
			}
		}
	}
	return ""
}

// flowSamples returns one encoding per distinct register shape in the
// decoder's reachable space whose flow RegFlow lists a copy in.
func flowSamples() [][]byte {
	var out [][]byte
	for _, enc := range useDefSamples() {
		var in x86.Inst
		if x86.DecodeInto(&in, enc) == nil {
			if f := x86.RegFlow(&in); f.NCopies > 0 {
				out = append(out, enc)
			}
		}
	}
	return out
}

// TestRegFlowOracle checks x86.RegFlow's copies against the interpreter
// switch for one encoding of every register shape RegFlow calls a copy,
// from random states, and for every copy the random byte streams of
// TestUopDifferentialRandom retire.
func TestRegFlowOracle(t *testing.T) {
	g := newUseDefRig()
	rng := rand.New(rand.NewSource(0xF10))
	samples := flowSamples()
	checks := 0
	for _, enc := range samples {
		for i := 0; i < 4; i++ {
			if msg := g.checkFlow(enc, randomUseDefState(rng), rng); msg != "" {
				t.Fatalf("% x: %s", enc, msg)
			}
			checks++
		}
	}
	useDefStreams(t, func(code []byte, st useDefState) {
		if msg := g.checkFlow(code, st, rng); msg != "" {
			t.Fatalf("stream % x: %s", code, msg)
		}
		checks++
	})
	if len(samples) == 0 {
		t.Fatal("no copy shapes")
	}
	t.Logf("%d copy encodings, %d checks", len(samples), checks)
}

// FuzzRegFlow is TestRegFlowOracle's check as a fuzz target: code is one
// instruction's bytes and seed draws the state and perturbations. The seed
// corpus is one encoding per (Op, Form) pair RegFlow calls a copy.
func FuzzRegFlow(f *testing.F) {
	type key struct {
		op   x86.Op
		form x86.Form
	}
	seen := map[key]bool{}
	for _, enc := range flowSamples() {
		var in x86.Inst
		if x86.DecodeInto(&in, enc) == nil {
			if k := (key{in.Op, in.Form}); !seen[k] {
				seen[k] = true
				f.Add(enc, int64(len(seen)))
			}
		}
	}
	g := newUseDefRig()
	f.Fuzz(func(t *testing.T, code []byte, seed int64) {
		if len(code) > x86.MaxInstLen {
			code = code[:x86.MaxInstLen]
		}
		rng := rand.New(rand.NewSource(seed))
		if msg := g.checkFlow(code, randomUseDefState(rng), rng); msg != "" {
			t.Fatalf("% x: %s", code, msg)
		}
	})
}
