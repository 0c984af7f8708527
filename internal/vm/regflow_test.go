package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"faultsec/internal/x86"
)

// The flow oracle: x86.RegFlow against the interpreter switch (exec.go).
// For one instruction and one machine state it steps a NoICache machine
// once as is and once per perturbation, and checks the whole Flow.
//
// Copies. When the step retires, every destination byte equals its source
// byte before the step. With a copy's source bytes XORed by random nonzero
// bytes, the fault, EIP, flags, counters and every register lane and
// memory byte come out as unperturbed, except the copy's destination
// bytes, which carry the perturbation, and the source bytes themselves,
// which keep it or are overwritten. A source byte the Flow also lists as a
// sink (a pushed ESP, a stored address register) is not perturbed: a sink
// may change anything.
//
// Register lanes, status flags and DF, and the r/m and stack operand
// bytes. A location is read when the computed part reads it, it is a sink
// or it is a copy source; it is written when the computed part writes it
// or it is a copy destination. Then:
//
//   - a location that is not read, when perturbed, changes nothing but
//     itself: not the fault, EIP, the counters, a flag, a lane or a byte;
//   - a location that is not written keeps its value;
//   - a location the computed part writes that is neither read nor a copy
//     destination comes out independent of its input when the step
//     retires.
//
// A register's unread lanes are perturbed together, each flag and each
// memory operand's unread bytes on their own. Memory outside the written
// operands keeps its value too, except at int 0x80, whose stand-in kernel
// stores EAX-EDX in the data region.
//
// The properties come in two parts: the register lanes (the use/def
// oracle, TestRegUseDefOracle and FuzzRegUseDef) and the rest of the Flow,
// copies, flags and DF, and memory (TestRegFlowOracle and FuzzRegFlow).

// Oracle machine layout: the instruction at flowText, one data and one
// stack region.
const (
	flowText  = 0x1000
	flowData  = 0x2000
	flowStack = 0x3000
	flowSize  = 1024
)

// flowFlags are the status flags and DF the oracle draws and perturbs.
const flowFlags = x86.FlagCF | x86.FlagPF | x86.FlagAF | x86.FlagZF |
	x86.FlagSF | x86.FlagDF | x86.FlagOF

// argKernel stands in for the kernel at int 0x80. Like the kernel it reads
// only EAX-EDX: it stores them at the start of the data region. Unlike the
// kernel it returns nothing in EAX, matching RegFlow, which counts no
// register write for a syscall.
type argKernel struct{}

func (argKernel) Syscall(m *Machine) error {
	for r := uint8(x86.EAX); r <= x86.EBX; r++ {
		if f := m.Mem.Write32(flowData+4*uint32(r), m.Regs[r]); f != nil {
			return f
		}
	}
	return nil
}

// flowState is a machine state the oracle starts an instruction from.
type flowState struct {
	regs  [x86.NumRegs]uint32
	flags uint32
}

// randomFlowState draws registers that are mostly pointers into the data
// and stack regions, so memory operands sometimes hit mapped bytes, and
// random status and direction flags.
func randomFlowState(rng *rand.Rand) flowState {
	var st flowState
	for i := range st.regs {
		switch rng.Intn(4) {
		case 0:
			st.regs[i] = flowData + uint32(rng.Intn(flowSize))
		case 1:
			st.regs[i] = flowStack + uint32(rng.Intn(flowSize))
		case 2:
			st.regs[i] = uint32(rng.Intn(64))
		default:
			st.regs[i] = rng.Uint32()
		}
	}
	st.regs[x86.ESP] = flowStack + flowSize/2 + 4*uint32(rng.Intn(flowSize/16))
	st.flags = rng.Uint32() & flowFlags
	return st
}

// flowPart selects the properties check tests.
type flowPart uint8

const (
	// partLanes: register lanes outside the writes keep their value, and a
	// register's lanes outside the reads change nothing but themselves.
	partLanes flowPart = iota
	// partRest: the copies, and the same for flags and memory bytes.
	partRest
)

// flowMask draws a register perturbation that changes every byte.
func flowMask(rng *rand.Rand) uint32 { return rng.Uint32() | 0x01010101 }

// Location kinds.
const (
	locLane = iota
	locFlag
	locMem
)

// flowLoc is one location: a register lane, a flag or a memory byte.
type flowLoc struct {
	kind uint8
	// n is the lane (4·r+i), the flag's bit or the byte's address.
	n uint32
}

func (l flowLoc) String() string {
	switch l.kind {
	case locLane:
		return fmt.Sprintf("%s byte %d", x86.RegName(uint8(l.n/4), 4), l.n%4)
	case locFlag:
		return fmt.Sprintf("flag %#x", l.n)
	}
	return fmt.Sprintf("memory %#x", l.n)
}

// flowSet is a set of locations.
type flowSet struct {
	lanes x86.Lanes
	flags uint32
	mem   map[uint32]bool
}

func (s *flowSet) add(l flowLoc) {
	switch l.kind {
	case locLane:
		s.lanes |= 1 << l.n
	case locFlag:
		s.flags |= l.n
	default:
		if s.mem == nil {
			s.mem = map[uint32]bool{}
		}
		s.mem[l.n] = true
	}
}

func (s *flowSet) has(l flowLoc) bool {
	switch l.kind {
	case locLane:
		return s.lanes>>l.n&1 != 0
	case locFlag:
		return s.flags&l.n != 0
	}
	return s.mem[l.n]
}

// flowDelta is a set of XORs over register lanes, flags and memory bytes.
type flowDelta struct {
	regs  [x86.NumRegs]uint32
	flags uint32
	mem   map[uint32]byte
}

func (d *flowDelta) add(l flowLoc, x byte) {
	switch l.kind {
	case locLane:
		d.regs[l.n/4] ^= uint32(x) << (8 * (l.n % 4))
	case locFlag:
		d.flags ^= l.n
	default:
		if d.mem == nil {
			d.mem = map[uint32]byte{}
		}
		d.mem[l.n] ^= x
	}
}

// flowEnd is a step's architectural end state apart from memory.
type flowEnd struct {
	Regs       [x86.NumRegs]uint32
	EIP, Flags uint32
	Steps, TSC uint64
}

// flowRig is one reusable oracle machine; run resets it from the region
// templates before every step.
type flowRig struct {
	m    *Machine
	tmpl [][]byte
	// base and baseEnd hold the unperturbed run's region bytes and end
	// state, baseErr its error.
	base    [][]byte
	baseEnd flowEnd
	baseErr error
	// want is scratch for a perturbed run's expected region bytes.
	want [][]byte
	// checked counts the Flows check tested, copied those with copies.
	checked, copied int
}

func newFlowRig() *flowRig {
	g := &flowRig{m: New(NewMemory(), argKernel{})}
	g.m.NoICache = true
	data := make([]byte, flowSize)
	for i := range data {
		data[i] = byte(i*7 + i>>3)
	}
	for _, r := range []*Region{
		{Name: "text", Base: flowText, Perm: PermRead | PermExec, Data: make([]byte, x86.MaxInstLen)},
		{Name: "data", Base: flowData, Perm: PermRead | PermWrite, Data: append([]byte(nil), data...)},
		{Name: "stack", Base: flowStack, Perm: PermRead | PermWrite, Data: append([]byte(nil), data...)},
	} {
		if err := g.m.Mem.Map(r); err != nil {
			panic(err)
		}
		g.tmpl = append(g.tmpl, append([]byte(nil), r.Data...))
		g.base = append(g.base, make([]byte, len(r.Data)))
		g.want = append(g.want, make([]byte, len(r.Data)))
	}
	return g
}

// regionByte returns the region index and offset of addr, or ok false when
// it is unmapped.
func (g *flowRig) regionByte(addr uint32) (ri int, off uint32, ok bool) {
	for i, r := range g.m.Mem.Regions() {
		if o := addr - r.Base; o < uint32(len(r.Data)) {
			return i, o, true
		}
	}
	return 0, 0, false
}

// run steps the instruction once from st with d XORed in, and returns the
// step's error.
func (g *flowRig) run(st flowState, d *flowDelta) error {
	for i, reg := range g.m.Mem.Regions() {
		copy(reg.Data, g.tmpl[i])
	}
	for addr, x := range d.mem {
		ri, off, _ := g.regionByte(addr)
		g.m.Mem.Regions()[ri].Data[off] ^= x
	}
	for r := range st.regs {
		st.regs[r] ^= d.regs[r]
	}
	g.m.Regs, g.m.Flags, g.m.EIP, g.m.Steps, g.m.TSC = st.regs, st.flags^d.flags, flowText, 0, 0
	return g.m.Step()
}

// perturbed steps the instruction from st with in XORed in and requires
// the fault, EIP and counters of the unperturbed run, and its flags, lanes
// and memory with out XORed in, except at the locations in free that out
// does not name. It returns the first difference, or "".
func (g *flowRig) perturbed(st flowState, in, out *flowDelta, free *flowSet) string {
	err := g.run(st, in)
	m, base := g.m, &g.baseEnd
	switch {
	case !reflect.DeepEqual(err, g.baseErr):
		return fmt.Sprintf("changed the end: %v, unperturbed %v", err, g.baseErr)
	case m.EIP != base.EIP || m.Steps != base.Steps || m.TSC != base.TSC:
		return "changed EIP/counters"
	}
	if d := (m.Flags ^ base.Flags ^ out.flags) &^ (free.flags &^ out.flags); d != 0 {
		return fmt.Sprintf("flags %#x came out %#x, want %#x", d, m.Flags&d, (base.Flags^out.flags)&d)
	}
	for lane := uint32(0); lane < 4*x86.NumRegs; lane++ {
		got, want := laneByte(&m.Regs, lane), laneByte(&base.Regs, lane)^laneByte(&out.regs, lane)
		if got != want && (!free.has(flowLoc{locLane, lane}) || laneByte(&out.regs, lane) != 0) {
			return fmt.Sprintf("%v came out %#02x, want %#02x", flowLoc{locLane, lane}, got, want)
		}
	}
	regions := m.Mem.Regions()
	for i := range regions {
		copy(g.want[i], g.base[i])
	}
	for addr := range free.mem {
		if ri, off, ok := g.regionByte(addr); ok {
			g.want[ri][off] = regions[ri].Data[off]
		}
	}
	for addr, x := range out.mem {
		if ri, off, ok := g.regionByte(addr); ok {
			g.want[ri][off] = g.base[ri][off] ^ x
		}
	}
	for i, reg := range regions {
		if !bytes.Equal(reg.Data, g.want[i]) {
			off := 0
			for reg.Data[off] == g.want[i][off] {
				off++
			}
			return fmt.Sprintf("%v came out %#02x, want %#02x", flowLoc{locMem, reg.Base + uint32(off)},
				reg.Data[off], g.want[i][off])
		}
	}
	return ""
}

func laneByte(regs *[x86.NumRegs]uint32, lane uint32) byte {
	return byte(regs[lane/4] >> (8 * (lane % 4)))
}

// flowByteLoc returns byte i of operand op under flow f from state st.
func flowByteLoc(f *x86.Flow, op x86.Operand, i uint8, st *flowState) flowLoc {
	switch op.Mem {
	case x86.MemRM:
		return flowLoc{locMem, x86.EffAddr(&f.Addr, &st.regs) + uint32(i)}
	case x86.MemStack:
		return flowLoc{locMem, f.StackAddr(&st.regs) + uint32(i)}
	}
	return flowLoc{locLane, uint32(op.Lane + i)}
}

// operandWidth returns the byte count of f's memory operand op, 0 when f
// has none.
func operandWidth(f *x86.Flow, op uint8) uint8 {
	switch {
	case op == x86.MemRM:
		return f.MemW
	case f.HasStack:
		return 4
	}
	return 0
}

// check runs the oracle's properties of part for code (one instruction, at
// most MaxInstLen bytes) from st, drawing perturbations from rng. It
// returns the first violated property, or "" when code does not decode,
// its Flow is opaque, or every property holds.
//
//nolint:gocyclo // one block per property
func (g *flowRig) check(code []byte, st flowState, rng *rand.Rand, part flowPart) string {
	var in x86.Inst
	if x86.DecodeInto(&in, code) != nil {
		return ""
	}
	f := x86.RegFlow(&in)
	if f.Opaque {
		return ""
	}
	g.checked++
	if f.NCopies != 0 {
		g.copied++
	}
	copy(g.tmpl[0], code)
	for i := len(code); i < len(g.tmpl[0]); i++ {
		g.tmpl[0][i] = 0
	}

	g.baseErr = g.run(st, &flowDelta{})
	g.baseEnd = flowEnd{g.m.Regs, g.m.EIP, g.m.Flags, g.m.Steps, g.m.TSC}
	for i, reg := range g.m.Mem.Regions() {
		copy(g.base[i], reg.Data)
	}
	base := &g.baseEnd

	// The locations f reads and writes from st, and its copy destinations.
	rd := flowSet{lanes: f.Reads | f.Sinks, flags: f.FlagReads | f.SinkFlags}
	wr := flowSet{lanes: f.Writes, flags: f.FlagWrites}
	var dst flowSet
	for _, op := range [...]uint8{x86.MemRM, x86.MemStack} {
		for i := uint8(0); i < operandWidth(&f, op); i++ {
			l := flowByteLoc(&f, x86.Operand{Mem: op}, i, &st)
			if (f.MemReads|f.SinkMem)&op != 0 {
				rd.add(l)
			}
			if f.MemWrites&op != 0 {
				wr.add(l)
			}
		}
	}
	for _, c := range f.Copies[:f.NCopies] {
		for i := uint8(0); i < f.N; i++ {
			rd.add(flowByteLoc(&f, c.Src, i, &st))
			l := flowByteLoc(&f, c.Dst, i, &st)
			wr.add(l)
			dst.add(l)
		}
	}

	// A perturbation of l by x comes out carried by l when l is not
	// written; l is free when it is a copy destination or the step does not
	// retire; otherwise l is overwritten independently of its input.
	expect := func(out *flowDelta, free *flowSet, l flowLoc, x byte) {
		switch {
		case !wr.has(l):
			out.add(l, x)
		case dst.has(l) || g.baseErr != nil:
			free.add(l)
		}
	}

	// Register lanes: a lane that is not written keeps its value, and each
	// register's lanes that are not read change nothing but themselves.
	if part == partLanes {
		for lane := uint32(0); lane < 4*x86.NumRegs; lane++ {
			if l := (flowLoc{locLane, lane}); !wr.has(l) && laneByte(&base.Regs, lane) != laneByte(&st.regs, lane) {
				return fmt.Sprintf("%v outside the writes changed: %#02x -> %#02x", l, laneByte(&st.regs, lane), laneByte(&base.Regs, lane))
			}
		}
		mask := flowMask(rng)
		for r := uint32(0); r < x86.NumRegs; r++ {
			var pin, pout flowDelta
			var free flowSet
			for lane := 4 * r; lane < 4*r+4; lane++ {
				if l := (flowLoc{locLane, lane}); !rd.has(l) {
					x := byte(mask >> (8 * (lane % 4)))
					pin.add(l, x)
					expect(&pout, &free, l, x)
				}
			}
			if pin.regs[r] == 0 {
				continue
			}
			if msg := g.perturbed(st, &pin, &pout, &free); msg != "" {
				return fmt.Sprintf("%s lanes %#x outside the reads: %s", x86.RegName(uint8(r), 4), pin.regs[r], msg)
			}
		}
		return ""
	}

	// A flag or memory byte that is not written keeps its value.
	if d := (base.Flags ^ st.flags) &^ wr.flags; d != 0 {
		return fmt.Sprintf("flags %#x outside the writes %#x changed", d, wr.flags)
	}
	if in.Op != x86.OpIntN || in.Imm != 0x80 {
		for ri, reg := range g.m.Mem.Regions() {
			for off := range reg.Data {
				if l := (flowLoc{locMem, reg.Base + uint32(off)}); g.base[ri][off] != g.tmpl[ri][off] && !wr.has(l) {
					return fmt.Sprintf("%v outside the writes changed", l)
				}
			}
		}
	}

	// Copies move their source bytes.
	if g.baseErr == nil {
		for ci, c := range f.Copies[:f.NCopies] {
			for i := uint8(0); i < f.N; i++ {
				src, d := flowByteLoc(&f, c.Src, i, &st), flowByteLoc(&f, c.Dst, i, &st)
				var sv, dv byte
				if src.kind == locLane {
					sv = laneByte(&st.regs, src.n)
				} else if ri, off, ok := g.regionByte(src.n); ok {
					sv = g.tmpl[ri][off]
				} else {
					return fmt.Sprintf("copy %d reads unmapped %#x and retires", ci, src.n)
				}
				if d.kind == locLane {
					dv = laneByte(&base.Regs, d.n)
				} else if ri, off, ok := g.regionByte(d.n); ok {
					dv = g.base[ri][off]
				} else {
					return fmt.Sprintf("copy %d writes unmapped %#x and retires", ci, d.n)
				}
				if sv != dv {
					return fmt.Sprintf("copy %d byte %d: destination %#02x, source was %#02x", ci, i, dv, sv)
				}
			}
		}
	}
	for ci, c := range f.Copies[:f.NCopies] {
		var pin, pout flowDelta
		var free flowSet
		n := 0
		for i := uint8(0); i < f.N; i++ {
			src, d := flowByteLoc(&f, c.Src, i, &st), flowByteLoc(&f, c.Dst, i, &st)
			if src.kind == locLane && f.Sinks>>src.n&1 != 0 {
				continue
			}
			if ri, _, ok := g.regionByte(src.n); src.kind == locMem && (f.SinkMem&c.Src.Mem != 0 || !ok || ri == 0) {
				continue // a sink, unmapped, or the instruction's own bytes
			}
			x := byte(rng.Intn(255) + 1)
			pin.add(src, x)
			free.add(src)
			n++
			if g.baseErr == nil {
				pout.add(d, x)
			}
		}
		if n == 0 {
			continue
		}
		if msg := g.perturbed(st, &pin, &pout, &free); msg != "" {
			return fmt.Sprintf("copy %d's source: %s", ci, msg)
		}
	}

	// Locations that are not read: each flag and each memory operand's
	// bytes.
	for bit := uint32(1); bit <= flowFlags; bit <<= 1 {
		l := flowLoc{locFlag, bit}
		if flowFlags&bit == 0 || rd.has(l) {
			continue
		}
		var pin, pout flowDelta
		var free flowSet
		pin.add(l, 1)
		expect(&pout, &free, l, 1)
		if msg := g.perturbed(st, &pin, &pout, &free); msg != "" {
			return fmt.Sprintf("flag %#x outside the reads: %s", bit, msg)
		}
	}
	for _, op := range [...]uint8{x86.MemRM, x86.MemStack} {
		var pin, pout flowDelta
		var free flowSet
		for i := uint8(0); i < operandWidth(&f, op); i++ {
			l := flowByteLoc(&f, x86.Operand{Mem: op}, i, &st)
			if ri, _, ok := g.regionByte(l.n); !ok || ri == 0 || rd.has(l) {
				continue // unmapped, the instruction's own bytes, or read
			}
			x := byte(rng.Intn(255) + 1)
			pin.add(l, x)
			expect(&pout, &free, l, x)
		}
		if len(pin.mem) == 0 {
			continue
		}
		if msg := g.perturbed(st, &pin, &pout, &free); msg != "" {
			return fmt.Sprintf("memory operand %d outside the reads: %s", op, msg)
		}
	}
	return ""
}

// flowSamples returns one encoding per distinct register shape in the
// decoder's reachable space — operation, form, width, REP prefix, register
// field and r/m operand — so every register an instruction can name is
// exercised for every decodable (Op, Form) pair.
func flowSamples() [][]byte {
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

// flowStreams replays TestUopDifferentialRandom's byte streams on a
// NoICache machine and calls visit with the bytes and state before each
// retirement.
func flowStreams(t *testing.T, visit func(code []byte, st flowState)) {
	randomStreams(func(code []byte, regs [x86.NumRegs]uint32) {
		m := diffMachine(t, code, true, regs)
		for i := 0; i < 300; i++ {
			enc, f := m.Mem.Fetch(m.EIP, x86.MaxInstLen)
			if f != nil {
				return
			}
			visit(enc, flowState{regs: m.Regs, flags: m.Flags})
			if m.Step() != nil {
				return
			}
		}
	})
}

// flowOracle checks part of x86.RegFlow against the interpreter switch
// for one encoding of every register shape of every decodable (Op, Form)
// pair, each from the given number of random states drawn from seed, and
// for every instruction the random byte streams of
// TestUopDifferentialRandom retire.
// It fails when no Flow was tested, or for partRest none with copies.
func flowOracle(t *testing.T, part flowPart, seed int64, states int) {
	g := newFlowRig()
	rng := rand.New(rand.NewSource(seed))
	samples := flowSamples()
	for _, enc := range samples {
		for i := 0; i < states; i++ {
			if msg := g.check(enc, randomFlowState(rng), rng, part); msg != "" {
				t.Fatalf("% x: %s", enc, msg)
			}
		}
	}
	flowStreams(t, func(code []byte, st flowState) {
		if msg := g.check(code, st, rng, part); msg != "" {
			t.Fatalf("stream % x: %s", code, msg)
		}
	})
	switch {
	case g.checked == 0:
		t.Fatal("no Flow tested: every shape opaque or undecodable")
	case part == partRest && g.copied == 0:
		t.Fatal("no Flow with copies tested")
	}
	t.Logf("%d encodings, %d Flows tested, %d with copies", len(samples), g.checked, g.copied)
}

// TestRegUseDefOracle checks RegFlow's register lanes: its reads and
// writes as a use/def table.
func TestRegUseDefOracle(t *testing.T) { flowOracle(t, partLanes, 0x11FE, 3) }

// TestRegFlowOracle checks the rest of RegFlow: its copies, and its flag
// and memory reads and writes.
func TestRegFlowOracle(t *testing.T) { flowOracle(t, partRest, 0xF10, 4) }

// fuzzFlow is flowOracle's check of part as a fuzz target: code is one
// instruction's bytes and seed draws the state and perturbations. The seed
// corpus is one encoding per decodable (Op, Form) pair.
func fuzzFlow(f *testing.F, part flowPart) {
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
	g := newFlowRig()
	f.Fuzz(func(t *testing.T, code []byte, seed int64) {
		if len(code) > x86.MaxInstLen {
			code = code[:x86.MaxInstLen]
		}
		rng := rand.New(rand.NewSource(seed))
		if msg := g.check(code, randomFlowState(rng), rng, part); msg != "" {
			t.Fatalf("% x: %s", code, msg)
		}
	})
}

// FuzzRegUseDef fuzzes TestRegUseDefOracle's check.
func FuzzRegUseDef(f *testing.F) { fuzzFlow(f, partLanes) }

// FuzzRegFlow fuzzes TestRegFlowOracle's check.
func FuzzRegFlow(f *testing.F) { fuzzFlow(f, partRest) }
