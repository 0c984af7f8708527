package faultmodel

import (
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/x86"
)

// The built-in models. All of them but bitflip describe corruptions of the
// stock instruction encoding and ignore the scheme; the encoding-scheme
// emulation (paper §6.2) applies to the bitflip model's byte flips, where
// the scheme's re-encoding is the countermeasure under evaluation. Skip and
// register faults bypass the instruction bytes entirely, so no re-encoding
// can affect them — running them under the parity scheme measures exactly
// that.
func init() {
	Register(bitflip{})
	Register(doublebit{})
	Register(byteflip{})
	Register(instskip{})
	Register(cmpskip{})
	Register(regflip{})
}

// corrupted returns a copy of raw with mutate applied.
func corrupted(raw []byte, mutate func([]byte)) []byte {
	out := make([]byte, len(raw))
	copy(out, raw)
	mutate(out)
	return out
}

// bitflip is the paper's model: flip one bit of one instruction byte,
// through the scheme's re-encoding. Index order: byte-major, bit-minor.
type bitflip struct{}

func (bitflip) Name() string              { return "bitflip" }
func (bitflip) Count(t inject.Target) int { return t.Bits() }
func (bitflip) Mutation(t inject.Target, i int, scheme encoding.Scheme) Mutation {
	return inject.BitFlip(t, i/8, i%8, scheme).Mut
}

// pairs28 maps a pair index 0..27 to the 2-bit combination (lo, hi),
// lo < hi, in lexicographic order: (0,1), (0,2), ..., (6,7).
var pairs28 = func() [28][2]int {
	var p [28][2]int
	i := 0
	for lo := 0; lo < 8; lo++ {
		for hi := lo + 1; hi < 8; hi++ {
			p[i] = [2]int{lo, hi}
			i++
		}
	}
	return p
}()

// doublebit flips all 2-bit combinations within one byte — the adjacent
// corruption class single-bit studies (and single-parity defenses) miss:
// a distance-2 code detects every 1-bit error but not 2-bit ones.
type doublebit struct{}

func (doublebit) Name() string              { return "doublebit" }
func (doublebit) Count(t inject.Target) int { return len(t.Raw) * len(pairs28) }
func (doublebit) Mutation(t inject.Target, i int, _ encoding.Scheme) Mutation {
	b, pair := i/len(pairs28), i%len(pairs28)
	mask := byte(1<<pairs28[pair][0] | 1<<pairs28[pair][1])
	return Mutation{
		Kind:      inject.MutBytes,
		Bytes:     corrupted(t.Raw, func(out []byte) { out[b] ^= mask }),
		SpanStart: b,
		SpanEnd:   b + 1,
	}
}

// byteflip corrupts a whole byte at a time: variant 0 inverts it
// (XOR 0xFF), variant 1 zeroes it — the coarse corruption classes of
// real-world memory errors and botched writes.
type byteflip struct{}

func (byteflip) Name() string              { return "byteflip" }
func (byteflip) Count(t inject.Target) int { return len(t.Raw) * 2 }
func (byteflip) Mutation(t inject.Target, i int, _ encoding.Scheme) Mutation {
	b, variant := i/2, i%2
	mutate := func(out []byte) { out[b] ^= 0xFF }
	if variant == 1 {
		mutate = func(out []byte) { out[b] = 0 }
	}
	return Mutation{
		Kind:      inject.MutBytes,
		Bytes:     corrupted(t.Raw, mutate),
		SpanStart: b,
		SpanEnd:   b + 1,
	}
}

// instskip skips the target instruction once: EIP advances past it
// without executing it — the standard instruction-skip fault-attack
// model. The skip is transient (the instruction bytes stay pristine), so
// only the breakpointed execution is lost.
type instskip struct{}

func (instskip) Name() string            { return "instskip" }
func (instskip) Count(inject.Target) int { return 1 }
func (instskip) Mutation(t inject.Target, i int, _ encoding.Scheme) Mutation {
	return Mutation{
		Kind:      inject.MutSkip,
		SkipLen:   len(t.Raw),
		SpanStart: 0,
		SpanEnd:   len(t.Raw),
	}
}

// cmpskip inverts the outcome of a conditional branch: the Jcc condition
// code's low bit selects between a condition and its complement (JE/JNE,
// JL/JNL, ...), so flipping it turns every taken branch into a fall-
// through and vice versa — the test/compare-skip attack model. It applies
// to conditional branches only (Count is 0 elsewhere), and the inversion
// persists for the rest of the run, like the paper's byte corruptions.
type cmpskip struct{}

func (cmpskip) Name() string { return "cmpskip" }
func (cmpskip) Count(t inject.Target) int {
	if t.Inst.Op == x86.OpJcc {
		return 1
	}
	return 0
}
func (cmpskip) Mutation(t inject.Target, i int, _ encoding.Scheme) Mutation {
	// 2-byte jcc inverts opcode byte 0; 0x0F-escaped 6-byte jcc inverts
	// opcode byte 1.
	b := 0
	if t.Raw[0] == x86.TwoByteEscape {
		b = 1
	}
	return Mutation{
		Kind:      inject.MutBytes,
		Bytes:     corrupted(t.Raw, func(out []byte) { out[b] ^= 1 }),
		SpanStart: b,
		SpanEnd:   b + 1,
	}
}

// regflip transiently corrupts architectural state instead of the
// instruction stream: at the breakpoint, one bit of one general-purpose
// register is flipped, then execution continues on pristine code. Index
// order: register-major (EAX..EDI in x86 numbering), bit-minor.
type regflip struct{}

func (regflip) Name() string            { return "regflip" }
func (regflip) Count(inject.Target) int { return int(x86.NumRegs) * 32 }
func (regflip) Mutation(t inject.Target, i int, _ encoding.Scheme) Mutation {
	return Mutation{
		Kind:   inject.MutReg,
		Reg:    uint8(i / 32),
		RegXor: 1 << (i % 32),
	}
}
