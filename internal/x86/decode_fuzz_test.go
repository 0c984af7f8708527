package x86

import (
	"reflect"
	"testing"
)

// FuzzDecodeInto feeds arbitrary bytes to the decoder. Properties:
//
//   - it never panics;
//   - DecodeInto agrees with Decode, into a zeroed or a dirty Inst alike;
//   - a decoded instruction is 1 to MaxInstLen bytes long, no longer than
//     the input, and decodes the same from exactly its own bytes.
//
// The seed corpus is one encoding per (Op, Form) pair the decoder emits:
// every operand-size/REP prefix crossed with every one- and two-byte
// opcode and every ModRM byte, zero-padded to MaxInstLen.
func FuzzDecodeInto(f *testing.F) {
	type key struct {
		op   Op
		form Form
	}
	seen := map[key]bool{}
	var buf [MaxInstLen]byte
	try := func(enc ...byte) {
		n := copy(buf[:], enc)
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
		in, err := Decode(buf[:])
		if k := (key{in.Op, in.Form}); err == nil && !seen[k] {
			seen[k] = true
			f.Add(append([]byte(nil), buf[:]...))
		}
	}
	for _, p := range []byte{0x00, 0x66, 0xF3, 0xF2} { // 0x00 = no prefix
		for b1 := 0; b1 < 256; b1++ {
			for b2 := 0; b2 < 256; b2++ {
				enc := []byte{p, byte(b1), byte(b2)}
				if p == 0 {
					enc = enc[1:]
				}
				try(enc...)
				if b1 == 0x0F {
					for b3 := 0; b3 < 256; b3++ {
						try(append(enc, byte(b3))...)
					}
				}
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x90})

	f.Fuzz(func(t *testing.T, code []byte) {
		want, wantErr := Decode(code)
		var in Inst
		err := DecodeInto(&in, code)
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("% x: DecodeInto error %v, Decode error %v", code, err, wantErr)
		}
		dirty := Inst{Op: OpXadd, Form: FormRegRMImm, W: 3, Reg: 9, Imm: -7, Rel: 5, Len: 14, Rep: 0xF3,
			RM: RM{IsReg: true, Reg: 6, Base: 2, Index: 3, Scale: 8, Disp: 99}}
		if errDirty := DecodeInto(&dirty, code); !reflect.DeepEqual(errDirty, wantErr) {
			t.Fatalf("% x: DecodeInto into a dirty Inst: error %v, Decode error %v", code, errDirty, wantErr)
		}
		if wantErr != nil {
			return
		}
		if in != want || dirty != want {
			t.Fatalf("% x: DecodeInto %+v (dirty %+v), Decode %+v", code, in, dirty, want)
		}
		if in.Len == 0 || in.Len > MaxInstLen || int(in.Len) > len(code) {
			t.Fatalf("% x: length %d outside [1, min(MaxInstLen, %d)]", code, in.Len, len(code))
		}
		if own, err := Decode(code[:in.Len]); err != nil || own != in {
			t.Fatalf("% x: its own %d bytes decode to %+v, %v; want %+v", code, in.Len, own, err, in)
		}
	})
}
