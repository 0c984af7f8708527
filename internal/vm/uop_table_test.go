package vm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"faultsec/internal/x86"
)

// TestUopDispatchCompleteness brute-forces the decoder's reachable opcode
// space — every operand-size/REP prefix crossed with every one- and
// two-byte opcode and every ModRM byte (which selects the /digit group
// extensions) — and asserts that every (Op, Form) pair the decoder can
// emit binds to a real in-range dispatch-table handler. Pairs that bind to
// the UUD fallback must raise #UD identically through the micro-op path
// and the legacy switch, so adding an op to the decoder without a handler
// (or vice versa) fails here rather than diverging silently mid-campaign.
func TestUopDispatchCompleteness(t *testing.T) {
	for i := range uopTable {
		if uopTable[i] == nil {
			t.Fatalf("uopTable[%d] is nil; every handler index must dispatch", i)
		}
	}

	type key struct {
		op   x86.Op
		form x86.Form
	}
	seen := map[key][]byte{}
	sweepDecodable(func(enc []byte, in *x86.Inst) {
		k := key{in.Op, in.Form}
		if _, ok := seen[k]; !ok {
			seen[k] = append([]byte(nil), enc...)
		}
	})
	if len(seen) == 0 {
		t.Fatal("enumeration decoded nothing")
	}
	t.Logf("decoder emits %d distinct (Op, Form) pairs", len(seen))

	for k, enc := range seen {
		var in x86.Inst
		if err := x86.DecodeInto(&in, enc); err != nil {
			t.Fatalf("re-decode of saved encoding % x failed: %v", enc, err)
		}
		var u x86.Uop
		in.Bind(&u)
		if u.H == x86.UInvalid || u.H >= x86.NumUopHandlers {
			t.Errorf("(op=%v form=%v) binds out of range: H=%d", k.op, k.form, u.H)
			continue
		}
		if u.H == x86.UUD {
			checkUDParity(t, k.op, k.form, enc)
		}
	}
}

// sweepDecodable calls visit for every encoding in the decoder's reachable
// opcode space that decodes: every operand-size/REP prefix crossed with
// every one- and two-byte opcode and every ModRM byte, zero-padded to
// MaxInstLen. enc is reused between calls.
func sweepDecodable(visit func(enc []byte, in *x86.Inst)) {
	var buf [x86.MaxInstLen]byte
	var in x86.Inst
	try := func(enc ...byte) {
		n := copy(buf[:], enc)
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
		if x86.DecodeInto(&in, buf[:]) == nil {
			visit(buf[:], &in)
		}
	}
	prefixes := []byte{0x00, 0x66, 0xF3, 0xF2} // 0x00 = no prefix marker
	for _, p := range prefixes {
		for b1 := 0; b1 < 256; b1++ {
			for b2 := 0; b2 < 256; b2++ {
				if p == 0 {
					try(byte(b1), byte(b2))
				} else {
					try(p, byte(b1), byte(b2))
				}
				if b1 == 0x0F {
					// Two-byte opcodes: b2 is the opcode, so sweep the ModRM
					// byte too — 0F groups (e.g. the BT group) dispatch on
					// its reg field.
					for b3 := 0; b3 < 256; b3++ {
						if p == 0 {
							try(byte(b1), byte(b2), byte(b3))
						} else {
							try(p, byte(b1), byte(b2), byte(b3))
						}
					}
				}
			}
		}
	}
}

// checkUDParity executes one encoding on a uop machine and a NoICache
// machine (the interpreter switch) and requires both to raise the same #UD
// fault.
func checkUDParity(t *testing.T, op x86.Op, form x86.Form, enc []byte) {
	t.Helper()
	step := func(noICache bool) error {
		mem := NewMemory()
		if err := mem.Map(&Region{Name: "text", Base: 0x1000, Perm: PermRead | PermExec,
			Data: append([]byte(nil), enc...)}); err != nil {
			t.Fatal(err)
		}
		if err := mem.Map(&Region{Name: "stack", Base: 0x3000, Perm: PermRead | PermWrite,
			Data: make([]byte, 256)}); err != nil {
			t.Fatal(err)
		}
		m := New(mem, nopKernel{})
		m.NoICache = noICache
		m.EIP = 0x1000
		m.Regs[x86.ESP] = 0x3000 + 256
		return m.Step()
	}
	uopErr := step(false)
	switchErr := step(true)
	var f *Fault
	if !errors.As(uopErr, &f) || f.Kind != FaultUndefined {
		t.Errorf("(op=%v form=%v) % x: uop path returned %v, want #UD", op, form, enc, uopErr)
	}
	if !reflect.DeepEqual(uopErr, switchErr) {
		t.Errorf("(op=%v form=%v) % x: uop path %v, switch path %v", op, form, enc, uopErr, switchErr)
	}
}

type nopKernel struct{}

func (nopKernel) Syscall(m *Machine) error { return fmt.Errorf("unexpected syscall") }
