package faultmodel_test

import (
	"bytes"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/ftpd"
	"faultsec/internal/httpd"
	"faultsec/internal/inject"
	"faultsec/internal/sshd"
	"faultsec/internal/target"
	"faultsec/internal/x86"
)

// builtins is the registry contract: the models this repository ships.
var builtins = []string{"bitflip", "byteflip", "cmpskip", "doublebit", "instskip", "regflip"}

func ftpTargets(t *testing.T) []inject.Target {
	t.Helper()
	app, err := ftpd.Build()
	if err != nil {
		t.Fatalf("build ftpd: %v", err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

func TestRegistryResolution(t *testing.T) {
	if got := faultmodel.Names(); !reflect.DeepEqual(got, builtins) {
		t.Fatalf("Names() = %v, want %v (sorted)", got, builtins)
	}
	for _, name := range builtins {
		m, err := faultmodel.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, m.Name())
		}
	}
	// "" canonicalizes to the paper's model.
	m, err := faultmodel.Get("")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "bitflip" {
		t.Errorf(`Get("") resolved to %q, want bitflip`, m.Name())
	}
	if got := faultmodel.Canonical(""); got != "bitflip" {
		t.Errorf(`Canonical("") = %q`, got)
	}
	if got := faultmodel.Canonical("instskip"); got != "instskip" {
		t.Errorf(`Canonical("instskip") = %q`, got)
	}
	// Unknown names fail loudly and name the registered models.
	if _, err := faultmodel.Get("nosuch"); err == nil {
		t.Error(`Get("nosuch") succeeded`)
	} else if !strings.Contains(err.Error(), "bitflip") {
		t.Errorf("unknown-model error %q does not list registered models", err)
	}
}

// TestEnumerationIndexMeaning pins what a campaign-global index means, the
// invariant journals, fleet shards and the result cache rest on: for
// every registered model under x86 and parity, over the ftpd, sshd and
// httpd targets, Enumerate lists target-major, index-ascending
// experiments whose mutation is the registry's Mutation(t, i, scheme).
// Bitflip's index i must also be the paper's flip of byte i/8, bit i%8,
// through the scheme's re-encoding.
func TestEnumerationIndexMeaning(t *testing.T) {
	var targets []inject.Target
	for _, build := range []func() (*target.App, error){ftpd.Build, sshd.Build, httpd.Build} {
		app, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ts, err := inject.Targets(app)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, ts...)
	}
	for _, name := range faultmodel.Names() {
		m, err := faultmodel.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []encoding.Scheme{encoding.SchemeX86, encoding.SchemeParity} {
			exps := faultmodel.Enumerate(targets, scheme, m)
			if len(exps) != faultmodel.Total(targets, m) {
				t.Fatalf("%s/%s: %d experiments, Total %d", name, scheme.Name(), len(exps), faultmodel.Total(targets, m))
			}
			k := 0
			for _, tg := range targets {
				for i := 0; i < m.Count(tg); i++ {
					ex := exps[k]
					k++
					if ex.Target.Addr != tg.Addr || ex.Model != name || ex.ModelIdx != i {
						t.Fatalf("%s/%s exp %d: (%#x, %q, %d), want (%#x, %q, %d)", name, scheme.Name(), k-1,
							ex.Target.Addr, ex.Model, ex.ModelIdx, tg.Addr, name, i)
					}
					if want := m.Mutation(tg, i, scheme); !reflect.DeepEqual(ex.Mut, want) {
						t.Fatalf("%s/%s at %#x index %d: Mut %+v, registry Mutation %+v",
							name, scheme.Name(), tg.Addr, i, ex.Mut, want)
					}
					if name == "bitflip" {
						if want := encoding.Corrupt(tg.Raw, i/8, i%8, scheme); !bytes.Equal(ex.Mut.Bytes, want) {
							t.Fatalf("bitflip/%s at %#x index %d: bytes % x, encoding.Corrupt % x",
								scheme.Name(), tg.Addr, i, ex.Mut.Bytes, want)
						}
						if ex.Location() != classify.LocationOf(&tg.Inst, tg.Raw, i/8) {
							t.Fatalf("bitflip at %#x index %d: Location %v, want byte %d's", tg.Addr, i, ex.Location(), i/8)
						}
					}
				}
			}
		}
	}
}

// TestModelCountArithmetic pins each model's per-target experiment count
// against its definition, over the real FTP target set.
func TestModelCountArithmetic(t *testing.T) {
	targets := ftpTargets(t)
	jccs := 0
	for _, tg := range targets {
		if tg.Inst.Op == x86.OpJcc {
			jccs++
		}
	}
	if jccs == 0 {
		t.Fatal("FTP target set has no conditional branches; count checks would be vacuous")
	}
	for _, tc := range []struct {
		model string
		want  func(tg inject.Target) int
	}{
		{"bitflip", func(tg inject.Target) int { return tg.Bits() }},
		{"doublebit", func(tg inject.Target) int { return len(tg.Raw) * 28 }},
		{"byteflip", func(tg inject.Target) int { return len(tg.Raw) * 2 }},
		{"instskip", func(tg inject.Target) int { return 1 }},
		{"cmpskip", func(tg inject.Target) int {
			if tg.Inst.Op == x86.OpJcc {
				return 1
			}
			return 0
		}},
		{"regflip", func(tg inject.Target) int { return int(x86.NumRegs) * 32 }},
	} {
		m, err := faultmodel.Get(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, tg := range targets {
			n := m.Count(tg)
			if want := tc.want(tg); n != want {
				t.Errorf("%s: Count(%s@%#x) = %d, want %d", tc.model, tg.Func, tg.Addr, n, want)
			}
			total += n
		}
		if got := faultmodel.Total(targets, m); got != total {
			t.Errorf("%s: Total = %d, want %d", tc.model, got, total)
		}
		if got := len(faultmodel.Enumerate(targets, encoding.SchemeX86, m)); got != total {
			t.Errorf("%s: len(Enumerate) = %d, want %d", tc.model, got, total)
		}
	}
}

// TestMutationsDeterministicAndPure is the registry's core contract:
// Mutation(t, i, scheme) is a pure function — two calls agree value for
// value — and never mutates or aliases the target's pristine bytes.
func TestMutationsDeterministicAndPure(t *testing.T) {
	targets := ftpTargets(t)
	for _, name := range faultmodel.Names() {
		m, err := faultmodel.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range targets {
			pristine := append([]byte(nil), tg.Raw...)
			for i := 0; i < m.Count(tg); i++ {
				a, b := m.Mutation(tg, i, encoding.SchemeParity), m.Mutation(tg, i, encoding.SchemeParity)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: Mutation(%#x, %d) is not deterministic", name, tg.Addr, i)
				}
				if !reflect.DeepEqual(tg.Raw, pristine) {
					t.Fatalf("%s: Mutation(%#x, %d) mutated the target's Raw", name, tg.Addr, i)
				}
				if a.Kind == inject.MutBytes {
					if len(a.Bytes) != len(tg.Raw) {
						t.Fatalf("%s: Mutation(%#x, %d) replacement is %d bytes, want %d",
							name, tg.Addr, i, len(a.Bytes), len(tg.Raw))
					}
					if &a.Bytes[0] == &tg.Raw[0] {
						t.Fatalf("%s: Mutation(%#x, %d) aliases the target's Raw", name, tg.Addr, i)
					}
					if a.SpanStart < 0 || a.SpanStart >= a.SpanEnd || a.SpanEnd > len(tg.Raw) {
						t.Fatalf("%s: Mutation(%#x, %d) span [%d,%d) outside [0,%d)",
							name, tg.Addr, i, a.SpanStart, a.SpanEnd, len(tg.Raw))
					}
				}
			}
		}
	}
}

// TestDoublebitMasksDistinct: on an all-zero byte the 28 doublebit
// mutations read back as the applied masks — all distinct, all of
// Hamming weight exactly two (the class a distance-2 code cannot detect).
func TestDoublebitMasksDistinct(t *testing.T) {
	m, err := faultmodel.Get("doublebit")
	if err != nil {
		t.Fatal(err)
	}
	tg := inject.Target{Raw: []byte{0x00}}
	if n := m.Count(tg); n != 28 {
		t.Fatalf("Count(1-byte target) = %d, want 28", n)
	}
	seen := make(map[byte]bool)
	for i := 0; i < 28; i++ {
		mask := m.Mutation(tg, i, encoding.SchemeX86).Bytes[0]
		if bits.OnesCount8(mask) != 2 {
			t.Errorf("mutation %d: mask %#02x has weight %d, want 2", i, mask, bits.OnesCount8(mask))
		}
		if seen[mask] {
			t.Errorf("mutation %d: duplicate mask %#02x", i, mask)
		}
		seen[mask] = true
	}
}

// TestCmpskipInvertsConditionByte pins which byte carries the condition
// code: byte 0 for a 2-byte jcc, byte 1 behind the 0x0F escape for the
// 6-byte form — and that only the condition's low bit changes (JE<->JNE).
func TestCmpskipInvertsConditionByte(t *testing.T) {
	m, err := faultmodel.Get("cmpskip")
	if err != nil {
		t.Fatal(err)
	}
	jcc8 := inject.Target{Raw: []byte{0x74, 0x06}, Inst: x86.Inst{Op: x86.OpJcc}}
	jcc32 := inject.Target{Raw: []byte{0x0F, 0x84, 1, 0, 0, 0}, Inst: x86.Inst{Op: x86.OpJcc}}
	jmp := inject.Target{Raw: []byte{0xEB, 0x06}, Inst: x86.Inst{Op: x86.OpJmp}}

	if n := m.Count(jmp); n != 0 {
		t.Errorf("Count(unconditional jmp) = %d, want 0", n)
	}
	mut := m.Mutation(jcc8, 0, encoding.SchemeX86)
	if got := mut.Bytes; got[0] != 0x75 || got[1] != 0x06 {
		t.Errorf("2-byte jcc inversion = %#02x %#02x, want 0x75 0x06", got[0], got[1])
	}
	if mut.SpanStart != 0 || mut.SpanEnd != 1 {
		t.Errorf("2-byte jcc span = [%d,%d), want [0,1)", mut.SpanStart, mut.SpanEnd)
	}
	mut = m.Mutation(jcc32, 0, encoding.SchemeX86)
	if got := mut.Bytes; got[0] != 0x0F || got[1] != 0x85 {
		t.Errorf("6-byte jcc inversion = %#02x %#02x, want 0x0F 0x85", got[0], got[1])
	}
	if mut.SpanStart != 1 || mut.SpanEnd != 2 {
		t.Errorf("6-byte jcc span = [%d,%d), want [1,2)", mut.SpanStart, mut.SpanEnd)
	}
}

// TestInstskipCoversWholeInstruction: the skip advances EIP by exactly
// the instruction length and is attributed to the whole encoding.
func TestInstskipCoversWholeInstruction(t *testing.T) {
	m, err := faultmodel.Get("instskip")
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range ftpTargets(t) {
		mut := m.Mutation(tg, 0, encoding.SchemeX86)
		if mut.Kind != inject.MutSkip || mut.SkipLen != len(tg.Raw) {
			t.Fatalf("instskip at %#x: kind=%v skip=%d, want MutSkip over %d bytes",
				tg.Addr, mut.Kind, mut.SkipLen, len(tg.Raw))
		}
		if mut.SpanStart != 0 || mut.SpanEnd != len(tg.Raw) {
			t.Fatalf("instskip at %#x: span [%d,%d), want [0,%d)",
				tg.Addr, mut.SpanStart, mut.SpanEnd, len(tg.Raw))
		}
	}
}

// TestExperimentAttribution checks the Experiment methods every consumer
// (classifier, report, §5.4 demos) relies on, for each model's enumerated
// experiments: Location() matches the span/byte attribution rules,
// CorruptedBytes() is the executed encoding (pristine for transient
// faults, never aliased), and Mutation() round-trips.
func TestExperimentAttribution(t *testing.T) {
	targets := ftpTargets(t)
	for _, name := range faultmodel.Names() {
		m, err := faultmodel.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range faultmodel.Enumerate(targets, encoding.SchemeX86, m) {
			if ex.Model != name {
				t.Fatalf("%s: Model = %q", name, ex.Model)
			}
			mut := ex.Mutation()
			corrupted := ex.CorruptedBytes()
			switch mut.Kind {
			case inject.MutBytes:
				if !reflect.DeepEqual(corrupted, mut.Bytes) {
					t.Fatalf("%s@%#x: CorruptedBytes != Mutation().Bytes", name, ex.Target.Addr)
				}
				want := classify.LocationOfSpan(&ex.Target.Inst, ex.Target.Raw, mut.SpanStart, mut.SpanEnd)
				if got := ex.Location(); got != want {
					t.Fatalf("%s@%#x span [%d,%d): Location() = %v, want %v",
						name, ex.Target.Addr, mut.SpanStart, mut.SpanEnd, got, want)
				}
			case inject.MutSkip:
				if !reflect.DeepEqual(corrupted, ex.Target.Raw) {
					t.Fatalf("%s@%#x: transient skip reports corrupted bytes", name, ex.Target.Addr)
				}
				if &corrupted[0] == &ex.Target.Raw[0] {
					t.Fatalf("%s@%#x: CorruptedBytes aliases Target.Raw", name, ex.Target.Addr)
				}
			case inject.MutReg:
				if !reflect.DeepEqual(corrupted, ex.Target.Raw) {
					t.Fatalf("%s@%#x: register fault reports corrupted bytes", name, ex.Target.Addr)
				}
				if got := ex.Location(); got != classify.LocMISC {
					t.Fatalf("%s@%#x: register-fault Location() = %v, want MISC", name, ex.Target.Addr, got)
				}
			}
		}
	}
}
