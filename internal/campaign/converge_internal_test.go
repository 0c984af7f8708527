package campaign

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/kernel"
	"faultsec/internal/target"
	"faultsec/internal/x86"
)

// TestShadowMustReproduceGolden checks the golden shadow's self-check: a
// replay that does not end exactly like the golden run is a determinism
// violation, never a source of synthesized results.
func TestShadowMustReproduceGolden(t *testing.T) {
	app, err := target.Build("ftpd")
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := app.Scenario("Client1")
	e := New(Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86})
	exps, err := e.enumerate()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := inject.GoldenRun(app, sc, e.cfg.effectiveFuel())
	if err != nil {
		t.Fatal(err)
	}
	groups := groupByTarget(exps, nil)
	text := inject.SweepText(app, false)

	sh, err := e.goldenShadow(golden, text, groups)
	if err != nil {
		t.Fatalf("true golden: %v", err)
	}
	if len(sh.cps) == 0 {
		t.Fatal("shadow recorded no checkpoints")
	}
	for _, g := range groups[:1] {
		if sh.targets[g.addr].last == 0 {
			t.Errorf("target %#x: no last retirement recorded", g.addr)
		}
	}
	for i, forge := range []func(g *classify.Golden){
		func(g *classify.Golden) { g.Steps++ },
		func(g *classify.Golden) { g.ExitCode++ },
		func(g *classify.Golden) { g.Granted = !g.Granted },
		func(g *classify.Golden) { g.ServerBytes = g.ServerBytes[:len(g.ServerBytes)-1] },
	} {
		forged := *golden
		forge(&forged)
		_, err := e.goldenShadow(&forged, text, groups)
		if !errors.Is(err, errShadowDiverged) || !strings.Contains(err.Error(), "determinism violation") {
			t.Errorf("forged golden %d: err = %v, want a determinism violation", i, err)
		}
	}
}

// TestShadowLivenessQueries checks the shadow's per-target facts on ftpd
// Client1. Every campaign records one per target, whose first retirement
// is the step the target activates at; an activation at another step
// reports a determinism violation. A bitflip campaign logs no flow, so it
// finds no register lane dead and keeps no live set at its checkpoints; a
// regflip campaign finds every lane of ESI and EDI dead at every activated
// target, since no ftpd instruction names them, and keeps a live set at
// every checkpoint.
func TestShadowLivenessQueries(t *testing.T) {
	app, err := target.Build("ftpd")
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := app.Scenario("Client1")
	for _, model := range []string{"bitflip", "regflip"} {
		e := New(Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: model})
		exps, err := e.enumerate()
		if err != nil {
			t.Fatal(err)
		}
		fuel := e.cfg.effectiveFuel()
		golden, err := inject.GoldenRun(app, sc, fuel)
		if err != nil {
			t.Fatal(err)
		}
		groups := groupByTarget(exps, nil)
		r, err := e.newRecord(golden, exps, groups)
		if err != nil {
			t.Fatal(err)
		}
		sh := r.sh
		if len(sh.targets) != len(groups) {
			t.Fatalf("%s: %d target facts for %d targets", model, len(sh.targets), len(groups))
		}
		if model == "bitflip" {
			for addr, f := range sh.targets {
				if f.dead != 0 {
					t.Errorf("bitflip campaign logged flow: target %#x has dead lanes %08x", addr, f.dead)
				}
			}
		}
		for i, cp := range sh.cps {
			if (cp.live != nil) != (model == "regflip") {
				t.Errorf("%s: checkpoint %d has live set %v", model, i, cp.live != nil)
			}
		}
		opened := 0
		for _, g := range groups {
			s, err := inject.Activate(app, sc, g.addr, fuel, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sh.targets[g.addr].last == 0 {
				// Never reached: the engine synthesizes NA without asking.
				if s.ActivationSteps != 0 {
					t.Errorf("%s: target %#x activates at step %d but the shadow never retired it", model, g.addr, s.ActivationSteps)
				}
				continue
			}
			opened++
			dead, err := sh.dead(g.addr, s.ActivationSteps)
			if err != nil {
				t.Fatalf("%s: target %#x: %v", model, g.addr, err)
			}
			if want := x86.RegLanes(x86.ESI, 4) | x86.RegLanes(x86.EDI, 4); model == "regflip" && dead&want != want {
				t.Errorf("target %#x: dead lanes %08x, want ESI's and EDI's among them", g.addr, dead)
			}
			if _, err := sh.dead(g.addr, s.ActivationSteps+1); !errors.Is(err, errShadowDiverged) ||
				!strings.Contains(err.Error(), "determinism violation") {
				t.Errorf("%s: target %#x: activation one step later: err = %v, want a determinism violation", model, g.addr, err)
			}
		}
		if opened == 0 {
			t.Errorf("%s: the shadow retired no target", model)
		}
	}
}

// TestShadowCheckpointSchedule checks the golden shadow's one checkpoint
// list on ftpd, sshd and httpd Client1 against a second replay of the
// session, single-stepped on its own: the checkpoints ascend strictly by
// step; each is that replay's machine and kernel state at its step; there
// is one at every int 0x80 boundary (syscalls of them, pinned), and in a
// bitflip campaign one at the first boundary at or past each denseK-th
// step from the first target retirement on, a boundary both rules pick
// counted once; in a regflip campaign exactly the int 0x80 ones hold a
// live set. Only the regflip campaign's record holds flows.
func TestShadowCheckpointSchedule(t *testing.T) {
	for _, c := range []struct {
		app      string
		syscalls int
	}{{"ftpd", 14}, {"sshd", 20}, {"httpd", 71}} {
		for _, model := range []string{"bitflip", "regflip"} {
			t.Run(model+"/"+c.app, func(t *testing.T) {
				app, err := target.Build(c.app)
				if err != nil {
					t.Fatal(err)
				}
				sc, _ := app.Scenario("Client1")
				e := New(Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: model})
				exps, err := e.enumerate()
				if err != nil {
					t.Fatal(err)
				}
				fuel := e.cfg.effectiveFuel()
				golden, err := inject.GoldenRun(app, sc, fuel)
				if err != nil {
					t.Fatal(err)
				}
				groups := groupByTarget(exps, nil)
				r, err := e.newRecord(golden, exps, groups)
				if err != nil {
					t.Fatal(err)
				}
				if (r.text.Flows != nil) != (model == "regflip") {
					t.Errorf("record holds %d flows", len(r.text.Flows))
				}
				sh := r.sh
				for i := 1; i < len(sh.cps); i++ {
					if a, b := sh.cps[i-1].m.Steps(), sh.cps[i].m.Steps(); a >= b {
						t.Fatalf("checkpoint %d at step %d follows one at step %d", i, b, a)
					}
				}

				targets := make(map[uint32]bool, len(groups))
				for _, g := range groups {
					targets[g.addr] = true
				}
				k := kernel.New(sc.New())
				ld, err := app.Image.Load(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				m := ld.Machine
				m.Fuel, m.NoICache = fuel, true
				if err := m.Restore(m.Snapshot()); err != nil {
					t.Fatal(err)
				}
				var nextDense uint64
				syscalls, dense, both := 0, 0, 0
				cpi := 0
				var stepErr error
				for stepErr == nil {
					code, _ := m.Mem.Peek(m.EIP, 2)
					sys := bytes.Equal(code, []byte{0xCD, 0x80})
					den := nextDense != 0 && m.Steps >= nextDense
					if den {
						nextDense = (m.Steps/denseK + 1) * denseK
					}
					if targets[m.EIP] && nextDense == 0 && model == "bitflip" {
						nextDense = (m.Steps/denseK + 1) * denseK
					}
					if sys || den {
						switch {
						case sys && den:
							both++
						case sys:
							syscalls++
						default:
							dense++
						}
						if cpi >= len(sh.cps) || sh.cps[cpi].m.Steps() != m.Steps {
							t.Fatalf("no checkpoint at step %d (int 0x80 %v, dense %v)", m.Steps, sys, den)
						}
						cp := &sh.cps[cpi]
						if !m.MatchesArch(cp.m) || !m.MatchesMemory(cp.m, 0, 0) || !k.Matches(cp.k) {
							t.Errorf("checkpoint at step %d is not the session's state there", m.Steps)
						}
						if (cp.live != nil) != (model == "regflip" && sys) {
							t.Errorf("checkpoint at step %d (int 0x80 %v): live set %v", m.Steps, sys, cp.live != nil)
						}
						cpi++
					}
					stepErr = m.Step()
				}
				if cpi != len(sh.cps) {
					t.Errorf("the replay ended (%v) with %d of %d checkpoints met", stepErr, cpi, len(sh.cps))
				}
				if syscalls+both != c.syscalls {
					t.Errorf("%d int 0x80 boundaries, want %d", syscalls+both, c.syscalls)
				}
				if got, want := len(sh.cps), syscalls+dense+both; got != want {
					t.Errorf("%d checkpoints for %d int 0x80 and %d dense boundaries, %d of them both", got, syscalls+both, dense+both, both)
				}
				t.Logf("%d checkpoints: %d int 0x80 boundaries, %d dense, %d both", len(sh.cps), syscalls+both, dense+both, both)
			})
		}
	}
}
