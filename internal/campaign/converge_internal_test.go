package campaign

import (
	"errors"
	"strings"
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
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
	text := inject.SweepText(app)

	sh, err := e.goldenShadow(golden, text, exps, groups)
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
		_, err := e.goldenShadow(&forged, text, exps, groups)
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
		sh, err := e.goldenShadow(golden, inject.SweepText(app), exps, groups)
		if err != nil {
			t.Fatal(err)
		}
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
