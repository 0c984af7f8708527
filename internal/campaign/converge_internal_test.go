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
	fuel := e.cfg.effectiveFuel()
	golden, err := inject.GoldenRun(app, sc, fuel)
	if err != nil {
		t.Fatal(err)
	}
	groups := groupByTarget(exps, nil)

	sh, err := e.goldenShadow(golden, exps, groups, fuel)
	if err != nil {
		t.Fatalf("true golden: %v", err)
	}
	if len(sh.cps) == 0 {
		t.Fatal("shadow recorded no checkpoints")
	}
	for _, g := range groups[:1] {
		if sh.retired[g.addr] == 0 {
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
		_, err := e.goldenShadow(&forged, exps, groups, fuel)
		if !errors.Is(err, errShadowDiverged) || !strings.Contains(err.Error(), "determinism violation") {
			t.Errorf("forged golden %d: err = %v, want a determinism violation", i, err)
		}
	}
}

// TestShadowLivenessQueries checks the shadow's register-liveness
// queries on ftpd Client1: a bitflip campaign opens none; a regflip
// campaign opens one per target, at the step the target activates, and
// finds ESI and EDI dead at every activated target, since no ftpd instruction names
// them. A query asked for another activation step reports a determinism
// violation.
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
		sh, err := e.goldenShadow(golden, exps, groups, fuel)
		if err != nil {
			t.Fatal(err)
		}
		if model == "bitflip" {
			if len(sh.live) != 0 {
				t.Errorf("bitflip campaign opened %d liveness queries", len(sh.live))
			}
			continue
		}
		if len(sh.live) != len(groups) {
			t.Fatalf("%d liveness queries for %d regflip targets", len(sh.live), len(groups))
		}
		opened := 0
		for _, g := range groups {
			s, err := inject.Activate(app, sc, g.addr, fuel, nil)
			if err != nil {
				t.Fatal(err)
			}
			q := sh.live[g.addr]
			if !q.opened {
				// Never reached: the engine synthesizes NA without asking.
				if s.ActivationSteps != 0 {
					t.Errorf("target %#x activates at step %d but its query never opened", g.addr, s.ActivationSteps)
				}
				continue
			}
			opened++
			dead, err := q.dead(s.ActivationSteps)
			if err != nil {
				t.Fatalf("target %#x: %v", g.addr, err)
			}
			if want := x86.RegMask(1<<x86.ESI | 1<<x86.EDI); dead&want != want {
				t.Errorf("target %#x: dead registers %08b, want ESI and EDI among them", g.addr, dead)
			}
			if _, err := q.dead(s.ActivationSteps + 1); !errors.Is(err, errShadowDiverged) ||
				!strings.Contains(err.Error(), "determinism violation") {
				t.Errorf("target %#x: activation one step later: err = %v, want a determinism violation", g.addr, err)
			}
		}
		if opened == 0 {
			t.Error("no liveness query opened")
		}
	}
}
