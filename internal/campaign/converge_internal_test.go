package campaign

import (
	"errors"
	"strings"
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/target"
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

	sh, err := e.goldenShadow(golden, groups, fuel)
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
		_, err := e.goldenShadow(&forged, groups, fuel)
		if !errors.Is(err, errShadowDiverged) || !strings.Contains(err.Error(), "determinism violation") {
			t.Errorf("forged golden %d: err = %v, want a determinism violation", i, err)
		}
	}
}
