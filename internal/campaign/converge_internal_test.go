package campaign

import (
	"strings"
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// TestShadowMustReproduceGolden checks the shadow's self-check: a fault-
// free continuation that does not end exactly like the golden run is a
// determinism violation, never a source of synthesized results.
func TestShadowMustReproduceGolden(t *testing.T) {
	app, err := target.Build("ftpd")
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := app.Scenario("Client1")
	e := New(Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: "regflip"})
	exps, err := e.enumerate()
	if err != nil {
		t.Fatal(err)
	}
	fuel := e.cfg.effectiveFuel()
	golden, err := inject.GoldenRun(app, sc, fuel)
	if err != nil {
		t.Fatal(err)
	}
	wave := groupByTarget(exps, nil)[:1]
	snaps, err := e.captureSnapshots(wave, nil, fuel)
	if err != nil {
		t.Fatal(err)
	}
	snap := snaps[wave[0].addr]
	if snap == nil {
		t.Fatal("first target never activates")
	}

	wm, cps, err := e.runShadow(nil, snap, golden)
	if err != nil {
		t.Fatalf("true golden: %v", err)
	}
	if len(cps) == 0 {
		t.Fatal("shadow recorded no checkpoints")
	}
	for i, forge := range []func(g *classify.Golden){
		func(g *classify.Golden) { g.Steps++ },
		func(g *classify.Golden) { g.ExitCode++ },
		func(g *classify.Golden) { g.Granted = !g.Granted },
		func(g *classify.Golden) { g.ServerBytes = g.ServerBytes[:len(g.ServerBytes)-1] },
	} {
		forged := *golden
		forge(&forged)
		if _, _, err := e.runShadow(wm, snap, &forged); err == nil || !strings.Contains(err.Error(), "determinism violation") {
			t.Errorf("forged golden %d: err = %v, want a determinism violation", i, err)
		}
	}
}
