package core

import (
	"testing"

	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// TestPersistentConnectionFuel checks that a persistent-window connection
// runs at the campaign's fuel: the Figure 1 break-in (ftpd pass's je
// turned jne) is granted on the default budget, and a Client1 connection
// with too little fuel to reach its grant is not.
func TestPersistentConnectionFuel(t *testing.T) {
	app, err := target.Build("ftpd")
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := app.Scenario("Client1")
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	var pass []inject.Target
	for _, tg := range targets {
		if tg.Func == "pass" {
			pass = append(pass, tg)
		}
	}
	m, err := faultmodel.Get("bitflip")
	if err != nil {
		t.Fatal(err)
	}
	ex := faultmodel.Experiment(m, pass[13], 0, encoding.SchemeX86)

	s := &Study{}
	for _, c := range []struct {
		fuel uint64
		want bool
	}{{inject.EffectiveFuel(0), true}, {1_000, false}} {
		res, ok, err := s.tryPersistent(app, sc, ex, 2, c.fuel)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want {
			t.Errorf("fuel %d: break-in reproduced %v, want %v (%+v)", c.fuel, ok, c.want, res)
		}
	}
}
