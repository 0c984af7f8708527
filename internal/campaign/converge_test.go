package campaign_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/target"
	"faultsec/internal/vm"
)

func client1(t *testing.T, name string) (*target.App, target.Scenario) {
	t.Helper()
	app, err := target.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := app.Scenario("Client1")
	if !ok {
		t.Fatalf("%s has no Client1", name)
	}
	return app, sc
}

// TestGoldenConvergenceCounterPin pins how much of each x86 Client1 regflip
// campaign the convergence exit skips. The counts are deterministic: a
// change means runs converge at different steps, or not at all.
func TestGoldenConvergenceCounterPin(t *testing.T) {
	for _, c := range []struct {
		app       string
		converged int64
		saved     int64
	}{
		{"ftpd", 4128, 425_029_248},
		{"sshd", 4220, 868_446_803},
		{"httpd", 2514, 73_315_434},
	} {
		t.Run(c.app, func(t *testing.T) {
			app, sc := client1(t, c.app)
			eng := campaign.New(campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: "regflip"})
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			m := eng.Metrics()
			if m.ConvergedRuns != c.converged || m.InstructionsSaved != c.saved {
				t.Errorf("converged %d runs saving %d instructions, want %d and %d",
					m.ConvergedRuns, m.InstructionsSaved, c.converged, c.saved)
			}
		})
	}
}

// TestGoldenConvergenceParanoidIdentity proves the convergence exit exact:
// with the paranoid hook every converged run also executes to its real
// end, its executed Result must equal the one built from the golden end
// state, and the Stats aggregated from executed results — exhaustive
// execution — must equal the engine's, Results and CrashLatencies order
// included.
func TestGoldenConvergenceParanoidIdentity(t *testing.T) {
	for _, scheme := range []string{"x86", "encbranch"} {
		for _, name := range []string{"ftpd", "sshd", "httpd"} {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				app, sc := client1(t, name)
				s, err := encoding.Parse(scheme)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				executed := make(map[int]inject.Result)
				defer campaign.SetOnConverged(func(idx int, synthesized, ran inject.Result) {
					if !reflect.DeepEqual(synthesized, ran) {
						t.Errorf("run %d: converged result %+v, executed %+v", idx, synthesized, ran)
					}
					mu.Lock()
					executed[idx] = ran
					mu.Unlock()
				})()
				eng := campaign.New(campaign.Config{App: app, Scenario: sc, Scheme: s, Model: "regflip", KeepResults: true})
				got, err := eng.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if n := eng.Metrics().ConvergedRuns; n == 0 || int(n) != len(executed) {
					t.Fatalf("hook saw %d converged runs, engine counted %d", len(executed), n)
				}
				want := inject.NewStats(got.App, got.Scenario, got.Scheme, got.Model)
				want.Results = append([]inject.Result(nil), got.Results...)
				for idx, ran := range executed {
					want.Results[idx] = ran
				}
				for _, r := range want.Results {
					want.Add(r)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("stats differ from exhaustive execution\nwant: %+v\ngot:  %+v", statsSummary(want), statsSummary(got))
				}
			})
		}
	}
}

// TestTraceRunAppliesRegisterMutation is a regression test: TraceRun used
// to poke the experiment's corrupted bytes, which for a register fault
// are the pristine encoding, so a regflip trace showed a fault-free run.
// A regflip experiment the engine classifies SD must trace to a crash
// with the same signal.
func TestTraceRunAppliesRegisterMutation(t *testing.T) {
	app, sc := ftpClient1(t)
	cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: "regflip", KeepResults: true}
	exps, err := campaign.EnumerateConfig(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := campaign.New(cfg).RunExperiments(context.Background(), sampleEvery(exps, 97))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Results {
		if r.Outcome != classify.OutcomeSD {
			continue
		}
		tr, err := inject.TraceRun(app, sc, r.Experiment, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		var f *vm.Fault
		if !errors.As(tr.End, &f) {
			t.Fatalf("trace of SD run %+v ended %v, want a fault", r.Experiment.Mut, tr.End)
		}
		if f.Kind.Signal() != r.FaultKind {
			t.Errorf("trace ended with %s, engine classified %s", f.Kind.Signal(), r.FaultKind)
		}
		return
	}
	t.Fatal("no SD run in the sampled regflip campaign")
}
