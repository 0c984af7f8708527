package campaign_test

import (
	"context"
	"errors"
	"flag"
	"reflect"
	"sync"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
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

// convergeExhaustive makes the paranoid identity test run every fault
// model's campaigns whole; by default the models other than regflip run a
// sample of their experiments.
var convergeExhaustive = flag.Bool("converge-exhaustive", false,
	"run every fault model's paranoid convergence identity campaign whole")

// TestGoldenConvergenceCounterPin pins how much of each x86 Client1 regflip
// and bitflip campaign the convergence exit skips, and how many
// post-activation instructions the executed runs still interpret. The
// counts are deterministic: a change means runs converge at different
// steps, or not at all. Regflip rows are named by app alone and the
// others by model/app, which keeps the regflip rows' test names stable.
func TestGoldenConvergenceCounterPin(t *testing.T) {
	for _, c := range []struct {
		model       string
		app         string
		converged   int64
		saved       int64
		interpreted int64
	}{
		{"regflip", "ftpd", 8880, 1_165_978_842, 36_653_143},
		{"regflip", "sshd", 8883, 2_106_007_157, 92_225_411},
		{"regflip", "httpd", 5305, 360_647_033, 27_292_781},
		{"bitflip", "ftpd", 191, 25_872_616, 10_377_256},
		{"bitflip", "sshd", 186, 27_365_314, 43_319_907},
		{"bitflip", "httpd", 111, 8_391_619, 7_408_434},
	} {
		name := c.app
		if c.model != "regflip" {
			name = c.model + "/" + c.app
		}
		t.Run(name, func(t *testing.T) {
			app, sc := client1(t, c.app)
			eng := campaign.New(campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: c.model})
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			m := eng.Metrics()
			if m.ConvergedRuns != c.converged || m.InstructionsSaved != c.saved {
				t.Errorf("converged %d runs saving %d instructions, want %d and %d",
					m.ConvergedRuns, m.InstructionsSaved, c.converged, c.saved)
			}
			if m.InstructionsInterpreted != c.interpreted {
				t.Errorf("executed runs interpreted %d instructions, want %d", m.InstructionsInterpreted, c.interpreted)
			}
		})
	}
}

// TestGoldenConvergenceParanoidIdentity proves the convergence exit exact
// for every fault model: with the paranoid hook every converged run also
// executes to its real end, its executed Result must equal the one built
// from the golden end state, and the Stats aggregated from executed
// results — exhaustive execution — must equal the engine's, Results and
// CrashLatencies order included. regflip rows run whole and are named
// scheme/app, the others model/scheme/app, which keeps the regflip rows'
// test names stable; the other models run every sampleStride-th
// experiment unless -converge-exhaustive is set.
func TestGoldenConvergenceParanoidIdentity(t *testing.T) {
	sampleStride := map[string]int{"bitflip": 1, "doublebit": 7, "byteflip": 1, "instskip": 1, "cmpskip": 1}
	for _, model := range faultmodel.Names() {
		for _, scheme := range []string{"x86", "encbranch"} {
			for _, name := range []string{"ftpd", "sshd", "httpd"} {
				row := scheme + "/" + name
				if model != "regflip" {
					row = model + "/" + row
				}
				t.Run(row, func(t *testing.T) {
					app, sc := client1(t, name)
					s, err := encoding.Parse(scheme)
					if err != nil {
						t.Fatal(err)
					}
					cfg := campaign.Config{App: app, Scenario: sc, Scheme: s, Model: model, KeepResults: true}
					exps, err := campaign.EnumerateConfig(&cfg)
					if err != nil {
						t.Fatal(err)
					}
					if model != "regflip" && !*convergeExhaustive {
						exps = sampleEvery(exps, sampleStride[model])
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
					eng := campaign.New(cfg)
					got, err := eng.RunExperiments(context.Background(), exps)
					if err != nil {
						t.Fatal(err)
					}
					n := eng.Metrics().ConvergedRuns
					if int(n) != len(executed) || n == 0 && (model == "regflip" || model == "bitflip") {
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
