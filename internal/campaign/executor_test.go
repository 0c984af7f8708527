package campaign_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/inject"
	"faultsec/internal/vm"
)

// TestRunOneFuelDefaultMatchesCampaign is a regression test: with fuel 0,
// RunOne used to keep the machine's own 2M-instruction budget while every
// campaign runs at inject.DefaultFuel, so these hangs, which the campaign
// reports as FSV, replayed as late crashes. The indices are into
// campaign.EnumerateConfig for x86 Client1.
func TestRunOneFuelDefaultMatchesCampaign(t *testing.T) {
	for _, c := range []struct {
		app, model string
		idx        int
	}{
		{"httpd", "regflip", 678},
		{"sshd", "doublebit", 1231},
	} {
		app, sc := client1(t, c.app)
		cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: c.model, KeepResults: true}
		exps, err := campaign.EnumerateConfig(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := campaign.New(cfg).RunExperiments(context.Background(), exps[c.idx:c.idx+1])
		if err != nil {
			t.Fatal(err)
		}
		want := st.Results[0]
		if want.Outcome != classify.OutcomeFSV {
			t.Fatalf("%s %s #%d: campaign outcome %s, want FSV", c.app, c.model, c.idx, want.Outcome)
		}
		golden, err := inject.GoldenRun(app, sc, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inject.RunOne(app, sc, golden, exps[c.idx], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s #%d: RunOne %+v, campaign %+v", c.app, c.model, c.idx, got, want)
		}
	}
}

// TestTraceRunReachesExitStub is a regression test: the tracer peeked a
// full x86.MaxInstLen bytes at every PC, which fails within 15 bytes of
// the end of the text region, so the _start exit stub every session runs
// showed as unmapped. An NM run traced to its end must list every
// instruction and end on the exit syscall.
func TestTraceRunReachesExitStub(t *testing.T) {
	for _, name := range []string{"ftpd", "sshd", "httpd"} {
		app, sc := client1(t, name)
		cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: "regflip"}
		exps, err := campaign.EnumerateConfig(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := inject.GoldenRun(app, sc, 0)
		if err != nil {
			t.Fatal(err)
		}
		var nm *inject.Experiment
		for i := range exps {
			res, err := inject.RunOne(app, sc, golden, exps[i], 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == classify.OutcomeNM {
				nm = &exps[i]
				break
			}
		}
		if nm == nil {
			t.Fatalf("%s: no NM regflip experiment", name)
		}
		tr, err := inject.TraceRun(app, sc, *nm, 0, inject.DefaultFuel)
		if err != nil {
			t.Fatal(err)
		}
		var exit *vm.ExitStatus
		if tr.Truncated || !errors.As(tr.End, &exit) || len(tr.Entries) == 0 {
			t.Fatalf("%s: trace truncated=%v with %d entries ended %v, want a whole run to exit",
				name, tr.Truncated, len(tr.Entries), tr.End)
		}
		for _, e := range tr.Entries {
			if e.Text == "(unmapped)" || len(e.Raw) == 0 {
				t.Fatalf("%s: step %d at %#x traced as %q with bytes % x", name, e.Step, e.Addr, e.Text, e.Raw)
			}
		}
		if last := tr.Entries[len(tr.Entries)-1]; last.Text != "int 0x80" {
			t.Errorf("%s: last traced instruction %q at %#x, want int 0x80", name, last.Text, last.Addr)
		}
	}
}

// TestExecuteObserverTransparency pins that observing a run does not
// change it: single-stepping under an always-continue observer and one
// Machine.Run with the icache and fused traces give equal runs for a
// sample of every fault model. The observer sees each attempted
// instruction once, at consecutive step counts from activation.
func TestExecuteObserverTransparency(t *testing.T) {
	app, sc := client1(t, "ftpd")
	ends := map[string]int{}
	for _, model := range faultmodel.Names() {
		cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: model}
		exps, err := campaign.EnumerateConfig(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range sampleEvery(exps, len(exps)/12+1) {
			mut := ex.Mutation()
			s, err := inject.Activate(app, sc, ex.Target.Addr, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			calls, last := 0, uint64(0)
			observed, obsWindow, err := inject.Execute(s, &ex.Target, &mut, func(m *vm.Machine) bool {
				if want := s.ActivationSteps + uint64(calls); m.Steps != want {
					t.Fatalf("%s %+v: observer call %d at step %d, want %d", model, mut, calls, m.Steps, want)
				}
				calls, last = calls+1, m.Steps
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err = inject.Activate(app, sc, ex.Target.Addr, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			run, window, err := inject.Execute(s, &ex.Target, &mut, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(observed, run) || obsWindow != window {
				t.Fatalf("%s %+v: observed run %+v (window %d), unobserved %+v (window %d)",
					model, mut, observed, obsWindow, run, window)
			}
			if !run.Activated {
				if calls != 0 {
					t.Errorf("%s: never-activated run observed %d times", model, calls)
				}
				ends["NA"]++
				continue
			}
			want := int(run.EndSteps - run.ActivationSteps)
			end := "retired"
			if last == run.EndSteps {
				// The last attempt retired nothing: only running out of
				// fuel or a fault does that.
				var fuel *vm.OutOfFuel
				var fault *vm.Fault
				if !errors.As(run.Err, &fuel) && !errors.As(run.Err, &fault) {
					t.Errorf("%s %+v: last attempt retired nothing but the run ended %v", model, mut, run.Err)
				}
				want++
				end = "unretired"
			}
			if calls != want {
				t.Errorf("%s %+v: observer called %d times, want %d (steps %d..%d)",
					model, mut, calls, want, run.ActivationSteps, run.EndSteps)
			}
			ends[end]++
		}
	}
	t.Logf("sampled ends: %v", ends)
	if ends["retired"] == 0 || ends["unretired"] == 0 {
		t.Errorf("sample covers ends %v; want runs whose last attempt retired and runs whose last did not", ends)
	}
}
