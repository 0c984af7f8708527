package campaign_test

import (
	"context"
	"reflect"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// TestScenarioSweepIdentity extends the engine-versus-naive identity past
// Client1: for every other registered scenario of the three apps, where
// the paper's break-ins come from, and every fault model under x86, engine
// Stats (Results included) must equal inject.RunExperimentsNaive's, and
// every converged run must equal its executed self. The byte and register
// models run every stride-th experiment to keep the sweep in budget; the
// skip models run whole.
func TestScenarioSweepIdentity(t *testing.T) {
	stride := map[string]int{"bitflip": 5, "byteflip": 3, "doublebit": 17, "regflip": 53, "instskip": 1, "cmpskip": 1}
	for _, name := range []string{"ftpd", "sshd", "httpd"} {
		app, err := target.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range app.Scenarios {
			if sc.Name == "Client1" {
				continue
			}
			for _, model := range faultmodel.Names() {
				t.Run(name+"/"+sc.Name+"/"+model, func(t *testing.T) {
					cfg := campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: model, KeepResults: true}
					exps, err := campaign.EnumerateConfig(&cfg)
					if err != nil {
						t.Fatal(err)
					}
					exps = sampleEvery(exps, stride[model])
					defer campaign.SetOnConverged(func(idx int, synthesized, executed inject.Result) {
						if !reflect.DeepEqual(synthesized, executed) {
							t.Errorf("run %d: converged result %+v, executed %+v", idx, synthesized, executed)
						}
					})()
					engine, err := campaign.New(cfg).RunExperiments(context.Background(), exps)
					if err != nil {
						t.Fatal(err)
					}
					naive, err := inject.RunExperimentsNaive(context.Background(), inject.Config{
						App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
					}, exps)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(naive, engine) {
						t.Errorf("engine stats differ from naive reference\nnaive: %+v\nengine: %+v",
							statsSummary(naive), statsSummary(engine))
					}
				})
			}
		}
	}
}
