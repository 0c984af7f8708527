package campaign_test

import (
	"context"
	"reflect"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/sshd"
	"faultsec/internal/target"
	"faultsec/internal/vm"
)

// runUopsAblation is the uop-vs-switch campaign gate: it runs the full
// campaign for one app/scenario twice — with the predecoded instruction
// cache and its bound micro-ops (the default), and with NoICache, where
// every retirement decodes afresh and executes through the interpreter
// switch — under both encodings, and requires byte-identical Stats
// including per-run Results. Every experiment pokes corrupted bytes over
// live text, so this exercises the bound micro-ops a reused worker
// machine keeps across restores, rebinds after invalidation, stale
// decodes surviving a poke or a restore, and every fault class the
// handlers can raise (#UD, #GP, #DE, memory, fetch, fuel, watchdog).
func runUopsAblation(t *testing.T, app *target.App, sc target.Scenario) {
	t.Helper()
	for _, scheme := range []encoding.Scheme{encoding.SchemeX86, encoding.SchemeParity} {
		scheme := scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			cached := campaign.New(campaign.Config{
				App: app, Scenario: sc, Scheme: scheme, KeepResults: true,
			})
			want, err := cached.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			uncached := campaign.New(campaign.Config{
				App: app, Scenario: sc, Scheme: scheme, KeepResults: true,
				Tuning: vm.Tuning{NoICache: true},
			})
			got, err := uncached.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(want, got) {
				t.Errorf("uop stats differ from NoICache\nuops: %+v\nnoicache: %+v",
					statsSummary(want), statsSummary(got))
			}

			cm := cached.Metrics()
			if cm.ICacheHits == 0 {
				t.Error("cached campaign recorded no icache hits")
			}
			if cm.ICacheHitRate <= 0 || cm.ICacheHitRate > 1 {
				t.Errorf("icache hit rate %v out of (0,1]", cm.ICacheHitRate)
			}
			um := uncached.Metrics()
			if um.ICacheHits != 0 || um.ICacheMisses != 0 {
				t.Errorf("NoICache campaign recorded cache traffic: hits=%d misses=%d",
					um.ICacheHits, um.ICacheMisses)
			}
		})
	}
}

// TestUopsAblationFTPClient1 is the micro-op pipeline's and the
// instruction cache's acceptance gate on the FTP server campaign.
func TestUopsAblationFTPClient1(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign ablation is not short")
	}
	app, sc := ftpClient1(t)
	runUopsAblation(t, app, sc)
}

// TestUopsAblationSSHClient1 is the same gate on the SSH server campaign,
// whose Client1 scenario exercises the authentication-rejection path.
func TestUopsAblationSSHClient1(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign ablation is not short")
	}
	app, err := sshd.Build()
	if err != nil {
		t.Fatalf("build sshd: %v", err)
	}
	sc, ok := app.Scenario("Client1")
	if !ok {
		t.Fatal("sshd has no Client1")
	}
	runUopsAblation(t, app, sc)
}
