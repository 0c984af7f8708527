package fleet_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/fleet"
	"faultsec/internal/target"
)

// TestFleetConvergenceCounters: a fleet bitflip campaign reports the
// in-process engine's golden-convergence totals, summed from settled
// shards only — over loopback workers, over HTTP done-lines, and when a
// worker's first stream is cut before its done-line and the shard is
// retried. Every shard engine runs one worker, so its VM counters are
// deterministic too: all three cases report the same nonzero Work.
func TestFleetConvergenceCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	eng := campaign.New(campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := eng.Metrics()
	if want.ConvergedRuns == 0 {
		t.Fatal("no FTP Client1 bitflip run converged; the test exercises nothing")
	}

	apps := map[string]*target.App{app.Name: app}
	serve := func(t *testing.T, h http.Handler) fleet.Worker {
		mux := http.NewServeMux()
		mux.Handle(fleet.PathShards, h)
		mux.HandleFunc(fleet.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return fleet.NewHTTPWorker(srv.URL, srv.Client())
	}
	var first *campaign.Work
	for _, c := range []struct {
		name    string
		workers func(t *testing.T) []fleet.Worker
		retried bool
	}{
		{"loopback", func(*testing.T) []fleet.Worker {
			return []fleet.Worker{fleet.NewLoopback("w0", app), fleet.NewLoopback("w1", app)}
		}, false},
		{"http", func(t *testing.T) []fleet.Worker {
			return []fleet.Worker{serve(t, fleet.NewWorkerServer(apps, nil)), serve(t, fleet.NewWorkerServer(apps, nil))}
		}, false},
		{"retried", func(t *testing.T) []fleet.Worker {
			return []fleet.Worker{serve(t, &truncatingHandler{
				real:  fleet.NewWorkerServer(apps, nil),
				local: fleet.NewLoopback("truncator-local", app),
			})}
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := fleetConfig(app, sc, c.workers(t)...)
			cfg.RetryBase = time.Millisecond
			cfg.Campaign.Parallelism = 1
			co := fleet.New(cfg)
			if _, err := co.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			m := co.Metrics()
			if c.retried && m.Retries < 1 {
				t.Fatalf("retries = %d, want >= 1 (first shard stream was truncated)", m.Retries)
			}
			if m.ConvergedRuns != want.ConvergedRuns || m.InstructionsSaved != want.InstructionsSaved {
				t.Errorf("fleet converged %d runs saving %d instructions, engine %d and %d",
					m.ConvergedRuns, m.InstructionsSaved, want.ConvergedRuns, want.InstructionsSaved)
			}
			if m.ICacheHits == 0 || m.TraceHits == 0 || m.DirtyBytesCopied == 0 || m.FullRestores == 0 {
				t.Errorf("fleet VM counters did not cross the worker boundary: %+v", m.Work)
			}
			if first == nil {
				first = &m.Work
			} else if m.Work != *first {
				t.Errorf("fleet work %+v, want the first case's %+v", m.Work, *first)
			}
		})
	}
}
