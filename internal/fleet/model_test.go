package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/fleet"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// engineModelStats is the single-process reference for a non-bitflip
// campaign (the engine itself is differentially tested against the naive
// path per model in internal/campaign).
func engineModelStats(t testing.TB, app *target.App, sc target.Scenario, model string) *inject.Stats {
	t.Helper()
	stats, err := campaign.New(campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, Model: model, KeepResults: true,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestFleetModelIdentity: a fleet splitting a non-bitflip campaign over
// two loopback workers produces byte-identical Stats to one engine run —
// the model travels in every shard spec and each worker re-derives the
// same model-specific enumeration.
func TestFleetModelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	for _, model := range []string{"instskip", "byteflip"} {
		t.Run(model, func(t *testing.T) {
			want := engineModelStats(t, app, sc, model)

			cfg := fleetConfig(app, sc,
				fleet.NewLoopback("w0", app), fleet.NewLoopback("w1", app))
			cfg.Campaign.Model = model
			cfg.ShardRuns = 8 // the small enumerations still get a multi-shard plan
			co := fleet.New(cfg)
			got, err := co.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, got)
			if got.Model != model {
				t.Errorf("fleet Stats.Model = %q, want %q", got.Model, model)
			}
		})
	}
}

// TestFleetHTTPModel runs a non-bitflip campaign through a real worker
// server and checks the model reaches the wire: every shard spec the
// worker receives names the model, and the merged Stats match the
// single-process engine.
func TestFleetHTTPModel(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	want := engineModelStats(t, app, sc, "instskip")

	apps := map[string]*target.App{app.Name: app}
	backend := fleet.NewWorkerServer(apps, nil)
	var specs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc(fleet.PathShards, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !strings.Contains(string(body), `"model":"instskip"`) {
			t.Errorf("shard spec %s does not carry the fault model", body)
		}
		specs.Add(1)
		r.Body = io.NopCloser(bytes.NewReader(body))
		backend.ServeHTTP(w, r)
	})
	mux.HandleFunc(fleet.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cfg := fleetConfig(app, sc, fleet.NewHTTPWorker(srv.URL, srv.Client()))
	cfg.Campaign.Model = "instskip"
	cfg.ShardRuns = 8
	got, err := fleet.New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
	if specs.Load() == 0 {
		t.Error("worker served no shard specs")
	}
}

// TestWorkerRefusesModelSkew pins the fleet's loud failure modes for a
// model-skewed deployment: a worker that does not know the spec's model
// refuses the shard before producing any result, and a worker whose
// enumeration size disagrees with the coordinator's reports the skew with
// the model named.
func TestWorkerRefusesModelSkew(t *testing.T) {
	app, sc := ftpClient1(t)
	lb := fleet.NewLoopback("w0", app)
	base := fleet.ShardSpec{
		App: app.Name, Scenario: sc.Name, Scheme: "x86",
		Total: 1, Indices: []int{0},
	}

	unknown := base
	unknown.Model = "nosuch"
	_, err := lb.RunShard(context.Background(), unknown, func(int, *campaign.WireResult) {
		t.Error("refused shard emitted a result")
	})
	if err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("unknown-model shard: err = %v, want unknown-model refusal", err)
	}

	// A known model with the wrong Total is version skew: the worker and
	// coordinator enumerate different index spaces.
	skew := base
	skew.Model = "instskip"
	skew.Total = 99999
	_, err = lb.RunShard(context.Background(), skew, func(int, *campaign.WireResult) {
		t.Error("refused shard emitted a result")
	})
	if err == nil || !strings.Contains(err.Error(), "version skew") ||
		!strings.Contains(err.Error(), "model=instskip") {
		t.Errorf("total-skew shard: err = %v, want version-skew refusal naming the model", err)
	}

	// Over HTTP both refusals surface as 400 before any stream bytes.
	srv := httptest.NewServer(fleet.NewWorkerServer(map[string]*target.App{app.Name: app}, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "application/json",
		strings.NewReader(`{"app":"ftpd","scenario":"Client1","scheme":"x86","model":"nosuch","total":1,"indices":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-model spec over HTTP: status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "unknown model") {
		t.Errorf("400 body %s does not name the unknown model", body)
	}
}

// TestShardSpecModelWireForm pins the wire convention shared with journal
// headers: bitflip is the empty string (legacy compatibility), every
// other model its registry name.
func TestShardSpecModelWireForm(t *testing.T) {
	if got := campaign.WireModel(""); got != "" {
		t.Errorf(`WireModel("") = %q, want ""`, got)
	}
	if got := campaign.WireModel("bitflip"); got != "" {
		t.Errorf(`WireModel("bitflip") = %q, want ""`, got)
	}
	if got := campaign.WireModel("regflip"); got != "regflip" {
		t.Errorf(`WireModel("regflip") = %q, want "regflip"`, got)
	}
}
