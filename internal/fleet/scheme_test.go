package fleet_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/fleet"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// TestFleetSchemeIdentity: a fleet splitting a compile-time-hardened
// campaign over two loopback workers produces byte-identical Stats to one
// engine run — the scheme name travels in every shard spec, and each
// worker independently rebuilds the hardened image and re-derives the
// same enumeration over it.
func TestFleetSchemeIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	want, err := campaign.New(campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeDupCompare, KeepResults: true,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cfg := fleetConfig(app, sc,
		fleet.NewLoopback("w0", app), fleet.NewLoopback("w1", app))
	cfg.Campaign.Scheme = encoding.SchemeDupCompare
	got, err := fleet.New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
	if name := encoding.SchemeName(got.Scheme); name != "dupcmp" {
		t.Errorf("fleet Stats.Scheme = %q, want dupcmp", name)
	}
}

// TestWorkerRefusesSchemeSkew pins the fleet's loud failure modes for a
// scheme-skewed deployment, mirroring the fault-model skew checks: a
// worker that does not know the spec's scheme refuses the shard with the
// registered list, and a worker whose hardened enumeration disagrees with
// the coordinator's Total reports version skew with the scheme named.
func TestWorkerRefusesSchemeSkew(t *testing.T) {
	app, sc := ftpClient1(t)
	lb := fleet.NewLoopback("w0", app)
	base := fleet.ShardSpec{
		App: app.Name, Scenario: sc.Name, Scheme: "x86",
		Total: 1, Indices: []int{0},
	}

	unknown := base
	unknown.Scheme = "tmr"
	_, err := lb.RunShard(context.Background(), unknown, func(int, *campaign.WireResult) {
		t.Error("refused shard emitted a result")
	})
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") ||
		!strings.Contains(err.Error(), "dupcmp") {
		t.Errorf("unknown-scheme shard: err = %v, want refusal listing registered schemes", err)
	}

	// A registered scheme with another scheme's Total is version skew:
	// dupcmp's hardened image enumerates more branch targets than the
	// baseline the coordinator claimed.
	skew := base
	skew.Scheme = "dupcmp"
	_, err = lb.RunShard(context.Background(), skew, func(int, *campaign.WireResult) {
		t.Error("refused shard emitted a result")
	})
	if err == nil || !strings.Contains(err.Error(), "version skew") ||
		!strings.Contains(err.Error(), "dupcmp") {
		t.Errorf("scheme-skew shard: err = %v, want version-skew refusal naming the scheme", err)
	}

	// Over HTTP the unknown scheme surfaces as 400 before any stream bytes.
	srv := httptest.NewServer(fleet.NewWorkerServer(map[string]*target.App{app.Name: app}, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "application/json",
		strings.NewReader(`{"app":"ftpd","scenario":"Client1","scheme":"tmr","total":1,"indices":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-scheme spec over HTTP: status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "unknown scheme") {
		t.Errorf("400 body %s does not name the unknown scheme", body)
	}
}

// TestShardSpecCarriesSchemeName pins the spec-building seam: the
// coordinator writes the scheme's registry name into every shard spec (a
// nil scheme is the x86 baseline), so schemes added later need no fleet
// protocol change.
func TestShardSpecCarriesSchemeName(t *testing.T) {
	app, sc := ftpClient1(t)
	hardened, err := app.ForScheme(encoding.SchemeEncodedBranch)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(hardened)
	if err != nil {
		t.Fatal(err)
	}
	m, err := faultmodel.Get("bitflip")
	if err != nil {
		t.Fatal(err)
	}
	exps := faultmodel.Enumerate(targets, encoding.SchemeEncodedBranch, m)

	lb := fleet.NewLoopback("w0", app)
	spec := fleet.ShardSpec{
		App: app.Name, Scenario: sc.Name, Scheme: "encbranch",
		Total: len(exps), Indices: []int{0, 1, 2},
	}
	n := 0
	if _, err := lb.RunShard(context.Background(), spec, func(int, *campaign.WireResult) { n++ }); err != nil {
		t.Fatalf("encbranch shard on a worker holding the baseline app: %v", err)
	}
	if n != len(spec.Indices) {
		t.Errorf("shard emitted %d results, want %d", n, len(spec.Indices))
	}
}
