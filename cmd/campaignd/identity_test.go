package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/fleet"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// specRecorder is a fleet worker that keeps the first shard spec it is
// leased and fails the attempt, so a coordinator with MaxAttempts 1 stops
// after one lease without running a campaign.
type specRecorder struct{ spec *fleet.ShardSpec }

func (r *specRecorder) Name() string                  { return "recorder" }
func (r *specRecorder) Healthy(context.Context) error { return nil }
func (r *specRecorder) RunShard(_ context.Context, spec fleet.ShardSpec,
	_ func(int, *campaign.WireResult)) (campaign.Work, error) {
	if r.spec == nil {
		r.spec = &spec
	}
	return campaign.Work{}, errors.New("spec recorded")
}

// leasedSpec returns the first shard spec a coordinator for cfg leases
// (one target group per shard).
func leasedSpec(t *testing.T, cfg campaign.Config) fleet.ShardSpec {
	t.Helper()
	rec := &specRecorder{}
	_, err := fleet.New(fleet.Config{Campaign: cfg, Workers: []fleet.Worker{rec},
		ShardRuns: 1, MaxAttempts: 1}).Run(context.Background())
	if rec.spec == nil {
		t.Fatalf("coordinator leased no shard: %v", err)
	}
	return *rec.spec
}

// journalHeader is the journal header's wire form: the paper's pair keeps
// its legacy integer scheme code, other schemes travel by name, and
// bitflip is the empty model.
type journalHeader struct {
	App        string `json:"app"`
	Scenario   string `json:"scenario"`
	Scheme     int    `json:"scheme,omitempty"`
	SchemeName string `json:"schemeName,omitempty"`
	Model      string `json:"model,omitempty"`
	Total      int    `json:"total"`
	Fuel       uint64 `json:"fuel"`
	Watchdog   bool   `json:"watchdog,omitempty"`
}

func (h *journalHeader) identity() campaign.Identity {
	scheme := map[int]string{1: "x86", 2: "parity"}[h.Scheme]
	if h.SchemeName != "" {
		scheme = h.SchemeName
	}
	return campaign.Identity{App: h.App, Scenario: h.Scenario, Scheme: scheme,
		Model: faultmodel.Canonical(h.Model), Fuel: h.Fuel, Watchdog: h.Watchdog}
}

// writeHeader writes a journal holding only the header h.
func writeHeader(t *testing.T, path string, h any) {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	b = append([]byte(`{"type":"header",`), b[1:]...)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// other returns the first of names that is not cur.
func other(names []string, cur string) string {
	for _, n := range names {
		if n != cur {
			return n
		}
	}
	panic("no other name than " + cur)
}

// TestCampaignIdentityForms pins the one campaign identity across its
// forms. For every registered app, scheme and fault model on Client1, with
// default and non-default fuel and the watchdog on and off in turn:
// Resolve followed by Identity gives the canonical identity; a decoded
// submit body, the coordinator's shard spec read back by a worker, and
// the journal header all carry that identity; and a spec or header that
// differs in any one field reads back as another identity, which
// ReplayJournal refuses. The shard spec's bytes are pinned too.
func TestCampaignIdentityForms(t *testing.T) {
	const altFuel = 1_000_000
	dir := t.TempDir()
	n := 0
	for _, appName := range target.Names() {
		for _, scheme := range encoding.Names() {
			for _, model := range faultmodel.Names() {
				fuel := uint64(0)
				if n%2 == 1 {
					fuel = altFuel
				}
				watchdog := n%4 >= 2
				n++
				want := campaign.Identity{App: appName, Scenario: "Client1", Scheme: scheme,
					Model: model, Fuel: inject.EffectiveFuel(fuel), Watchdog: watchdog}
				t.Run(appName+"-"+scheme+"-"+model, func(t *testing.T) {
					checkIdentityForms(t, want, fuel, filepath.Join(dir, fmt.Sprintf("c%d.jsonl", n)))
				})
			}
		}
	}
	t.Run("spec-bytes", checkSpecBytes)
}

func checkIdentityForms(t *testing.T, want campaign.Identity, fuel uint64, journal string) {
	// The defaults may be spelled "" (omitted from the submit body).
	in := want
	in.Fuel = fuel
	if in.Scheme == "x86" {
		in.Scheme = ""
	}
	if in.Model == "bitflip" {
		in.Model = ""
	}
	cfg, err := in.Resolve(target.Build)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Identity(); got != want {
		t.Fatalf("Resolve then Identity = %v, want %v", got, want)
	}

	body, err := json.Marshal(submitRequest{App: in.App, Scenario: in.Scenario, Scheme: in.Scheme,
		FaultModel: in.Model, Fuel: in.Fuel, Watchdog: in.Watchdog})
	if err != nil {
		t.Fatal(err)
	}
	req, sub, err := decodeSubmit(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("decodeSubmit(%s): %v", body, err)
	}
	if got := sub.Identity(); got != want || req.Scheme != want.Scheme || req.FaultModel != want.Model {
		t.Fatalf("submit %s decodes to %v (request scheme %q, model %q), want %v",
			body, got, req.Scheme, req.FaultModel, want)
	}

	// The spec as the coordinator leases it, read back as a worker does.
	spec := leasedSpec(t, sub)
	readBack := func(s fleet.ShardSpec) campaign.Identity {
		t.Helper()
		c, err := s.Identity().Resolve(target.Build)
		if err != nil {
			t.Fatalf("spec %+v does not resolve: %v", s, err)
		}
		return c.Identity()
	}
	if got := readBack(spec); got != want {
		t.Fatalf("shard spec reads back as %v, want %v", got, want)
	}
	var scenarios []string
	for _, sc := range cfg.App.Scenarios {
		scenarios = append(scenarios, sc.Name)
	}
	for field, mutate := range map[string]func(*fleet.ShardSpec){
		"app":      func(s *fleet.ShardSpec) { s.App = other(target.Names(), s.App) },
		"scenario": func(s *fleet.ShardSpec) { s.Scenario = other(scenarios, s.Scenario) },
		"scheme":   func(s *fleet.ShardSpec) { s.Scheme = other(encoding.Names(), s.Scheme) },
		"model":    func(s *fleet.ShardSpec) { s.Model = other(faultmodel.Names(), want.Model) },
		"fuel":     func(s *fleet.ShardSpec) { s.Fuel = want.Fuel + 1 },
		"watchdog": func(s *fleet.ShardSpec) { s.Watchdog = !s.Watchdog },
	} {
		skew := spec
		mutate(&skew)
		if got := readBack(skew); got == want {
			t.Errorf("a spec with another %s reads back as the campaign's identity %v", field, got)
		}
	}

	// The header the ledger's journal writes, read back from the file.
	jcfg := sub
	jcfg.Journal = journal
	exps, err := campaign.EnumerateConfig(&jcfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := campaign.OpenJournal(&jcfg, len(exps), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(0, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(f).ReadBytes('\n')
	f.Close() //nolint:errcheck // read-only
	if err != nil {
		t.Fatal(err)
	}
	var hdr journalHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		t.Fatal(err)
	}
	if got := hdr.identity(); got != want || hdr.Total != len(exps) {
		t.Fatalf("journal header %s reads back as %v total=%d, want %v total=%d",
			line, got, hdr.Total, want, len(exps))
	}
	if _, err := campaign.ReplayJournal(&jcfg, exps); err != nil {
		t.Fatalf("the campaign's own journal header is refused: %v", err)
	}
	for field, mutate := range map[string]func(*journalHeader){
		"app":      func(h *journalHeader) { h.App = other(target.Names(), h.App) },
		"scenario": func(h *journalHeader) { h.Scenario = other(scenarios, h.Scenario) },
		"scheme": func(h *journalHeader) {
			h.Scheme, h.SchemeName = 0, other(encoding.Names(), want.Scheme)
		},
		"model":    func(h *journalHeader) { h.Model = campaign.WireModel(other(faultmodel.Names(), want.Model)) },
		"total":    func(h *journalHeader) { h.Total++ },
		"fuel":     func(h *journalHeader) { h.Fuel++ },
		"watchdog": func(h *journalHeader) { h.Watchdog = !h.Watchdog },
	} {
		skew := hdr
		mutate(&skew)
		writeHeader(t, journal, &skew)
		if _, err := campaign.ReplayJournal(&jcfg, exps); err == nil {
			t.Errorf("a journal header with another %s is accepted", field)
		}
	}
}

// checkSpecBytes pins the shard spec's bytes for one bitflip and one
// non-bitflip campaign: the scheme by registry name, bitflip as the
// omitted model, the fuel as submitted (omitted for the default) and no
// ablation knob.
func checkSpecBytes(t *testing.T) {
	for _, c := range []struct{ body, want string }{
		{`{"app":"ftpd","scenario":"Client1"}`,
			`{"app":"ftpd","scenario":"Client1","scheme":"x86","total":992,"shard":0,` +
				`"indices":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]}`},
		{`{"app":"httpd","scenario":"Client1","scheme":"encbranch","faultModel":"instskip","fuel":1000000,"watchdog":true}`,
			`{"app":"httpd","scenario":"Client1","scheme":"encbranch","model":"instskip","fuel":1000000,` +
				`"watchdog":true,"total":48,"shard":0,"indices":[0]}`},
	} {
		_, cfg, err := decodeSubmit(strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(leasedSpec(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("submit %s leases\n%s\nwant\n%s", c.body, got, c.want)
		}
	}
}
