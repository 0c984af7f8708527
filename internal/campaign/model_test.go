package campaign_test

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/inject"
)

// sampleEvery keeps every k-th experiment — the cost bound that lets the
// naive reference executor cover the larger fault models' enumerations.
func sampleEvery(exps []inject.Experiment, k int) []inject.Experiment {
	if k <= 1 {
		return exps
	}
	out := make([]inject.Experiment, 0, len(exps)/k+1)
	for i := 0; i < len(exps); i += k {
		out = append(out, exps[i])
	}
	return out
}

// TestModelDifferentialFTPClient1 is the fault-model acceptance gate: for
// every registered model, the snapshot fast-forward engine must reproduce
// the naive one-full-run-per-experiment reference byte for byte —
// including per-run Results — over the FTP Client1 campaign. Small
// enumerations (instskip, cmpskip) diff in full; the larger ones are
// sampled across every target, which still exercises every mutation kind
// through both executors.
func TestModelDifferentialFTPClient1(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	for _, name := range faultmodel.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := campaign.Config{
				App: app, Scenario: sc, Scheme: encoding.SchemeX86,
				Model: name, KeepResults: true,
			}
			exps, err := campaign.EnumerateConfig(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(exps) == 0 {
				t.Fatalf("%s enumerates no experiments", name)
			}
			if len(exps) > 64 {
				exps = sampleEvery(exps, 7)
			}
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
			if engine.Model != faultmodel.Canonical(name) {
				t.Errorf("engine Stats.Model = %q, want %q", engine.Model, faultmodel.Canonical(name))
			}
			if !reflect.DeepEqual(naive, engine) {
				t.Errorf("engine stats differ from naive reference\nnaive: %+v\nengine: %+v",
					statsSummary(naive), statsSummary(engine))
			}
		})
	}
}

// TestBitflipModelByteIdentity pins the wire-compatibility acceptance
// criterion: Model "" and Model "bitflip" are the same campaign — the
// paper's experiments in (target, byte, bit) order, and byte-identical
// engine Stats (Results and CrashLatencies order included). Together with
// TestDifferentialFTPClient1 (engine == naive for the zero model) and the
// bitflip case of TestModelDifferentialFTPClient1 (engine == naive under
// the explicit name), this proves the identity on both executor paths.
func TestBitflipModelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)

	legacy := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
	}
	named := legacy
	named.Model = "bitflip"

	legacyExps, err := campaign.EnumerateConfig(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	namedExps, err := campaign.EnumerateConfig(&named)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	var paper []inject.Experiment
	for _, tg := range targets {
		for b := range tg.Raw {
			for bit := 0; bit < 8; bit++ {
				paper = append(paper, inject.BitFlip(tg, b, bit, encoding.SchemeX86))
			}
		}
	}
	if !reflect.DeepEqual(legacyExps, paper) {
		t.Fatal(`EnumerateConfig(Model "") differs from the paper's (target, byte, bit) experiments`)
	}
	if !reflect.DeepEqual(namedExps, paper) {
		t.Fatal(`EnumerateConfig(Model "bitflip") differs from the paper's (target, byte, bit) experiments`)
	}

	legacyStats, err := campaign.New(legacy).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	namedStats, err := campaign.New(named).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if legacyStats.Model != "bitflip" || namedStats.Model != "bitflip" {
		t.Errorf("Stats.Model = %q / %q, want bitflip for both", legacyStats.Model, namedStats.Model)
	}
	if !reflect.DeepEqual(legacyStats, namedStats) {
		t.Errorf(`Model "" and Model "bitflip" campaigns differ`+"\nlegacy: %+v\nnamed: %+v",
			statsSummary(legacyStats), statsSummary(namedStats))
	}
}

// journalHeaderLine returns the journal's first line.
func journalHeaderLine(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // read-only
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatalf("journal %s is empty", path)
	}
	return sc.Text()
}

// TestJournalModelIdentitySkew pins the journal-side loud failure: run
// indices are model-specific, so resuming or replaying a journal under a
// different fault model must be refused with an error naming both models
// — never silently adopted.
func TestJournalModelIdentitySkew(t *testing.T) {
	app, sc := ftpClient1(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86,
		Model: "instskip", KeepResults: true, Journal: journal, Parallelism: 2,
	}
	want, err := campaign.New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The header records the model by name.
	if hdr := journalHeaderLine(t, journal); !strings.Contains(hdr, `"model":"instskip"`) {
		t.Errorf("journal header %q does not record the fault model", hdr)
	}

	// Resume under the zero model (bitflip): refused, both models named.
	skew := cfg
	skew.Model = ""
	if _, err := campaign.Resume(context.Background(), skew); err == nil {
		t.Error("resume of an instskip journal under bitflip succeeded")
	} else if !strings.Contains(err.Error(), "instskip") || !strings.Contains(err.Error(), "bitflip") {
		t.Errorf("model-skew resume error %q does not name both models", err)
	}

	// ReplayJournal under yet another model: refused before any
	// rehydration (the byteflip enumeration would assign these indices to
	// entirely different injections).
	replayCfg := cfg
	replayCfg.Model = "byteflip"
	replayExps, err := campaign.EnumerateConfig(&replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.ReplayJournal(&replayCfg, replayExps); err == nil {
		t.Error("ReplayJournal under a different model succeeded")
	} else if !strings.Contains(err.Error(), "fault model") {
		t.Errorf("model-skew replay error %q does not mention the fault model", err)
	}

	// Under the matching model the completed journal adopts every run.
	resumed, err := campaign.Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, resumed) {
		t.Errorf("matching-model resume differs from the original run\nrun: %+v\nresumed: %+v",
			statsSummary(want), statsSummary(resumed))
	}
}

// TestLegacyJournalReplaysAsBitflip pins backward compatibility: a
// bitflip journal's header carries no model field at all — the exact
// format written before fault models existed — and such a journal resumes
// under an explicit Model "bitflip" config unchanged.
func TestLegacyJournalReplaysAsBitflip(t *testing.T) {
	app, sc := ftpClient1(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86,
		KeepResults: true, Journal: journal, Parallelism: 2,
	}
	want, err := campaign.New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The wire format is the legacy one: no model key anywhere in the
	// header. (This is what makes pre-fault-model journals byte-compatible
	// — they are literally the same file.)
	if hdr := journalHeaderLine(t, journal); strings.Contains(hdr, "model") {
		t.Errorf("bitflip journal header %q carries a model field; legacy journals would mismatch", hdr)
	}

	named := cfg
	named.Model = "bitflip"
	resumed, err := campaign.Resume(context.Background(), named)
	if err != nil {
		t.Fatalf("explicit-bitflip resume of a legacy journal failed: %v", err)
	}
	want2 := want
	// The resumed stats carry the canonical model name either way.
	if resumed.Model != "bitflip" {
		t.Errorf("resumed Stats.Model = %q, want bitflip", resumed.Model)
	}
	if !reflect.DeepEqual(want2, resumed) {
		t.Errorf("legacy journal resume differs from the original run\nrun: %+v\nresumed: %+v",
			statsSummary(want2), statsSummary(resumed))
	}

	// ... while a non-bitflip config refuses the same legacy journal.
	skew := cfg
	skew.Model = "instskip"
	if _, err := campaign.Resume(context.Background(), skew); err == nil {
		t.Error("resume of a legacy bitflip journal under instskip succeeded")
	} else if !strings.Contains(err.Error(), "fault model") {
		t.Errorf("legacy-journal skew error %q does not mention the fault model", err)
	}
}

// TestModelResumeAfterCancelRoundTrip runs the cancel+resume lifecycle
// under a non-bitflip model: the journaled prefix plus the resumed
// remainder must reproduce an uninterrupted byteflip campaign byte for
// byte, proving the model's enumeration indexes identically across
// process generations.
func TestModelResumeAfterCancelRoundTrip(t *testing.T) {
	app, sc := ftpClient1(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86,
		Model: "byteflip", KeepResults: true,
		Journal: journal, CheckpointEvery: 16, Parallelism: 2,
	}

	ctx, cancel := context.WithCancel(context.Background())
	cfg.Progress = func(done, total int) {
		if done >= total/3 {
			cancel()
		}
	}
	if _, err := campaign.New(cfg).Run(ctx); err == nil {
		t.Fatal("canceled campaign returned no error")
	}

	cfg.Progress = nil
	resumed, err := campaign.Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	uncfg := cfg
	uncfg.Journal = ""
	want, err := campaign.New(uncfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, resumed) {
		t.Errorf("byteflip cancel+resume differs from uninterrupted run\nuninterrupted: %+v\nresumed: %+v",
			statsSummary(want), statsSummary(resumed))
	}
}
