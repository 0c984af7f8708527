package campaign_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/ftpd"
	"faultsec/internal/inject"
	"faultsec/internal/sshd"
	"faultsec/internal/target"
)

func ftpClient1(t testing.TB) (*target.App, target.Scenario) {
	t.Helper()
	app, err := ftpd.Build()
	if err != nil {
		t.Fatalf("build ftpd: %v", err)
	}
	sc, ok := app.Scenario("Client1")
	if !ok {
		t.Fatal("ftpd has no Client1")
	}
	return app, sc
}

// bitflips is the paper's experiment list over targets under scheme.
func bitflips(t testing.TB, targets []inject.Target, scheme encoding.Scheme) []inject.Experiment {
	t.Helper()
	m, err := faultmodel.Get("bitflip")
	if err != nil {
		t.Fatal(err)
	}
	return faultmodel.Enumerate(targets, scheme, m)
}

func naiveStats(t *testing.T, app *target.App, sc target.Scenario, scheme encoding.Scheme) *inject.Stats {
	t.Helper()
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	exps := bitflips(t, targets, scheme)
	stats, err := inject.RunExperimentsNaive(context.Background(), inject.Config{
		App: app, Scenario: sc, Scheme: scheme, KeepResults: true,
	}, exps)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestDifferentialFTPClient1 is the engine's acceptance gate: for the full
// FTP Client1 campaign under both encodings, the snapshot fast-forward
// path and the kill+resume path must produce Stats identical to the naive
// one-full-run-per-experiment path — including per-run Results.
func TestDifferentialFTPClient1(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	for _, scheme := range []encoding.Scheme{encoding.SchemeX86, encoding.SchemeParity} {
		scheme := scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			want := naiveStats(t, app, sc, scheme)
			if want.Total == 0 || want.Activated() == 0 {
				t.Fatalf("degenerate campaign: total=%d activated=%d", want.Total, want.Activated())
			}

			// Snapshot path.
			eng := campaign.New(campaign.Config{
				App: app, Scenario: sc, Scheme: scheme, KeepResults: true,
			})
			got, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("snapshot-path stats differ from naive\nnaive: %+v\nengine: %+v",
					statsSummary(want), statsSummary(got))
			}
			m := eng.Metrics()
			if m.SnapshotRuns == 0 {
				t.Error("engine never used a snapshot restore")
			}
			if m.NaiveRuns != 0 {
				t.Errorf("engine fell back to %d naive runs", m.NaiveRuns)
			}

			// Kill + resume path.
			journal := filepath.Join(t.TempDir(), "campaign.jsonl")
			cfg := campaign.Config{
				App: app, Scenario: sc, Scheme: scheme, KeepResults: true,
				Journal: journal, CheckpointEvery: 16,
			}
			ctx, cancel := context.WithCancel(context.Background())
			cfg.Progress = func(done, total int) {
				if done >= total/3 {
					cancel()
				}
			}
			_, err = campaign.New(cfg).Run(ctx)
			if err == nil {
				t.Fatal("canceled campaign returned no error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled campaign returned %v, want context.Canceled", err)
			}

			cfg.Progress = nil
			cfg.Journal = journal
			resumed, err := campaign.Resume(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, resumed) {
				t.Errorf("resumed stats differ from naive\nnaive: %+v\nresumed: %+v",
					statsSummary(want), statsSummary(resumed))
			}
		})
	}
}

func statsSummary(s *inject.Stats) map[string]any {
	return map[string]any{
		"total":   s.Total,
		"counts":  s.Counts,
		"window":  s.Window,
		"crashes": len(s.CrashLatencies),
	}
}

// TestResumeAdoptsJournaledRuns pins the resume bookkeeping: after a
// mid-flight kill, Resume must adopt the journaled prefix rather than
// re-run it, and a resume of a completed journal runs nothing at all.
func TestResumeAdoptsJournaledRuns(t *testing.T) {
	app, sc := ftpClient1(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86,
		Journal: journal, CheckpointEvery: 8, Parallelism: 2,
	}

	ctx, cancel := context.WithCancel(context.Background())
	// Progress fires concurrently from every worker; the capture must be
	// atomic or the test itself races.
	var canceledAt atomic.Int64
	cfg.Progress = func(done, total int) {
		if done >= total/4 {
			canceledAt.Store(int64(done))
			cancel()
		}
	}
	if _, err := campaign.New(cfg).Run(ctx); err == nil {
		t.Fatal("canceled campaign returned no error")
	}
	if canceledAt.Load() == 0 {
		t.Fatal("campaign finished before cancellation point")
	}

	cfg.Progress = nil
	resumed, err := campaign.Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Second resume: everything is journaled; no execution at all.
	eng2stats, err := campaign.Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, eng2stats) {
		t.Error("re-resume of a completed journal changed the stats")
	}

	// The completed journal adopts every run.
	e := campaign.New(cfg)
	full, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Counts, resumed.Counts) {
		t.Errorf("resumed counts %v != fresh counts %v", resumed.Counts, full.Counts)
	}
}

// TestResumeAfterCancelRoundTrip is the lifecycle acceptance gate: cancel
// a journaled campaign mid-wave, reopen the journal, Resume, and the
// merged Stats must be byte-identical to an uninterrupted run — including
// per-run Results. It also pins the cancellation error contract: a
// structured inject.CanceledError that unwraps to context.Canceled and
// does not stutter "canceled: context canceled".
func TestResumeAfterCancelRoundTrip(t *testing.T) {
	app, sc := ftpClient1(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
		Journal: journal, CheckpointEvery: 16, Parallelism: 2,
	}

	ctx, cancel := context.WithCancel(context.Background())
	cfg.Progress = func(done, total int) {
		if done >= total/3 {
			cancel()
		}
	}
	_, err := campaign.New(cfg).Run(ctx)
	if err == nil {
		t.Fatal("canceled campaign returned no error")
	}
	var ce *inject.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled campaign returned %T (%v), want *inject.CanceledError", err, err)
	}
	if ce.Done <= 0 || ce.Total <= 0 || ce.Done >= ce.Total {
		t.Errorf("CanceledError reports %d/%d runs", ce.Done, ce.Total)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
	if strings.Contains(err.Error(), "canceled: context canceled") {
		t.Errorf("cancellation error still stutters: %q", err)
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
		t.Errorf("cancel+resume stats differ from uninterrupted run\nuninterrupted: %+v\nresumed: %+v",
			statsSummary(want), statsSummary(resumed))
	}
}

// TestEngineJournalBusy pins the engine-level single-writer guard: while
// one engine holds a journal path, a second Run or Resume on the same
// path fails with ErrJournalBusy instead of interleaving records (or,
// worse, truncating the live journal).
func TestEngineJournalBusy(t *testing.T) {
	app, sc := ftpClient1(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, Journal: journal,
		Parallelism: 2,
	}

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blocked := cfg
	blocked.Progress = func(done, total int) {
		once.Do(func() { close(started) })
		<-release
	}
	runErr := make(chan error, 1)
	go func() {
		_, err := campaign.New(blocked).Run(context.Background())
		runErr <- err
	}()
	<-started

	if _, err := campaign.New(cfg).Run(context.Background()); !errors.Is(err, campaign.ErrJournalBusy) {
		t.Errorf("duplicate Run: err = %v, want ErrJournalBusy", err)
	}
	if _, err := campaign.Resume(context.Background(), cfg); !errors.Is(err, campaign.ErrJournalBusy) {
		t.Errorf("duplicate Resume: err = %v, want ErrJournalBusy", err)
	}

	close(release)
	if err := <-runErr; err != nil {
		t.Fatalf("blocked campaign failed: %v", err)
	}
	// The journal was never touched by the refused duplicates: a resume
	// adopts every run cleanly.
	resumed, err := campaign.Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := campaign.New(campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Counts, resumed.Counts) {
		t.Errorf("post-busy resume counts %v != fresh %v", resumed.Counts, fresh.Counts)
	}
}

// TestSnapshotFidelity samples experiments across both servers and checks
// that Snapshot+Restore+flip reproduces the from-scratch injected run
// exactly: same outcome, same classification detail, same crash latency.
func TestSnapshotFidelity(t *testing.T) {
	apps := make([]*target.App, 0, 2)
	fapp, err := ftpd.Build()
	if err != nil {
		t.Fatal(err)
	}
	sapp, err := sshd.Build()
	if err != nil {
		t.Fatal(err)
	}
	apps = append(apps, fapp, sapp)

	for _, app := range apps {
		sc, _ := app.Scenario("Client1")
		targets, err := inject.Targets(app)
		if err != nil {
			t.Fatal(err)
		}
		exps := bitflips(t, targets, encoding.SchemeX86)
		golden, err := inject.GoldenRun(app, sc, 0)
		if err != nil {
			t.Fatal(err)
		}

		// Sample broadly: every 13th experiment hits many targets, byte
		// positions, and bit positions.
		var sample []inject.Experiment
		for i := 0; i < len(exps); i += 13 {
			sample = append(sample, exps[i])
		}

		eng := campaign.New(campaign.Config{
			App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
		})
		got, err := eng.RunExperiments(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Metrics().SnapshotRuns == 0 {
			t.Fatalf("%s: fidelity sample exercised no snapshot restores", app.Name)
		}

		crashes := 0
		for i, ex := range sample {
			want, err := inject.RunOne(app, sc, golden, ex, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want.Crashed {
				crashes++
			}
			if !reflect.DeepEqual(want, got.Results[i]) {
				t.Errorf("%s %s@%#x bitflip %d: snapshot run %+v != from-scratch %+v",
					app.Name, ex.Target.Func, ex.Target.Addr, ex.ModelIdx,
					got.Results[i], want)
			}
		}
		if crashes == 0 {
			t.Errorf("%s: fidelity sample contains no crashes; widen the sample", app.Name)
		}
	}
}

// TestJournalRejectsForeignCampaign pins the resume safety check: a journal
// written for one campaign must not silently seed another.
func TestJournalRejectsForeignCampaign(t *testing.T) {
	app, sc := ftpClient1(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, Journal: journal,
		Parallelism: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Progress = func(done, total int) {
		if done > 8 {
			cancel()
		}
	}
	_, _ = campaign.New(cfg).Run(ctx)

	wrong := cfg
	wrong.Progress = nil
	wrong.Scheme = encoding.SchemeParity
	if _, err := campaign.Resume(context.Background(), wrong); err == nil {
		t.Error("resume under a different scheme accepted a mismatched journal")
	}

	wrong = cfg
	wrong.Progress = nil
	sc2, _ := app.Scenario("Client2")
	wrong.Scenario = sc2
	if _, err := campaign.Resume(context.Background(), wrong); err == nil {
		t.Error("resume under a different scenario accepted a mismatched journal")
	}
}

// TestJournalToleratesTruncatedTail simulates a crash mid-append: the
// final, half-written line must be ignored and its experiment re-run.
func TestJournalToleratesTruncatedTail(t *testing.T) {
	app, sc := ftpClient1(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, Journal: journal,
		Parallelism: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Progress = func(done, total int) {
		if done > 16 {
			cancel()
		}
	}
	_, _ = campaign.New(cfg).Run(ctx)

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Progress = nil
	resumed, err := campaign.Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.New(campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Counts, resumed.Counts) {
		t.Errorf("truncated-journal resume counts %v != fresh %v", resumed.Counts, want.Counts)
	}
}
