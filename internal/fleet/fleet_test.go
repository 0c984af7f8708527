package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultsec/internal/campaign"
	"faultsec/internal/castore"
	"faultsec/internal/cc"
	"faultsec/internal/encoding"
	"faultsec/internal/fleet"
	"faultsec/internal/ftpd"
	"faultsec/internal/inject"
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

// engineStats is the single-process reference every fleet test compares
// against (the engine itself is differentially tested against the naive
// path in internal/campaign).
func engineStats(t testing.TB, app *target.App, sc target.Scenario) *inject.Stats {
	t.Helper()
	stats, err := campaign.New(campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func fleetConfig(app *target.App, sc target.Scenario, workers ...fleet.Worker) fleet.Config {
	return fleet.Config{
		Campaign: campaign.Config{
			App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
		},
		Workers:   workers,
		ShardRuns: 64, // force a multi-shard plan on the FTP campaign
	}
}

func requireIdentical(t *testing.T, want, got *inject.Stats) {
	t.Helper()
	if got == nil {
		t.Fatal("fleet produced nil stats")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fleet stats differ from single-process engine\nwant total=%d counts=%v crashes=%d\ngot  total=%d counts=%v crashes=%d",
			want.Total, want.Counts, len(want.CrashLatencies),
			got.Total, got.Counts, len(got.CrashLatencies))
	}
}

// TestFleetLoopbackIdentity: two in-process workers splitting the FTP
// Client1 campaign produce byte-identical Stats to one engine run.
func TestFleetLoopbackIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	want := engineStats(t, app, sc)

	co := fleet.New(fleetConfig(app, sc,
		fleet.NewLoopback("w0", app), fleet.NewLoopback("w1", app)))
	got, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)

	m := co.Metrics()
	if m.ShardsDone != m.ShardsTotal || m.ShardsTotal < 2 {
		t.Errorf("shards done %d/%d, want all of >=2", m.ShardsDone, m.ShardsTotal)
	}
	if m.RunsTotal != int64(want.Total) {
		t.Errorf("fresh runs %d, want %d", m.RunsTotal, want.Total)
	}
	var workerRuns int64
	for _, w := range m.Workers {
		workerRuns += w.Runs
	}
	if workerRuns != m.RunsTotal {
		t.Errorf("per-worker runs sum to %d, want %d", workerRuns, m.RunsTotal)
	}
}

// TestFleetHTTPIdentity: the same campaign over two worker processes'
// worth of HTTP servers (shard specs and NDJSON streams on the wire).
func TestFleetHTTPIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	want := engineStats(t, app, sc)

	apps := map[string]*target.App{app.Name: app}
	var workers []fleet.Worker
	for i := 0; i < 2; i++ {
		mux := http.NewServeMux()
		mux.Handle(fleet.PathShards, fleet.NewWorkerServer(apps, nil))
		mux.HandleFunc(fleet.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		srv := httptest.NewServer(mux)
		defer srv.Close()
		workers = append(workers, fleet.NewHTTPWorker(srv.URL, srv.Client()))
	}

	co := fleet.New(fleetConfig(app, sc, workers...))
	got, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
}

// truncatingHandler serves PathShards like a real worker, but its first
// response stops after three result lines with no done-line — exactly
// what a coordinator sees when a worker process dies mid-shard. Every
// later request is served by the real WorkerServer.
type truncatingHandler struct {
	real    *fleet.WorkerServer
	local   *fleet.Loopback
	tripped atomic.Bool
}

func (h *truncatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tripped.Swap(true) {
		h.real.ServeHTTP(w, r)
		return
	}
	var spec fleet.ShardSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	type line struct {
		Idx    int                  `json:"idx"`
		Result *campaign.WireResult `json:"result"`
	}
	var mu sync.Mutex
	var lines []line
	_, err := h.local.RunShard(r.Context(), spec, func(idx int, res *campaign.WireResult) {
		mu.Lock()
		lines = append(lines, line{Idx: idx, Result: res})
		mu.Unlock()
	})
	if err != nil || len(lines) < 4 {
		http.Error(w, "shard too small to truncate", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, l := range lines[:3] {
		_ = enc.Encode(l)
	}
	// Return without a done-line: the chunked body ends early and the
	// client must treat the stream as a dead worker.
}

// TestFleetRetriesTruncatedStream: a worker that dies mid-shard (stream
// cut before the done-line) is retried, the duplicate deliveries of the
// already-streamed runs verify byte-identical, and the final Stats still
// match the single-process engine.
func TestFleetRetriesTruncatedStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	want := engineStats(t, app, sc)

	apps := map[string]*target.App{app.Name: app}
	h := &truncatingHandler{
		real:  fleet.NewWorkerServer(apps, nil),
		local: fleet.NewLoopback("truncator-local", app),
	}
	mux := http.NewServeMux()
	mux.Handle(fleet.PathShards, h)
	mux.HandleFunc(fleet.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cfg := fleetConfig(app, sc, fleet.NewHTTPWorker(srv.URL, srv.Client()))
	cfg.RetryBase = time.Millisecond
	co := fleet.New(cfg)
	got, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)

	m := co.Metrics()
	if m.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (first shard stream was truncated)", m.Retries)
	}
	if m.DuplicateRuns < 3 {
		t.Errorf("duplicate runs = %d, want >= 3 (truncated attempt streamed 3 results)", m.DuplicateRuns)
	}
	requireIdentical(t, want, got)
}

// stuckWorker leases a shard and hangs until canceled. It exercises the
// straggler path: the healthy worker drains the rest of the plan, then
// speculatively re-runs the stuck shard and wins.
type stuckWorker struct{ leased atomic.Int64 }

func (s *stuckWorker) Name() string                  { return "stuck" }
func (s *stuckWorker) Healthy(context.Context) error { return nil }
func (s *stuckWorker) RunShard(ctx context.Context, spec fleet.ShardSpec, emit func(int, *campaign.WireResult)) (campaign.Work, error) {
	s.leased.Add(1)
	<-ctx.Done()
	return campaign.Work{}, ctx.Err()
}

func TestFleetSpeculatesOnStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	want := engineStats(t, app, sc)

	stuck := &stuckWorker{}
	cfg := fleetConfig(app, sc, stuck, fleet.NewLoopback("fast", app))
	cfg.StragglerAfter = 20 * time.Millisecond
	co := fleet.New(cfg)
	got, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)

	m := co.Metrics()
	if stuck.leased.Load() < 1 {
		t.Fatal("stuck worker never leased a shard; test exercised nothing")
	}
	if m.SpeculativeAttempts < 1 {
		t.Errorf("speculative attempts = %d, want >= 1", m.SpeculativeAttempts)
	}
}

// TestFleetDeadFleetFailsDeterministically: when every attempt fails
// (here: a worker whose shard endpoint always answers 503), the campaign
// fails by attempt exhaustion instead of hanging.
func TestFleetDeadFleetFailsDeterministically(t *testing.T) {
	app, sc := ftpClient1(t)

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	cfg := fleetConfig(app, sc, fleet.NewHTTPWorker(srv.URL, srv.Client()))
	cfg.RetryBase = time.Millisecond
	cfg.MaxAttempts = 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := fleet.New(cfg).Run(ctx)
	if err == nil {
		t.Fatal("expected failure, got success from a dead fleet")
	}
	if ctx.Err() != nil {
		t.Fatalf("campaign hung until the test deadline: %v", err)
	}
	if want := "failed 2 attempts"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// countingWorker is a loopback worker that counts the shards leased to it.
type countingWorker struct {
	*fleet.Loopback
	shards atomic.Int64
}

func (w *countingWorker) RunShard(ctx context.Context, spec fleet.ShardSpec, emit func(int, *campaign.WireResult)) (campaign.Work, error) {
	w.shards.Add(1)
	return w.Loopback.RunShard(ctx, spec, emit)
}

// TestFleetGoldenFailureFailsBeforeLeasing: the coordinator runs the
// fault-free session once before planning, so a campaign whose session
// cannot exit cleanly (fuel too small) fails with the golden run's own
// error, with no retry and no shard leased.
func TestFleetGoldenFailureFailsBeforeLeasing(t *testing.T) {
	app, sc := ftpClient1(t)
	w := &countingWorker{Loopback: fleet.NewLoopback("w0", app)}
	cfg := fleetConfig(app, sc, w)
	cfg.Campaign.Fuel = 100
	cfg.RetryBase = time.Millisecond
	co := fleet.New(cfg)
	_, err := co.Run(context.Background())
	if err == nil || !strings.HasPrefix(err.Error(), "inject: golden run") {
		t.Fatalf("error %v, want the golden run's own error", err)
	}
	if m := co.Metrics(); m.Retries != 0 {
		t.Errorf("%d retries, want 0", m.Retries)
	}
	if n := w.shards.Load(); n != 0 {
		t.Errorf("worker ran %d shards, want 0", n)
	}
}

// TestFleetJournalCancelResume: a fleet campaign canceled mid-flight
// leaves a journal that (a) a fresh coordinator resumes to byte-identical
// Stats, and (b) crucially, is the same format the single-process engine
// writes — the engine resumes a fleet journal directly.
func TestFleetJournalCancelResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	want := engineStats(t, app, sc)

	for _, finisher := range []string{"fleet", "engine"} {
		finisher := finisher
		t.Run("finish="+finisher, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "fleet.jsonl")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			var seen atomic.Int64
			cfg := fleetConfig(app, sc,
				fleet.NewLoopback("w0", app), fleet.NewLoopback("w1", app))
			cfg.Campaign.Journal = journal
			cfg.Campaign.Progress = func(int, int) {
				if seen.Add(1) == 40 {
					cancel()
				}
			}
			_, err := fleet.New(cfg).Run(ctx)
			var canceled *inject.CanceledError
			if !errors.As(err, &canceled) {
				t.Fatalf("want CanceledError, got %v", err)
			}
			if canceled.Done == 0 || canceled.Done >= want.Total {
				t.Fatalf("canceled after %d/%d runs; need a genuine partial campaign", canceled.Done, want.Total)
			}

			var got *inject.Stats
			var progress campaign.Progress
			var adopted int64
			switch finisher {
			case "fleet":
				rcfg := fleetConfig(app, sc,
					fleet.NewLoopback("w0", app), fleet.NewLoopback("w1", app))
				rcfg.Campaign.Journal = journal
				co := fleet.New(rcfg)
				if got, err = co.Resume(context.Background()); err != nil {
					t.Fatal(err)
				}
				if m := co.Metrics(); m.JournalAdopted < int64(canceled.Done) {
					t.Errorf("resume adopted %d journaled runs, want >= %d", m.JournalAdopted, canceled.Done)
				}
				progress, adopted = co.Progress(), co.Metrics().JournalAdopted
			case "engine":
				eng := campaign.New(campaign.Config{
					App: app, Scenario: sc, Scheme: encoding.SchemeX86,
					KeepResults: true, Journal: journal,
				})
				got, err = eng.Resume(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				progress, adopted = eng.Progress(), eng.Metrics().JournalAdopted
			}
			requireIdentical(t, want, got)
			// Both finishers keep one ledger: every run is done, the counts
			// are the reference Stats', and exactly the canceled campaign's
			// journaled runs are adopted.
			if progress.Done != want.Total || progress.Total != want.Total {
				t.Errorf("final progress %d/%d, want %d/%d", progress.Done, progress.Total, want.Total, want.Total)
			}
			wantCounts := map[string]int{}
			for o, n := range want.Counts {
				if n > 0 {
					wantCounts[o.String()] = n
				}
			}
			if !reflect.DeepEqual(progress.Counts, wantCounts) {
				t.Errorf("final progress counts %v, want %v", progress.Counts, wantCounts)
			}
			if adopted != int64(canceled.Done) {
				t.Errorf("metrics report %d journal-adopted runs, want the %d the canceled campaign journaled", adopted, canceled.Done)
			}
		})
	}
}

func cacheStore(t testing.TB) *castore.Store {
	t.Helper()
	store, err := castore.Open(filepath.Join(t.TempDir(), "castore"))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return store
}

// cachedFleetConfig wires one loopback worker and the coordinator's
// result store into a readwrite fleet campaign over app.
func cachedFleetConfig(app *target.App, sc target.Scenario, store *castore.Store) fleet.Config {
	lb := fleet.NewLoopback("w0", app)
	cfg := fleetConfig(app, sc, lb)
	cfg.Campaign.Cache = store
	cfg.Campaign.CacheMode = campaign.CacheReadWrite
	return cfg
}

// TestFleetCacheWarmAdoptsEverything: a cold readwrite fleet run persists
// every target group; a warm rerun adopts all of them before leasing, so
// no shard executes, no worker runs, and the Stats stay byte-identical.
func TestFleetCacheWarmAdoptsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	want := engineStats(t, app, sc)
	store := cacheStore(t)

	co := fleet.New(cachedFleetConfig(app, sc, store))
	cold, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, cold)
	// The coordinator is the store's only writer: its ledger persists each
	// target group as the delivered results complete it, so the store must
	// be populated.
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Error("cold fleet run persisted no cache entries")
	}
	cm := co.Metrics()
	if cm.CacheMisses == 0 || cm.CacheHits != 0 {
		t.Errorf("cold fleet counters hits=%d misses=%d, want 0/>0", cm.CacheHits, cm.CacheMisses)
	}

	co2 := fleet.New(cachedFleetConfig(app, sc, store))
	warm, err := co2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, warm)
	wm := co2.Metrics()
	if wm.CacheHits != int64(want.Total) {
		t.Errorf("warm fleet adopted %d of %d runs", wm.CacheHits, want.Total)
	}
	if wm.RunsTotal != 0 {
		t.Errorf("warm fleet executed %d fresh runs, want 0", wm.RunsTotal)
	}
	for _, w := range wm.Workers {
		if w.Runs != 0 {
			t.Errorf("worker %s executed %d runs on a fully warm store", w.Name, w.Runs)
		}
	}
}

// TestFleetIncrementalRebuildIdentity is the fleet half of the FastFlip
// acceptance test: after a one-function rebuild (retr hardened — a
// function Client1's denied session never executes), a warm fleet
// resubmit adopts the function-keyed groups of unchanged functions from
// the base image's store, re-executes only the whole-text-keyed escaping
// groups, and merges to Stats byte-identical to a cold engine run of the
// rebuilt image.
func TestFleetIncrementalRebuildIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	store := cacheStore(t)
	if _, err := fleet.New(cachedFleetConfig(app, sc, store)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	mod, err := app.ForCodegen(cc.Options{DupCompares: true, HardenFuncs: "retr"})
	if err != nil {
		t.Fatalf("rebuild with hardened retr: %v", err)
	}
	modSc, ok := mod.Scenario(sc.Name)
	if !ok {
		t.Fatalf("rebuilt app lost scenario %s", sc.Name)
	}
	want := engineStats(t, mod, modSc)

	co := fleet.New(cachedFleetConfig(mod, modSc, store))
	got, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
	m := co.Metrics()
	if m.CacheHits == 0 {
		t.Error("rebuilt-image fleet run adopted nothing from the base store")
	}
	if m.CacheMisses == 0 {
		t.Error("no run re-executed on the rebuilt image (expected the escaping groups to miss)")
	}
	if m.CacheHits+m.CacheMisses != int64(want.Total) {
		t.Errorf("hits+misses = %d, want total %d", m.CacheHits+m.CacheMisses, want.Total)
	}
	if m.RunsTotal == 0 {
		t.Error("warm incremental fleet run reports zero fresh runs despite misses")
	}
}

// TestFleetMetricsBeforeRunAreZero is the elapsed-time regression gate for
// the coordinator: before Run, rate fields must be zero, not computed
// against a zero start time.
func TestFleetMetricsBeforeRunAreZero(t *testing.T) {
	app, sc := ftpClient1(t)
	co := fleet.New(fleetConfig(app, sc, fleet.NewLoopback("w0", app)))
	if m := co.Metrics(); m.RunsPerSec != 0 {
		t.Errorf("metrics before Run: runsPerSec=%v, want 0", m.RunsPerSec)
	}
	p := co.Progress()
	if p.Done != 0 || p.ElapsedSeconds != 0 || p.RunsPerSec != 0 || p.ETASeconds != 0 {
		t.Errorf("progress before Run: %+v, want zeros", p)
	}
}
