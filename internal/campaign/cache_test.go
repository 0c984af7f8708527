package campaign_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/castore"
	"faultsec/internal/cc"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

func openStore(t testing.TB) *castore.Store {
	t.Helper()
	store, err := castore.Open(filepath.Join(t.TempDir(), "castore"))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return store
}

func cachedConfig(app *target.App, sc target.Scenario, store *castore.Store, mode string) campaign.Config {
	return campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
		Cache: store, CacheMode: mode,
	}
}

func runCached(t *testing.T, cfg campaign.Config) (*inject.Stats, campaign.Metrics) {
	t.Helper()
	stats, m, _ := runCachedProgress(t, cfg)
	return stats, m
}

// runCachedProgress is runCached that also returns the engine's final
// Progress.
func runCachedProgress(t *testing.T, cfg campaign.Config) (*inject.Stats, campaign.Metrics, campaign.Progress) {
	t.Helper()
	eng := campaign.New(cfg)
	stats, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return stats, eng.Metrics(), eng.Progress()
}

// TestCacheWarmRunIdentity is the cache's basic soundness gate: a cold
// readwrite run populates the store, and a warm rerun of the identical
// campaign adopts every run from it — with Stats (including per-run
// Results and CrashLatencies order) byte-identical to the cold run, which
// itself must be byte-identical to a cache-less run. The warm run executes
// nothing, so its Progress reports no throughput and no ETA.
func TestCacheWarmRunIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	baseline, _ := runCached(t, campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
	})

	store := openStore(t)
	cold, cm := runCached(t, cachedConfig(app, sc, store, campaign.CacheReadWrite))
	if !reflect.DeepEqual(baseline, cold) {
		t.Error("cold readwrite run differs from cache-less run")
	}
	if cm.CacheHits != 0 || cm.CacheMisses == 0 || cm.CacheWrites == 0 {
		t.Errorf("cold run counters hits=%d misses=%d writes=%d, want 0/>0/>0",
			cm.CacheHits, cm.CacheMisses, cm.CacheWrites)
	}

	warm, wm, wp := runCachedProgress(t, cachedConfig(app, sc, store, campaign.CacheReadWrite))
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm stats differ from cold\ncold: %+v\nwarm: %+v",
			statsSummary(cold), statsSummary(warm))
	}
	if wp.Done != cold.Total || wp.RunsPerSec != 0 || wp.ETASeconds != 0 {
		t.Errorf("fully warm run progress done=%d runsPerSec=%g eta=%gs, want %d/0/0: cache-adopted runs are not fresh",
			wp.Done, wp.RunsPerSec, wp.ETASeconds, cold.Total)
	}
	if wm.CacheHits != int64(cold.Total) {
		t.Errorf("warm run adopted %d of %d runs from cache", wm.CacheHits, cold.Total)
	}
	if wm.CacheMisses != 0 || wm.CacheInvalid != 0 {
		t.Errorf("warm run misses=%d invalid=%d, want 0/0", wm.CacheMisses, wm.CacheInvalid)
	}
	if wm.CacheWrites != 0 {
		t.Errorf("warm run rewrote %d entries, want duplicate-verified no-ops", wm.CacheWrites)
	}
}

// TestCacheMissAndCorruptEntryRecovery pins the failure modes that must
// degrade to re-execution, never to wrong merges: a deleted entry is a
// plain miss, a corrupted entry is detected and counted, and the mixed
// hit/miss/invalid rerun still produces byte-identical Stats.
func TestCacheMissAndCorruptEntryRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	store := openStore(t)
	cold, _ := runCached(t, cachedConfig(app, sc, store, campaign.CacheReadWrite))

	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 2 {
		t.Fatalf("cold run left %d entries, want >=2 for a mixed rerun", len(keys))
	}
	// One entry vanishes (miss), one is torn mid-payload (corrupt).
	if err := os.Remove(filepath.Join(store.Dir(), keys[0])); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(store.Dir(), keys[1])
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	warm, wm := runCached(t, cachedConfig(app, sc, store, campaign.CacheReadWrite))
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("mixed hit/miss stats differ from cold\ncold: %+v\nwarm: %+v",
			statsSummary(cold), statsSummary(warm))
	}
	if wm.CacheHits == 0 || wm.CacheMisses == 0 {
		t.Errorf("mixed rerun hits=%d misses=%d, want both >0", wm.CacheHits, wm.CacheMisses)
	}
	if wm.CacheInvalid == 0 {
		t.Errorf("corrupt entry was not counted (invalid=%d)", wm.CacheInvalid)
	}
	if wm.CacheWrites == 0 {
		t.Error("re-executed groups were not written back")
	}
	if wm.CacheHits+wm.CacheMisses != int64(cold.Total) {
		t.Errorf("hits+misses = %d, want total %d", wm.CacheHits+wm.CacheMisses, cold.Total)
	}
}

// TestCacheReadModeNeverWrites: "read" adopts what exists but leaves the
// store untouched.
func TestCacheReadModeNeverWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	store := openStore(t)

	cold, cm := runCached(t, cachedConfig(app, sc, store, campaign.CacheRead))
	if cm.CacheWrites != 0 {
		t.Errorf("read-mode run wrote %d entries", cm.CacheWrites)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("read-mode run left %d entries in the store", len(keys))
	}
	baseline, _ := runCached(t, campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
	})
	if !reflect.DeepEqual(baseline, cold) {
		t.Error("read-mode run differs from cache-less run")
	}
}

// TestCacheIncrementalRebuildIdentity is the FastFlip acceptance test: a
// one-function rebuild of the target (retr hardened via cc.Options, a
// function the denied-login Client1 session never executes) leaves the
// function-section keys of every non-escaping auth-function group intact,
// so a warm resubmit of the rebuilt image adopts those groups from the
// base image's store and re-executes only the groups whose keyed section
// changed — the escaping groups, keyed over the whole text section — with
// merged Stats byte-identical to a cold run of the rebuilt image.
func TestCacheIncrementalRebuildIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	store := openStore(t)
	runCached(t, cachedConfig(app, sc, store, campaign.CacheReadWrite))

	mod, err := app.ForCodegen(cc.Options{DupCompares: true, HardenFuncs: "retr"})
	if err != nil {
		t.Fatalf("rebuild with hardened retr: %v", err)
	}
	if len(mod.Image.Text) == len(app.Image.Text) {
		t.Fatal("hardened rebuild did not change the text section; the test would prove nothing")
	}
	modSc, ok := mod.Scenario(sc.Name)
	if !ok {
		t.Fatalf("rebuilt app lost scenario %s", sc.Name)
	}

	// Reference: a cold, cache-less campaign over the rebuilt image.
	modCold, _ := runCached(t, campaign.Config{
		App: mod, Scenario: modSc, Scheme: encoding.SchemeX86, KeepResults: true,
	})

	modWarm, wm := runCached(t, cachedConfig(mod, modSc, store, campaign.CacheReadWrite))
	if !reflect.DeepEqual(modCold, modWarm) {
		t.Errorf("incremental stats differ from cold run of rebuilt image\ncold: %+v\nwarm: %+v",
			statsSummary(modCold), statsSummary(modWarm))
		for i := range modCold.Results {
			if !reflect.DeepEqual(modCold.Results[i], modWarm.Results[i]) {
				t.Errorf("first differing run %d:\nexp:  %+v\ncold: %+v\nwarm: %+v",
					i, modCold.Results[i].Experiment, modCold.Results[i], modWarm.Results[i])
				break
			}
		}
	}
	if wm.CacheHits == 0 {
		t.Error("rebuilt-image warm run adopted nothing from the base image's store")
	}
	if wm.CacheMisses == 0 {
		t.Error("no group re-executed on the rebuilt image (expected the escaping groups to miss)")
	}
	if wm.CacheHits+wm.CacheMisses != int64(modCold.Total) {
		t.Errorf("hits+misses = %d, want total %d", wm.CacheHits+wm.CacheMisses, modCold.Total)
	}
}

// TestCacheWarmRunIsJournaledAndResumable: adopted runs flow through the
// same finish path as fresh ones, so a journaled warm campaign's journal
// replays into a full Resume — the cache must not punch holes in
// crash-safety.
func TestCacheWarmRunIsJournaledAndResumable(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential is not short")
	}
	app, sc := ftpClient1(t)
	store := openStore(t)
	cold, _ := runCached(t, cachedConfig(app, sc, store, campaign.CacheReadWrite))

	cfg := cachedConfig(app, sc, store, campaign.CacheRead)
	cfg.Journal = filepath.Join(t.TempDir(), "warm.jsonl")
	warm, _ := runCached(t, cfg)
	if !reflect.DeepEqual(cold, warm) {
		t.Error("journaled warm run differs from cold run")
	}

	// The journal now records every adopted run; a Resume over it adopts
	// everything and executes nothing new.
	resumed, err := campaign.Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, resumed) {
		t.Error("resume of a warm campaign's journal differs from cold run")
	}
}

// TestNormalizeCacheMode pins the knob's accepted spellings.
func TestNormalizeCacheMode(t *testing.T) {
	for in, want := range map[string]string{
		"":                      campaign.CacheOff,
		campaign.CacheOff:       campaign.CacheOff,
		campaign.CacheRead:      campaign.CacheRead,
		campaign.CacheReadWrite: campaign.CacheReadWrite,
	} {
		got, err := campaign.NormalizeCacheMode(in)
		if err != nil || got != want {
			t.Errorf("NormalizeCacheMode(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := campaign.NormalizeCacheMode("write"); err == nil {
		t.Error("NormalizeCacheMode(\"write\") did not fail")
	}
}

// TestMetricsBeforeRunAreZero is the elapsed-time regression gate: a
// just-constructed engine must report zero rates, not divide against a
// zero start time.
func TestMetricsBeforeRunAreZero(t *testing.T) {
	app, sc := ftpClient1(t)
	eng := campaign.New(campaign.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86})
	m := eng.Metrics()
	if m.RunsPerSec != 0 || m.WorkerUtilization != 0 {
		t.Errorf("metrics before Run: runsPerSec=%v utilization=%v, want 0/0",
			m.RunsPerSec, m.WorkerUtilization)
	}
	p := eng.Progress()
	if p.Done != 0 || p.ElapsedSeconds != 0 || p.RunsPerSec != 0 {
		t.Errorf("progress before Run: done=%d elapsed=%v runsPerSec=%v, want zeros",
			p.Done, p.ElapsedSeconds, p.RunsPerSec)
	}
}
