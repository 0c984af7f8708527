package campaign

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// fakeCampaign is a config and an n-experiment, 8-bits-per-target
// enumeration that exercise the ledger without building an application.
func fakeCampaign(t testing.TB, n int, journal bool) (*Config, []inject.Experiment) {
	t.Helper()
	cfg := &Config{
		App:      &target.App{Name: "fake"},
		Scenario: target.Scenario{Name: "s"},
		Scheme:   encoding.SchemeX86,
	}
	if journal {
		cfg.Journal = filepath.Join(t.TempDir(), "ledger.jsonl")
	}
	exps := make([]inject.Experiment, n)
	for i := range exps {
		exps[i] = inject.Experiment{Target: inject.Target{Addr: uint32(0x1000 + 16*(i/8))}, Model: "bitflip", ModelIdx: i % 8}
	}
	return cfg, exps
}

// fakeResult is a deterministic result for experiment i, built through
// the wire form so a journal replay reproduces it exactly.
func fakeResult(exps []inject.Experiment, i int) inject.Result {
	o := classify.Outcomes()[i%len(classify.Outcomes())]
	wr := &WireResult{Outcome: o, Location: classify.Location(1 + i%2), Activated: o != classify.OutcomeNA}
	if o == classify.OutcomeSD {
		wr.Crashed, wr.CrashLatency, wr.FaultKind = true, uint64(10+i), "SIGSEGV"
	}
	return wr.ToResult(exps[i])
}

func journalLines(t *testing.T, path, recType string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(b), `{"type":"`+recType+`"`)
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestLedgerRecordOnce: the first record of an index wins; an equal repeat
// is a counted duplicate that adds no journal line, and a differing repeat
// is a determinism error naming the index.
func TestLedgerRecordOnce(t *testing.T) {
	cfg, exps := fakeCampaign(t, 16, true)
	var hooks int
	cfg.Progress = func(int, int) { hooks++ }
	l, err := OpenLedger(cfg, exps, false)
	if err != nil {
		t.Fatal(err)
	}
	res := fakeResult(exps, 7)
	if first, err := l.Record(7, res); !first || err != nil {
		t.Fatalf("first record: first=%v err=%v", first, err)
	}
	if first, err := l.Record(7, res); first || err != nil {
		t.Fatalf("equal repeat: first=%v err=%v, want a silent duplicate", first, err)
	}
	if got := l.Tally(); got.Done != 1 || got.Duplicates != 1 {
		t.Errorf("tally %+v, want Done 1 and Duplicates 1", got)
	}
	if hooks != 1 {
		t.Errorf("Progress fired %d times, want once", hooks)
	}
	if n := journalLines(t, cfg.Journal, recordRun); n != 1 {
		t.Errorf("journal holds %d run records, want 1", n)
	}

	differing := res
	differing.Outcome = classify.OutcomeBRK
	if _, err := l.Record(7, differing); err == nil || !strings.Contains(err.Error(), "experiment 7") {
		t.Errorf("differing repeat: err = %v, want a determinism error naming experiment 7", err)
	}
	if _, err := l.Finish(context.Background(), errors.New("stop")); err == nil {
		t.Fatal("Finish with an error returned no error")
	}
}

// TestLedgerProgressFormula: fresh runs are done minus journal- and
// cache-adopted ones, and only they make throughput and an ETA.
func TestLedgerProgressFormula(t *testing.T) {
	cfg, exps := fakeCampaign(t, 10, true)
	first, err := OpenLedger(cfg, exps, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := first.Record(i, fakeResult(exps, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := first.Finish(canceledCtx(), nil); err == nil {
		t.Fatal("canceled Finish returned no error")
	}

	l, err := OpenLedger(cfg, exps, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Finish(canceledCtx(), nil) //nolint:errcheck // releases the journal
	for i := 3; i < 5; i++ {
		if _, err := l.record(i, fakeResult(exps, i), true); err != nil {
			t.Fatal(err)
		}
	}
	// Pin the clock: 10 s of campaign wall time.
	t0 := time.Now()
	l.mu.Lock()
	l.start, l.end = t0, t0.Add(10*time.Second)
	l.mu.Unlock()

	p := l.Progress()
	if p.Done != 5 || p.Total != 10 || p.RunsPerSec != 0 || p.ETASeconds != 0 {
		t.Errorf("adopted-only progress %+v, want done 5/10 and zero runs/s and ETA", p)
	}
	if got := l.Tally(); got != (Tally{Done: 5, JournalAdopted: 3, CacheAdopted: 2}) || got.Fresh() != 0 {
		t.Errorf("tally %+v", got)
	}

	if _, err := l.Record(5, fakeResult(exps, 5)); err != nil {
		t.Fatal(err)
	}
	p = l.Progress()
	if p.Done != 6 || math.Abs(p.RunsPerSec-0.1) > 1e-9 || math.Abs(p.ETASeconds-40) > 1e-6 {
		t.Errorf("progress %+v, want done 6, 1 fresh run in 10 s = 0.1 runs/s, ETA 4/0.1 = 40 s", p)
	}
	want := map[string]int{}
	for i := 0; i < 6; i++ {
		want[fakeResult(exps, i).Outcome.String()]++
	}
	if !reflect.DeepEqual(p.Counts, want) {
		t.Errorf("counts %v, want %v", p.Counts, want)
	}
}

// TestLedgerZeroBeforeOpen: an executor polled before Run holds no ledger;
// every accessor reports zeros, with a non-nil empty Counts map.
func TestLedgerZeroBeforeOpen(t *testing.T) {
	var l *Ledger
	p := l.Progress()
	if p.Done != 0 || p.Total != 0 || p.ElapsedSeconds != 0 || p.RunsPerSec != 0 || p.ETASeconds != 0 {
		t.Errorf("progress %+v, want zeros", p)
	}
	if p.Counts == nil || len(p.Counts) != 0 {
		t.Errorf("counts %v, want an empty map", p.Counts)
	}
	if l.Tally() != (Tally{}) || l.Elapsed() != 0 || l.CacheCounters() != (CacheCounters{}) {
		t.Error("nil ledger reports nonzero tally, elapsed time or cache")
	}
}

// TestLedgerCancelReplaysEqual: a ledger finished by a cancel closes its
// journal with a final checkpoint, and a resume replays it into an equal
// ledger.
func TestLedgerCancelReplaysEqual(t *testing.T) {
	cfg, exps := fakeCampaign(t, 40, true)
	cfg.CheckpointEvery = 4
	a, err := OpenLedger(cfg, exps, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 0, 17, 39, 8, 9, 22, 5, 31, 12, 1} {
		if _, err := a.Record(i, fakeResult(exps, i)); err != nil {
			t.Fatal(err)
		}
	}
	var canceled *inject.CanceledError
	if _, err := a.Finish(canceledCtx(), nil); !errors.As(err, &canceled) || canceled.Done != 11 || canceled.Total != 40 {
		t.Fatalf("Finish after cancel: %v, want CanceledError 11/40", err)
	}

	b, err := OpenLedger(cfg, exps, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Finish(canceledCtx(), nil) //nolint:errcheck // releases the journal
	if !reflect.DeepEqual(a.results, b.results) || !reflect.DeepEqual(a.have, b.have) || a.counts != b.counts {
		t.Error("replayed ledger differs from the canceled one")
	}
	if got := b.Tally(); got != (Tally{Done: 11, JournalAdopted: 11}) {
		t.Errorf("replayed tally %+v, want 11 journal-adopted", got)
	}
	if !reflect.DeepEqual(a.Progress().Counts, b.Progress().Counts) {
		t.Errorf("replayed counts %v, want %v", b.Progress().Counts, a.Progress().Counts)
	}
}

// TestLedgerRecordAllocs: a journaled Record that writes no checkpoint
// builds no checkpoint counts, so it allocates less than appending the
// same run with a counts map built per call.
func TestLedgerRecordAllocs(t *testing.T) {
	const runs = 200
	cfg, exps := fakeCampaign(t, 2*runs+2, true)
	cfg.CheckpointEvery = 1 << 30
	l, err := OpenLedger(cfg, exps, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Finish(canceledCtx(), nil) //nolint:errcheck // releases the journal
	res := fakeResult(exps, 0)
	next := 0
	record := testing.AllocsPerRun(runs, func() {
		if _, err := l.Record(next, res); err != nil {
			t.Fatal(err)
		}
		next++
	})
	perCall := testing.AllocsPerRun(runs, func() {
		l.mu.Lock()
		err := l.jw.writeRun(next, res, next, l.countsLocked())
		l.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("allocs per journaled run: Record %.1f, append with per-call counts map %.1f", record, perCall)
	if record >= perCall {
		t.Errorf("Record allocates %.1f per run, want fewer than the %.1f of a per-call counts map", record, perCall)
	}
}
