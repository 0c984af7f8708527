package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/inject"
)

// TestJournalWriterSingleWriter pins the single-writer invariant: a
// second writer on an already-claimed journal path is refused with
// ErrJournalBusy, and — critically — refused before the open, so the
// duplicate's O_TRUNC cannot destroy the active journal.
func TestJournalWriterSingleWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	w1, err := newJournalWriter(path, true, 4, false)
	if err != nil {
		t.Fatalf("first writer: %v", err)
	}
	hdr := journalRecord{Type: recordHeader, App: "a", Scenario: "s", Total: 3, Fuel: 1}
	if err := w1.writeHeader(hdr); err != nil {
		t.Fatal(err)
	}

	if _, err := newJournalWriter(path, true, 4, false); !errors.Is(err, ErrJournalBusy) {
		t.Fatalf("duplicate truncating writer: err = %v, want ErrJournalBusy", err)
	}
	if _, err := newJournalWriter(path, false, 4, false); !errors.Is(err, ErrJournalBusy) {
		t.Fatalf("duplicate appending writer: err = %v, want ErrJournalBusy", err)
	}
	// An equivalent spelling of the same path must hit the same claim.
	dir := filepath.Dir(path)
	alias := filepath.Join(dir, ".", "campaign.jsonl")
	if _, err := newJournalWriter(alias, true, 4, false); !errors.Is(err, ErrJournalBusy) {
		t.Fatalf("aliased duplicate writer: err = %v, want ErrJournalBusy", err)
	}

	// The refused duplicates must not have truncated the live journal.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || !strings.Contains(string(data), `"header"`) {
		t.Fatalf("refused duplicate truncated the journal: %q", data)
	}

	if err := w1.close(0, nil); err != nil {
		t.Fatal(err)
	}
	// close releases the claim; the path is reusable.
	w2, err := newJournalWriter(path, false, 4, false)
	if err != nil {
		t.Fatalf("writer after close: %v", err)
	}
	w2.abort()
	// ... and abort releases it too.
	w3, err := newJournalWriter(path, false, 4, false)
	if err != nil {
		t.Fatalf("writer after abort: %v", err)
	}
	if err := w3.close(0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadJournalTooLongLine pins the scanner error contract: a line over
// the scanner buffer is a hard error (it cannot be the tolerated
// crash-truncated tail) that wraps bufio.ErrTooLong and names the line.
func TestReadJournalTooLongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	want := journalRecord{Type: recordHeader, App: "a", Scenario: "s", Total: 3, Fuel: 1}

	var sb strings.Builder
	hdr, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(hdr)
	sb.WriteByte('\n')
	run, err := json.Marshal(journalRecord{Type: recordRun, Idx: 1,
		Result: &WireResult{Outcome: classify.OutcomeNA, FaultKind: strings.Repeat("x", 5<<20)}})
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(run)
	sb.WriteByte('\n')
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = readJournal(path, want)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-long line: err = %v, want bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the offending line 2", err)
	}
}

// TestReadJournalScannerErrorBeatsTruncationTolerance: an io-level error
// must not be mistaken for the benign half-written final line.
func TestReadJournalShortValidJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	want := journalRecord{Type: recordHeader, App: "a", Scenario: "s", Total: 3, Fuel: 1}
	hdr, _ := json.Marshal(want)
	run, _ := json.Marshal(journalRecord{Type: recordRun, Idx: 2,
		Result: &WireResult{Outcome: classify.OutcomeBRK}})
	content := string(hdr) + "\n" + string(run) + "\n" + `{"type":"run","idx":1,"resu`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readJournal(path, want)
	if err != nil {
		t.Fatalf("truncated tail should be tolerated: %v", err)
	}
	if len(got) != 1 || got[2] == nil || got[2].Outcome != classify.OutcomeBRK {
		t.Fatalf("journal replay = %v, want idx 2 -> BRK only", got)
	}
}

// TestJournalAbortRemovesHeaderOnlyOrphan: a fresh journal that dies
// before recording any run is removed on abort — leaving it behind would
// poison the next submit, which would "resume" from a journal recording
// no progress — and the claim is released.
func TestJournalAbortRemovesHeaderOnlyOrphan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	w, err := newJournalWriter(path, true, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.writeHeader(journalRecord{Type: recordHeader, App: "a", Scenario: "s", Total: 1, Fuel: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("header-only orphan survived abort: stat err = %v", err)
	}
	// The claim is gone: a fresh writer on the path succeeds.
	w2, err := newJournalWriter(path, true, 4, false)
	if err != nil {
		t.Fatalf("writer after orphan abort: %v", err)
	}
	if err := w2.close(0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestJournalAbortKeepsJournalWithRuns: once a run record landed, abort
// must preserve the file — those results are real progress a resume can
// adopt.
func TestJournalAbortKeepsJournalWithRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	w, err := newJournalWriter(path, true, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	hdr := journalRecord{Type: recordHeader, App: "a", Scenario: "s", Total: 2, Fuel: 1}
	if err := w.writeHeader(hdr); err != nil {
		t.Fatal(err)
	}
	if err := w.writeRun(0, inject.Result{Outcome: classify.OutcomeNA}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	skip, err := readJournal(path, hdr)
	if err != nil {
		t.Fatalf("aborted-with-runs journal unreadable: %v", err)
	}
	if len(skip) != 1 {
		t.Fatalf("aborted journal replays %d runs, want 1", len(skip))
	}
}

// TestJournalAbortKeepsResumedJournal: an appending (resume) writer never
// owns the file, so abort leaves it intact even with zero new runs.
func TestJournalAbortKeepsResumedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	w, err := newJournalWriter(path, true, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	hdr := journalRecord{Type: recordHeader, App: "a", Scenario: "s", Total: 2, Fuel: 1}
	if err := w.writeHeader(hdr); err != nil {
		t.Fatal(err)
	}
	if err := w.close(0, nil); err != nil {
		t.Fatal(err)
	}

	w2, err := newJournalWriter(path, false, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("resume abort removed the journal: %v", err)
	}
	if _, err := readJournal(path, hdr); err != nil {
		t.Fatalf("journal unreadable after resume abort: %v", err)
	}
}

// TestJournalCloseWritesFinalCheckpoint: close's last act is a synced
// checkpoint carrying the final done/counts — the record a monitoring
// reader uses to see a campaign completed without replaying every run.
func TestJournalCloseWritesFinalCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	// checkpointEvery greater than the run count: the only checkpoint is
	// close's final one.
	w, err := newJournalWriter(path, true, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	hdr := journalRecord{Type: recordHeader, App: "a", Scenario: "s", Total: 2, Fuel: 1}
	if err := w.writeHeader(hdr); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{"NA": 2}
	for idx := 0; idx < 2; idx++ {
		if err := w.writeRun(idx, inject.Result{Outcome: classify.OutcomeNA}, idx+1, counts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(2, counts); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last journalRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != recordCheckpoint || last.Done != 2 || last.Counts["NA"] != 2 {
		t.Fatalf("final record = %+v, want checkpoint done=2 NA=2", last)
	}
}

// TestJournalCheckpointSyncSmoke drives the CheckpointSync path: periodic
// checkpoints appear at the configured cadence and the fsync after each
// does not disturb the record stream.
func TestJournalCheckpointSyncSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	w, err := newJournalWriter(path, true, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	hdr := journalRecord{Type: recordHeader, App: "a", Scenario: "s", Total: 6, Fuel: 1}
	if err := w.writeHeader(hdr); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 6; idx++ {
		if err := w.writeRun(idx, inject.Result{Outcome: classify.OutcomeNA}, idx+1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(6, nil); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == recordCheckpoint {
			ckpts++
		}
	}
	if ckpts != 4 { // every 2 runs (3) + final
		t.Fatalf("journal has %d checkpoints, want 4 (3 periodic + final)", ckpts)
	}
	skip, err := readJournal(path, hdr)
	if err != nil || len(skip) != 6 {
		t.Fatalf("synced journal replay: %d runs, err %v; want 6, nil", len(skip), err)
	}
}

// TestReadJournalCompleteBadFinalRecord: only a final line without a
// trailing newline is a crash-torn append the reader may drop. A complete
// final record that is invalid — a run index outside [0, Total), an
// unknown record type — was written whole and is corruption like any
// other line.
func TestReadJournalCompleteBadFinalRecord(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "wirecompat", "ftpd-Client1-x86.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(fixture), "\n")
	var want journalRecord
	if err := json.Unmarshal([]byte(lines[0]), &want); err != nil {
		t.Fatal(err)
	}
	if want.Total != 992 {
		t.Fatalf("fixture total %d, want 992", want.Total)
	}
	prefix := lines[0] + lines[1]
	for _, c := range []struct {
		name, tail string
		wantErr    bool
	}{
		{"index out of range", `{"type":"run","idx":5000,"result":{"outcome":2,"location":1,"activated":true}}` + "\n", true},
		{"unknown record", `{"type":"bogus"}` + "\n", true},
		{"torn index out of range", `{"type":"run","idx":5000,"result":{"outcome":2,"location":1,"activated":true}}`, false},
		{"torn record", `{"type":"run","idx":7,"resu`, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.jsonl")
			if err := os.WriteFile(path, []byte(prefix+c.tail), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := readJournal(path, want)
			if c.wantErr {
				if err == nil || !strings.Contains(err.Error(), "line 3") {
					t.Fatalf("err = %v (results %v), want an error naming line 3", err, got)
				}
				return
			}
			if err != nil || len(got) != 1 {
				t.Fatalf("torn tail: %d results, err %v; want the one complete run and no error", len(got), err)
			}
		})
	}
}
