package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"faultsec/internal/classify"
	"faultsec/internal/faultmodel"
	"faultsec/internal/inject"
)

// The journal is an append-only JSONL file: one header record identifying
// the campaign, one run record per completed experiment, and periodic
// checkpoint records summarizing progress. Every record is flushed as it
// is written, so a killed campaign loses at most the runs that were still
// in flight; Resume replays the journal, skips every recorded experiment,
// and re-runs only the remainder.

// recordType discriminates journal lines.
const (
	recordHeader     = "header"
	recordRun        = "run"
	recordCheckpoint = "checkpoint"
)

// journalRecord is the wire form of one journal line. Fields are a union
// over the record types; Type selects which are meaningful.
type journalRecord struct {
	Type string `json:"type"`

	// Header fields: campaign identity. Resume refuses a journal whose
	// identity does not match the engine config — a journal from a
	// different app/scenario/scheme/fuel/fault-model would corrupt results
	// silently (run indices would mean different injections).
	App      string `json:"app,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	// Scheme and SchemeName together carry the hardening scheme. The
	// paper's pair keeps its pre-registry integer wire form (1 = x86,
	// 2 = parity) so old journals replay and new x86/parity journals are
	// byte-identical to them; registry schemes beyond the pair are carried
	// by name. A header with neither (both zero) predates the scheme field
	// and means x86.
	Scheme     int    `json:"scheme,omitempty"`
	SchemeName string `json:"schemeName,omitempty"`
	// Model is the fault-model name; the wire value for bitflip is ""
	// (omitted), so journals written before fault models existed — which
	// were all bitflip — replay under a bitflip config unchanged.
	Model    string `json:"model,omitempty"`
	Total    int    `json:"total,omitempty"`
	Fuel     uint64 `json:"fuel,omitempty"`
	Watchdog bool   `json:"watchdog,omitempty"`

	// Run fields.
	Idx    int         `json:"idx,omitempty"`
	Result *WireResult `json:"result,omitempty"`

	// Checkpoint fields.
	Done   int            `json:"done,omitempty"`
	Counts map[string]int `json:"counts,omitempty"`
}

// WireResult is inject.Result minus the Experiment (reconstructed from the
// deterministic enumeration by index). It is the one wire form shared by
// the journal and the fleet's worker/coordinator protocol, so a result is
// encoded identically whether it crosses a file or a socket.
type WireResult struct {
	Outcome            classify.Outcome  `json:"outcome"`
	Location           classify.Location `json:"location"`
	Activated          bool              `json:"activated,omitempty"`
	FaultKind          string            `json:"faultKind,omitempty"`
	CrashLatency       uint64            `json:"crashLatency,omitempty"`
	Crashed            bool              `json:"crashed,omitempty"`
	Granted            bool              `json:"granted,omitempty"`
	BytesInWindow      int               `json:"bytesInWindow,omitempty"`
	DetectedByWatchdog bool              `json:"watchdogHit,omitempty"`
}

// Wire strips a Result down to its wire form.
func Wire(r inject.Result) *WireResult {
	return &WireResult{
		Outcome:            r.Outcome,
		Location:           r.Location,
		Activated:          r.Activated,
		FaultKind:          r.FaultKind,
		CrashLatency:       r.CrashLatency,
		Crashed:            r.Crashed,
		Granted:            r.Granted,
		BytesInWindow:      r.BytesInWindow,
		DetectedByWatchdog: r.DetectedByWatchdog,
	}
}

// ToResult rehydrates the wire form against its experiment.
func (w *WireResult) ToResult(ex inject.Experiment) inject.Result {
	return inject.Result{
		Experiment:         ex,
		Outcome:            w.Outcome,
		Location:           w.Location,
		Activated:          w.Activated,
		FaultKind:          w.FaultKind,
		CrashLatency:       w.CrashLatency,
		Crashed:            w.Crashed,
		Granted:            w.Granted,
		BytesInWindow:      w.BytesInWindow,
		DetectedByWatchdog: w.DetectedByWatchdog,
	}
}

// journalIdentity derives the header record for an engine config. The
// paper's pair keeps its legacy integer scheme code (and no name), every
// other scheme is carried by name alone.
func journalIdentity(cfg *Config, total int) journalRecord {
	id := cfg.Identity()
	rec := journalRecord{
		Type:     recordHeader,
		App:      id.App,
		Scenario: id.Scenario,
		Model:    WireModel(id.Model),
		Total:    total,
		Fuel:     id.Fuel,
		Watchdog: id.Watchdog,
	}
	switch id.Scheme {
	case "x86":
		rec.Scheme = 1
	case "parity":
		rec.Scheme = 2
	default:
		rec.SchemeName = id.Scheme
	}
	return rec
}

// identity reads a header record's campaign identity in canonical form.
// The scheme name wins when present; otherwise the legacy code decides,
// with 0 — a journal written before the scheme field existed — meaning
// x86, the only scheme of that era.
func (r *journalRecord) identity() Identity {
	scheme := r.SchemeName
	if scheme == "" {
		scheme = "x86"
		if r.Scheme == 2 {
			scheme = "parity"
		}
	}
	return Identity{App: r.App, Scenario: r.Scenario, Scheme: scheme,
		Model: faultmodel.Canonical(r.Model), Fuel: r.Fuel, Watchdog: r.Watchdog}
}

// WireModel is the journal/fleet wire form of a fault-model name: the
// canonical default ("bitflip") is carried as the empty string so that
// legacy artifacts, which predate fault models, compare equal to it. It is
// exported for the fleet's shard specs, which share the convention.
func WireModel(model string) string {
	if faultmodel.Canonical(model) == "bitflip" {
		return ""
	}
	return model
}

// ErrJournalBusy is returned when a journal path already has an active
// writer in this process. Two concurrent writers on one JSONL file would
// interleave records into corruption readJournal rejects, so the second
// opener is refused up front (before the file is opened, and in
// particular before a fresh run could truncate the active journal).
var ErrJournalBusy = errors.New("journal has an active writer")

// activeJournals tracks the journal paths (filepath.Clean'd) that have an
// open journalWriter. The registry is process-local and advisory: it
// guards every writer this process creates, but not a second daemon
// pointed at the same directory.
var activeJournals sync.Map

// journalWriter serializes appends to the journal file. Every record is a
// single line followed by a flush, so records are atomic with respect to
// process death (at worst the final line is truncated, which readers
// tolerate). Creating a writer claims the path in activeJournals; close
// and abort release it.
type journalWriter struct {
	mu              sync.Mutex
	path            string // cleaned registry key
	f               *os.File
	bw              *bufio.Writer
	enc             *json.Encoder
	runsSinceCkpt   int
	checkpointEvery int
	// syncCheckpoints fsyncs the file after every periodic checkpoint
	// (Config.CheckpointSync): the durability knob for callers that must
	// survive power loss, not just process death.
	syncCheckpoints bool
	// owned records that this writer created (or truncated) the file, and
	// runs counts run records appended by this writer — together they
	// decide whether abort may remove the file (an owned, header-only
	// journal carries no results and would poison the next resume).
	owned bool
	runs  int
}

// newJournalWriter claims path and opens it for writing: truncated for a
// fresh campaign (trunc), appended-to for a resume. The claim happens
// before the open so a duplicate fresh run cannot truncate a journal an
// active writer is still appending to; errors.Is(err, ErrJournalBusy)
// identifies that refusal. A freshly created journal's parent directory is
// fsynced so the file's existence survives power loss.
func newJournalWriter(path string, trunc bool, checkpointEvery int, syncCheckpoints bool) (*journalWriter, error) {
	key := filepath.Clean(path)
	if _, loaded := activeJournals.LoadOrStore(key, struct{}{}); loaded {
		return nil, fmt.Errorf("campaign: journal %s: %w", path, ErrJournalBusy)
	}
	flags := os.O_WRONLY
	if trunc {
		flags |= os.O_CREATE | os.O_TRUNC
	} else {
		flags |= os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		activeJournals.Delete(key)
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	if trunc {
		if err := syncDir(filepath.Dir(key)); err != nil {
			f.Close()
			activeJournals.Delete(key)
			return nil, err
		}
	}
	bw := bufio.NewWriter(f)
	return &journalWriter{
		path:            key,
		f:               f,
		bw:              bw,
		enc:             json.NewEncoder(bw),
		checkpointEvery: checkpointEvery,
		syncCheckpoints: syncCheckpoints,
		owned:           trunc,
	}, nil
}

// syncDir fsyncs a directory, making a just-created or just-renamed entry
// in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	defer d.Close() //nolint:errcheck // read-only
	if err := d.Sync(); err != nil {
		return fmt.Errorf("campaign: sync %s: %w", dir, err)
	}
	return nil
}

func (w *journalWriter) write(rec *journalRecord) error {
	if err := w.enc.Encode(rec); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *journalWriter) writeHeader(rec journalRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.write(&rec)
}

// writeRun appends one run record and, every checkpointEvery runs, a
// checkpoint summarizing progress so far.
func (w *journalWriter) writeRun(idx int, r inject.Result, done int, counts map[string]int) error {
	return w.appendRun(idx, r, done, func() map[string]int { return counts })
}

// appendRun is writeRun with the checkpoint counts built by counts, which
// is called only when a checkpoint is due.
func (w *journalWriter) appendRun(idx int, r inject.Result, done int, counts func() map[string]int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.write(&journalRecord{Type: recordRun, Idx: idx, Result: Wire(r)}); err != nil {
		return err
	}
	w.runs++
	w.runsSinceCkpt++
	if w.runsSinceCkpt >= w.checkpointEvery {
		w.runsSinceCkpt = 0
		if err := w.write(&journalRecord{Type: recordCheckpoint, Done: done, Counts: counts()}); err != nil {
			return err
		}
		if w.syncCheckpoints {
			return w.f.Sync()
		}
	}
	return nil
}

// close writes the final checkpoint and fsyncs before closing: the journal
// advertises itself as crash-safe, so the completed state must actually be
// on stable storage when close returns, not just in the page cache.
func (w *journalWriter) close(done int, counts map[string]int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.write(&journalRecord{Type: recordCheckpoint, Done: done, Counts: counts})
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	activeJournals.Delete(w.path)
	return err
}

// abort releases the writer without a final checkpoint: the path claim is
// dropped and the file closed as-is. It is the error-path counterpart of
// close, for writers whose campaign failed before completing. When this
// writer created the file and journaled no runs, the header-only file is
// removed — leaving it behind would poison the next submit, which would
// resume from a journal that records no progress and (if the failure was
// config-dependent) may not even match its identity.
func (w *journalWriter) abort() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.f.Close()
	if w.owned && w.runs == 0 {
		if rerr := os.Remove(w.path); rerr != nil && !os.IsNotExist(rerr) && err == nil {
			err = rerr
		} else if rerr == nil {
			err = errorOrNil(err, syncDir(filepath.Dir(w.path)))
		}
	}
	activeJournals.Delete(w.path)
	return err
}

// abortWith aborts the writer on a campaign failure and returns err,
// noting an abort failure in it.
func (w *journalWriter) abortWith(err error) error {
	if aerr := w.abort(); aerr != nil {
		err = fmt.Errorf("%w (journal abort: %v)", err, aerr)
	}
	return err
}

// errorOrNil returns the first non-nil error.
func errorOrNil(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// readJournal parses a journal and returns the recorded results keyed by
// experiment index. A bad final line without a trailing newline (the
// crash case) is ignored; corruption anywhere else is an error. The header must match want's
// identity.
func readJournal(path string, want journalRecord) (map[int]*WireResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-only
	return parseJournal(f, path, want)
}

// parseJournal is readJournal over r; path names the journal in errors.
func parseJournal(r io.Reader, path string, want journalRecord) (map[int]*WireResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	// torn reports that the last line scanned has no trailing newline: a
	// crash mid-append leaves such a line, a complete record never does.
	torn := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if tok != nil {
			torn = atEOF && bytes.IndexByte(data[:adv], '\n') < 0
		}
		return adv, tok, err
	})
	out := make(map[int]*WireResult)
	sawHeader := false
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			// A malformed line that was NOT the final line: hard error.
			return nil, pendingErr
		}
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			pendingErr = fmt.Errorf("campaign: journal %s line %d: %w", path, lineNo, err)
			continue
		}
		switch rec.Type {
		case recordHeader:
			if sawHeader {
				return nil, fmt.Errorf("campaign: journal %s: duplicate header", path)
			}
			sawHeader = true
			// A journal of another identity or total must not seed this
			// campaign: its run indices would name other injections, or
			// runs made under another fuel or watchdog setting.
			if got, wantID := rec.identity(), want.identity(); got != wantID || rec.Total != want.Total {
				return nil, fmt.Errorf("campaign: journal %s is for %v total=%d; config wants %v total=%d "+
					"(run indices are specific to the scheme, fault model and enumeration — replaying across them would corrupt results)",
					path, got, rec.Total, wantID, want.Total)
			}
		case recordRun:
			if !sawHeader {
				return nil, fmt.Errorf("campaign: journal %s: run record before header", path)
			}
			if rec.Result == nil || rec.Idx < 0 || rec.Idx >= want.Total ||
				rec.Result.Outcome < classify.OutcomeNA || rec.Result.Outcome > classify.OutcomeBRK {
				pendingErr = fmt.Errorf("campaign: journal %s line %d: bad run record", path, lineNo)
				continue
			}
			if prev, ok := out[rec.Idx]; ok && *prev != *rec.Result {
				// Writers record an index once; a second, different result
				// is corruption, and taking the last would let a cut
				// journal disagree with the whole one.
				return nil, fmt.Errorf("campaign: journal %s line %d: run %d contradicts an earlier record", path, lineNo, rec.Idx)
			}
			out[rec.Idx] = rec.Result
		case recordCheckpoint:
			// Progress markers only; run records are the source of truth.
		default:
			pendingErr = fmt.Errorf("campaign: journal %s line %d: unknown record %q", path, lineNo, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		// A scanner error is always fatal — unlike a truncated final line,
		// it does not mean "crashed mid-append". The common case is a line
		// over the 4 MiB buffer (bufio.ErrTooLong); name the offending line
		// (the one after the last line successfully scanned).
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("campaign: journal %s line %d: %w", path, lineNo+1, err)
		}
		return nil, fmt.Errorf("campaign: journal %s: %w", path, err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("campaign: journal %s: missing header", path)
	}
	if pendingErr != nil && !torn {
		// A complete final line is no crash artifact: it was written
		// whole, and is as corrupt as any earlier line.
		return nil, pendingErr
	}
	// pendingErr on a torn final line means the process died mid-append;
	// the half-written record is simply re-run.
	return out, nil
}
