package campaign

import (
	"context"
	"errors"
	"fmt"

	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/inject"
)

// This file is the campaign package's fleet seam: the shard-scoped engine
// entry point a worker executes, and the exported journal handle. The
// fleet coordinator records through a Ledger (ledger.go), which writes the
// authoritative run log through the exact machinery (format, flush
// discipline, single-writer registry) the local engine uses. A journal
// written by a fleet coordinator is indistinguishable from one written by
// a single-process engine with the same Config, so a campaign canceled
// under one executor resumes under the other.

// RunShard executes a shard — a subset of a larger campaign's experiment
// enumeration — on the engine and reports every completed run through
// emit, keyed by the caller's global experiment index (globals[i] is the
// campaign-global index of shard[i]). Shard execution is journal-free by
// construction: the coordinator that planned the shard owns the journal,
// so cfg.Journal must be empty. The shard's in-memory ledger calls emit,
// concurrently from worker goroutines, like Config.Progress.
//
// Because every run restores a snapshot captured from the same
// deterministic golden sweep the full campaign would take, a shard's
// results are byte-identical to the same experiments' results inside a
// single-process campaign — the property that lets a coordinator retry a
// shard on a different worker and still merge byte-identical Stats.
func (e *Engine) RunShard(ctx context.Context, shard []inject.Experiment,
	globals []int, emit func(idx int, res inject.Result)) error {
	if len(globals) != len(shard) {
		return fmt.Errorf("campaign: shard has %d experiments but %d global indices",
			len(shard), len(globals))
	}
	if e.cfg.Journal != "" {
		return errors.New("campaign: shards run journal-free; the coordinator owns the journal")
	}
	led, err := OpenLedger(&e.cfg, shard, false)
	if err != nil {
		return err
	}
	led.emit = func(idx int, res inject.Result) { emit(globals[idx], res) }
	_, err = e.run(ctx, led)
	return err
}

// Journal is the exported handle over the campaign run journal, for
// callers that write one outside a Ledger (the benchmark driver). It
// shares the JSONL format, per-record flush discipline, checkpoint
// cadence, and process-local single-writer registry with the ledger's
// journaling.
type Journal struct {
	w *journalWriter
}

// OpenJournal claims cfg.Journal and opens it for appending. With trunc
// set the file is truncated and a fresh header for (cfg, total) written;
// otherwise the journal is opened append-only for a resume (replay it with
// ReplayJournal after opening — claiming first keeps a concurrent writer
// from appending to the file mid-replay). errors.Is(err, ErrJournalBusy)
// identifies a path that already has an active writer in this process.
func OpenJournal(cfg *Config, total int, trunc bool) (*Journal, error) {
	if cfg.Journal == "" {
		return nil, errors.New("campaign: OpenJournal needs cfg.Journal")
	}
	w, err := newJournalWriter(cfg.Journal, trunc, cfg.effectiveCheckpointEvery(), cfg.CheckpointSync)
	if err != nil {
		return nil, err
	}
	if trunc {
		if err := w.writeHeader(journalIdentity(cfg, total)); err != nil {
			return nil, w.abortWith(fmt.Errorf("campaign: journal header: %w", err))
		}
	}
	return &Journal{w: w}, nil
}

// Append journals one completed run under its global experiment index.
// done and counts describe overall campaign progress and feed the periodic
// checkpoint records. Safe for concurrent use.
func (j *Journal) Append(idx int, res inject.Result, done int, counts map[string]int) error {
	return j.w.writeRun(idx, res, done, counts)
}

// Close writes a final checkpoint, closes the file, and releases the
// path claim.
func (j *Journal) Close(done int, counts map[string]int) error {
	return j.w.close(done, counts)
}

// ReplayJournal reads the journal at cfg.Journal and returns the recorded
// results keyed by global experiment index, rehydrated against exps (the
// campaign's full deterministic enumeration). The journal header must
// match cfg's identity; a truncated final line is tolerated exactly as in
// Resume.
func ReplayJournal(cfg *Config, exps []inject.Experiment) (map[int]inject.Result, error) {
	skip, err := readJournal(cfg.Journal, journalIdentity(cfg, len(exps)))
	if err != nil {
		return nil, err
	}
	out := make(map[int]inject.Result, len(skip))
	for idx, wr := range skip {
		out[idx] = wr.ToResult(exps[idx])
	}
	return out, nil
}

// EnumerateConfig returns the campaign's full deterministic experiment
// enumeration for cfg — the index space shards, journals, and fleet
// protocols all key into. The enumeration is cfg.Model's (resolved through
// the faultmodel registry; "" means bitflip), so two processes agree on
// what index i means only if they agree on the model — which is why the
// model travels in journal headers and fleet shard specs.
func EnumerateConfig(cfg *Config) ([]inject.Experiment, error) {
	m, err := faultmodel.Get(cfg.Model)
	if err != nil {
		return nil, err
	}
	// Resolve the scheme's image first: compile-time schemes rebuild the
	// app, and the hardened image has its own target set (the enumeration
	// below and every later engine stage — golden run, snapshots — must
	// see the same app, which is why cfg is mutated in place).
	app, err := cfg.App.ForScheme(cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("campaign: resolve scheme %s: %w", encoding.SchemeName(cfg.Scheme), err)
	}
	cfg.App = app
	targets, err := inject.Targets(cfg.App)
	if err != nil {
		return nil, err
	}
	return faultmodel.Enumerate(targets, cfg.Scheme, m), nil
}
