package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"faultsec/internal/classify"
	"faultsec/internal/inject"
)

// Ledger is the one record of a campaign's results: every executor (the
// engine, the fleet coordinator) records, journals, counts and assembles
// through one. It keeps four rules in one place:
//
//   - The journal is claimed before it is read: a resume claims the path,
//     then replays it, so no second writer can append mid-replay.
//   - Each experiment index is recorded once. A repeat with an equal
//     result is a counted duplicate; a differing repeat is a determinism
//     violation.
//   - A fresh run is one executed in this session: done minus the runs
//     adopted from the journal and from the result cache.
//   - Stats are one Stats.Add pass in enumeration order, so every executor
//     produces the same bytes.
//   - The result cache has one owner: the ledger adopts from it before
//     anything executes (AdoptCache) and, in readwrite mode, persists a
//     target group when a fresh record completes it. A group that the
//     journal alone completed is written the next time the group executes.
//
// Its methods are safe for concurrent use; the accessors (Progress, Tally,
// Elapsed, CacheCounters) also accept a nil ledger and report zeros, which
// is what an executor polled before Run shows.
type Ledger struct {
	cfg  Config
	exps []inject.Experiment
	jw   *journalWriter // nil without a journal
	// emit, when non-nil, also receives every recorded run: RunShard's
	// global-index emit.
	emit func(idx int, res inject.Result)

	mu      sync.Mutex
	results []inject.Result
	have    []bool
	counts  [classify.OutcomeBRK + 1]int
	tally   Tally
	cv      *cacheView // set by AdoptCache; nil with the cache off
	start   time.Time
	end     time.Time
}

// Tally counts a ledger's records by provenance.
type Tally struct {
	// Done counts recorded runs of every provenance.
	Done int
	// JournalAdopted counts runs replayed from the journal on resume.
	JournalAdopted int
	// CacheAdopted counts runs adopted from the result cache.
	CacheAdopted int
	// Duplicates counts repeat records of an already-recorded index
	// (speculative or retried fleet shards).
	Duplicates int
}

// Fresh is the number of runs executed in this session.
func (t Tally) Fresh() int { return t.Done - t.JournalAdopted - t.CacheAdopted }

// OpenLedger opens the record of a campaign over exps, its full
// deterministic enumeration. With cfg.Journal set, a fresh campaign claims
// and truncates the journal and writes its header; a resume claims it and
// then replays it, adopting every journaled run. A resume without a
// journal is an error. With no journal the ledger is in-memory only.
func OpenLedger(cfg *Config, exps []inject.Experiment, resume bool) (*Ledger, error) {
	l := &Ledger{
		cfg:     *cfg,
		exps:    exps,
		results: make([]inject.Result, len(exps)),
		have:    make([]bool, len(exps)),
		start:   time.Now(),
	}
	switch {
	case cfg.Journal != "":
		j, err := OpenJournal(cfg, len(exps), !resume)
		if err != nil {
			return nil, err
		}
		l.jw = j.w
		if resume {
			adopted, err := ReplayJournal(cfg, exps)
			if err != nil {
				return nil, l.jw.abortWith(err)
			}
			for idx, r := range adopted {
				l.results[idx] = r
				l.have[idx] = true
				l.counts[r.Outcome]++
			}
			l.tally.Done = len(adopted)
			l.tally.JournalAdopted = len(adopted)
		}
	case resume:
		return nil, errors.New("campaign: Resume needs cfg.Journal")
	}
	return l, nil
}

// Experiments returns the enumeration the ledger records into; callers
// must not modify it.
func (l *Ledger) Experiments() []inject.Experiment { return l.exps }

// Record records the result of experiment idx. The first record of an
// index wins: it is counted, journaled, written back to the result cache
// if it completes a cacheable target group, and reported to
// Config.Progress (the last two outside the ledger's lock), and Record
// reports true. A repeat with an equal result is counted as a duplicate
// and not journaled; a repeat with a different result returns a
// determinism error. A journal or cache write failure is an error.
func (l *Ledger) Record(idx int, res inject.Result) (bool, error) {
	return l.record(idx, res, false)
}

func (l *Ledger) record(idx int, res inject.Result, cached bool) (bool, error) {
	l.mu.Lock()
	if l.have[idx] {
		l.tally.Duplicates++
		same := reflect.DeepEqual(l.results[idx], res)
		l.mu.Unlock()
		if !same {
			return false, fmt.Errorf("campaign: determinism violation: experiment %d differs from its recorded result", idx)
		}
		return false, nil
	}
	l.results[idx] = res
	l.have[idx] = true
	l.counts[res.Outcome]++
	l.tally.Done++
	if cached {
		l.tally.CacheAdopted++
	}
	done := l.tally.Done
	var err error
	if l.jw != nil {
		// The checkpoint counts are built only when a checkpoint is due.
		err = l.jw.appendRun(idx, res, done, l.countsLocked)
	}
	cv := l.cv
	var ct *cacheTarget
	var group []inject.Result
	if cv != nil {
		ct, group = l.completedGroupLocked(idx, cached)
	}
	l.mu.Unlock()
	if err != nil {
		return true, fmt.Errorf("campaign: journal append: %w", err)
	}
	if group != nil {
		addr := l.exps[idx].Target.Addr
		if err := cv.writeBack(addr, ct, group); err != nil {
			return true, fmt.Errorf("campaign: cache write-back at %#x: %w", addr, err)
		}
	}
	if l.cfg.Progress != nil {
		l.cfg.Progress(done, len(l.exps))
	}
	if l.emit != nil {
		l.emit(idx, res)
	}
	return true, nil
}

// completedGroupLocked counts the record of idx against its cacheable
// target group in readwrite mode. When a fresh record completes the
// group's local range it returns the group and its results by local
// mutation index, to be written back outside the lock. A group completed
// by cache adoption is already in the store.
func (l *Ledger) completedGroupLocked(idx int, cached bool) (*cacheTarget, []inject.Result) {
	ct := l.cv.targets[l.exps[idx].Target.Addr]
	if ct == nil || !l.cv.write {
		return nil, nil
	}
	ct.left--
	if ct.left > 0 || cached {
		return nil, nil
	}
	group := make([]inject.Result, ct.count)
	for li, i := range ct.byLi {
		group[li] = l.results[i]
	}
	return ct, group
}

// AdoptCache builds the campaign's result-cache view when the config's
// cache is on, keyed by the fault-free session golden (its observables
// are key material), and adopts every pending run the store holds a valid
// entry for, target group by target group in first-appearance order. It
// records each as cache-adopted, so a warm campaign is journaled and
// streamed like a cold one, and returns how many pending groups it
// adopted whole. The ledger keeps the view for write-back (Record) and
// its counters (CacheCounters). With the cache off it adopts nothing.
// Adoption stops when ctx ends.
func (l *Ledger) AdoptCache(ctx context.Context, golden *classify.Golden) (int, error) {
	if !l.cfg.cacheActive() {
		return 0, nil
	}
	cv, err := buildCache(&l.cfg, l.exps, golden)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.cv = cv
	for _, ct := range cv.targets {
		for _, idx := range ct.byLi {
			if !l.have[idx] {
				ct.left++
			}
		}
	}
	l.mu.Unlock()
	whole := 0
	for _, g := range l.pending() {
		if err != nil || ctx.Err() != nil {
			break
		}
		rem := cv.adopt(g.addr, l.exps, g.indices, func(idx int, res inject.Result) {
			if err == nil {
				_, err = l.record(idx, res, true)
			}
		})
		if len(rem) == 0 {
			whole++
		}
	}
	return whole, err
}

// CacheCounters reports the result cache's counters: zeros with the cache
// off.
func (l *Ledger) CacheCounters() CacheCounters {
	if l == nil {
		return CacheCounters{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cv.counters()
}

// pending groups the unrecorded experiments by target address.
func (l *Ledger) pending() []group {
	l.mu.Lock()
	defer l.mu.Unlock()
	return groupByTarget(l.exps, l.have)
}

// Have returns a copy of the recorded mask: Have()[i] reports whether
// experiment i has a result.
func (l *Ledger) Have() []bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]bool(nil), l.have...)
}

// Missing returns the first of idxs that has no result yet.
func (l *Ledger) Missing(idxs []int) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, idx := range idxs {
		if !l.have[idx] {
			return idx, true
		}
	}
	return 0, false
}

// Tally reports the ledger's record counts.
func (l *Ledger) Tally() Tally {
	if l == nil {
		return Tally{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tally
}

// Elapsed is the campaign's wall time: from OpenLedger to Finish, or to
// now while it runs.
func (l *Ledger) Elapsed() time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.elapsedLocked()
}

func (l *Ledger) elapsedLocked() time.Duration {
	if l.end.IsZero() {
		return time.Since(l.start)
	}
	return l.end.Sub(l.start)
}

// countsLocked maps outcome abbreviations to recorded run counts, the form
// Progress and journal checkpoints carry.
func (l *Ledger) countsLocked() map[string]int {
	out := make(map[string]int, 5)
	for _, o := range classify.Outcomes() {
		if n := l.counts[o]; n > 0 {
			out[o.String()] = n
		}
	}
	return out
}

// Progress is a point-in-time view of a running (or finished) campaign.
type Progress struct {
	// Done and Total are completed and total experiment counts; Done
	// includes runs adopted from a resumed journal.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Counts maps outcome abbreviations (NA/NM/SD/FSV/BRK) to run counts.
	Counts map[string]int `json:"counts"`
	// ElapsedSeconds is wall time since the campaign started.
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// RunsPerSec is fresh-run throughput (journal- and cache-adopted runs
	// excluded).
	RunsPerSec float64 `json:"runsPerSec"`
	// ETASeconds estimates time to completion at the current throughput;
	// 0 when done or unknown.
	ETASeconds float64 `json:"etaSeconds"`
}

// Progress reports the campaign's progress; zeros on a nil ledger.
func (l *Ledger) Progress() Progress {
	if l == nil {
		return Progress{Counts: map[string]int{}}
	}
	l.mu.Lock()
	p := Progress{
		Done:           l.tally.Done,
		Total:          len(l.exps),
		Counts:         l.countsLocked(),
		ElapsedSeconds: l.elapsedLocked().Seconds(),
	}
	fresh := l.tally.Fresh()
	l.mu.Unlock()
	if p.ElapsedSeconds > 0 && fresh > 0 {
		p.RunsPerSec = float64(fresh) / p.ElapsedSeconds
		if remaining := p.Total - p.Done; remaining > 0 {
			p.ETASeconds = float64(remaining) / p.RunsPerSec
		}
	}
	return p
}

// Finish ends the campaign with its executor's error (nil on success). It
// stops the clock and ends the journal: with the final checkpoint, synced,
// except that a failed campaign that recorded nothing in this session
// aborts it, so a header-only journal it created is removed rather than
// left to poison the next resume. A canceled ctx returns a CanceledError
// (the journal stays cleanly resumable); otherwise Finish returns err, or
// the Stats built in one pass over the results in enumeration order, with
// the per-run Results when Config.KeepResults is set.
func (l *Ledger) Finish(ctx context.Context, err error) (*inject.Stats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.end = time.Now()
	if l.jw != nil {
		if err != nil && l.tally.Done == l.tally.JournalAdopted {
			err = l.jw.abortWith(err)
		} else if cerr := l.jw.close(l.tally.Done, l.countsLocked()); cerr != nil && err == nil {
			err = fmt.Errorf("campaign: journal close: %w", cerr)
		}
		l.jw = nil
	}
	if cause := ctx.Err(); cause != nil {
		return nil, &inject.CanceledError{Done: l.tally.Done, Total: len(l.exps), Cause: cause}
	}
	if err != nil {
		return nil, err
	}
	stats := inject.NewStats(l.cfg.App.Name, l.cfg.Scenario.Name, l.cfg.Scheme, inject.ModelOf(l.exps))
	for i := range l.results {
		if !l.have[i] {
			return nil, fmt.Errorf("campaign: internal: experiment %d has no result after completion", i)
		}
		stats.Add(l.results[i])
	}
	if l.cfg.KeepResults {
		stats.Results = l.results
	}
	return stats, nil
}
