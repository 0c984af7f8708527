// Package campaign is the production campaign engine underneath the
// study's injection experiments: a sharded, crash-safe, resumable executor
// that replaces the naive one-run-per-experiment loop in internal/inject.
//
// Four ideas make it fast and durable:
//
//   - Snapshot fast-forward. All experiments that flip bits of the same
//     target instruction share an identical golden prefix from _start to
//     the injection breakpoint, and targets themselves share most of their
//     prefixes with each other. The engine therefore runs one golden sweep
//     with every target's breakpoint armed at once, capturing the machine
//     (vm.Snapshot) and session kernel (kernel.Snapshot) state at each
//     first hit — the entire prefix work of a campaign collapses into a
//     single fault-free session. Each of a target's ~8-48 bit-flip runs
//     then restores its snapshot instead of re-executing from _start.
//     Targets whose breakpoint is never reached are even cheaper: the
//     fault-free session outcome is already known from the golden run, so
//     their experiments are synthesized as NA without executing anything.
//     Sweeps run in bounded waves (maxResidentSnapshots) so a 100k-run
//     random campaign over thousands of distinct instructions does not
//     hold thousands of address-space copies live at once.
//
//   - Sharding. Experiments are grouped by target address and the groups
//     are distributed over a worker pool, so snapshot reuse is conflict
//     free and wall-clock scales with cores.
//
//   - Golden convergence. One fault-free replay per campaign checkpoints
//     the session at every syscall entry. A run stops as soon as its
//     whole state equals the session's at the same step, apart from the
//     bytes a persistent fault poked that the session never retires or
//     reads again; the rest of its outcome is the golden one
//     (converge.go).
//
//   - Journaling. Every completed run is appended to a JSONL journal with
//     periodic checkpoint records. Resume replays the journal, skips every
//     recorded experiment, and merges journaled and fresh results into the
//     exact Stats an uninterrupted campaign produces.
//
// Callers (internal/core, fleet workers, campaignd) run campaigns through
// New(cfg).Run or RunExperiments; inject.RunExperimentsNaive stays as the
// from-scratch differential oracle.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"faultsec/internal/castore"
	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/inject"
	"faultsec/internal/kernel"
	"faultsec/internal/target"
	"faultsec/internal/vm"
)

// Config parameterizes one engine campaign. The first block mirrors
// inject.Config; the second is engine-specific.
type Config struct {
	App      *target.App
	Scenario target.Scenario
	Scheme   encoding.Scheme
	// Model is the fault-model name resolved through internal/faultmodel;
	// "" means "bitflip", the paper's single-bit model. The model decides
	// the campaign's experiment enumeration — and with it the global index
	// space journals and fleet shards key into — so it is part of the
	// campaign identity (journal headers, shard specs).
	Model string
	// Fuel is the per-run instruction budget; 0 means inject.DefaultFuel.
	Fuel uint64
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// KeepResults retains every per-run Result in Stats.Results.
	KeepResults bool
	// Watchdog enables the control-flow checker for every run.
	Watchdog bool
	// Progress, when non-nil, receives (done, total) after each run.
	Progress func(done, total int)
	// OnResult, when non-nil, receives every completed fresh run with its
	// index into the experiment list — the streaming hook fleet workers
	// use to ship shard results back as they finish. Like Progress it is
	// called concurrently from worker goroutines; journal-adopted results
	// are not replayed through it.
	OnResult func(idx int, res inject.Result)

	// Journal is the path of the JSONL run journal; "" disables
	// journaling (and with it crash-safety and Resume).
	Journal string
	// CheckpointEvery is the journal checkpoint cadence in runs; 0 means
	// DefaultCheckpointEvery.
	CheckpointEvery int
	// CheckpointSync fsyncs the journal after every periodic checkpoint,
	// bounding data loss under power failure (not just process death) to
	// one checkpoint interval. The final checkpoint is always synced.
	CheckpointSync bool
	// CacheMode controls the content-addressed result cache: "" or "off"
	// disables it, "read" adopts matching entries from Cache, "readwrite"
	// also persists completed target groups. See cache.go.
	CacheMode string
	// Cache is the shard-result store consulted per CacheMode; nil
	// disables caching regardless of mode.
	Cache *castore.Store
	// Tuning holds the VM ablation knobs, applied to every machine the
	// engine creates; outcomes are bit-identical under any setting.
	// NoDirtyTracking also turns off the golden-convergence exit, which
	// compares dirty pages, so every run executes to its end.
	vm.Tuning
}

// DefaultCheckpointEvery is the journal checkpoint cadence.
const DefaultCheckpointEvery = 256

// maxResidentSnapshots bounds how many target snapshots are live at once.
// Each snapshot deep-copies the address space, so an unbounded table would
// cost (distinct targets × memory image) — fine for the selective-
// exhaustive campaigns (~10s of targets), ruinous for random campaigns
// over the whole text segment. Targets are swept in waves of this size;
// each wave costs one extra golden session.
const maxResidentSnapshots = 256

func (c *Config) effectiveFuel() uint64 { return inject.EffectiveFuel(c.Fuel) }

func (c *Config) effectiveWorkers(n int) int {
	w := c.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n && n > 0 {
		w = n
	}
	return w
}

func (c *Config) effectiveCheckpointEvery() int {
	if c.CheckpointEvery <= 0 {
		return DefaultCheckpointEvery
	}
	return c.CheckpointEvery
}

// Engine executes one campaign. Its progress and metrics accessors are
// safe for concurrent use while the campaign runs (cmd/campaignd polls
// them from HTTP handlers).
type Engine struct {
	cfg Config

	total     atomic.Int64
	done      atomic.Int64
	preloaded atomic.Int64 // journaled runs adopted by Resume
	counts    [6]atomic.Int64

	groupsTotal atomic.Int64 // target-address groups (engine-level shards) scheduled
	groupsDone  atomic.Int64 // groups whose pending experiments all finished

	prefixRuns      atomic.Int64 // golden prefix executions (one per reached target)
	snapshotRuns    atomic.Int64 // runs served by snapshot restore
	synthesizedRuns atomic.Int64 // NA runs synthesized from an unreached prefix

	icacheHits   atomic.Int64 // VM retirements served by the predecoded icache
	icacheMisses atomic.Int64 // VM retirements that decoded on an icache miss

	cacheHits    atomic.Int64 // runs adopted from the content-addressed store
	cacheMisses  atomic.Int64 // runs executed because their group had no usable entry
	cacheWrites  atomic.Int64 // entries persisted to the store
	cacheInvalid atomic.Int64 // entries rejected as corrupt or inconsistent

	traceHits        atomic.Int64 // fused-trace executions
	traceExits       atomic.Int64 // fused traces that exited early
	dirtyBytesCopied atomic.Int64 // bytes copied by O(dirty) restores
	fullRestores     atomic.Int64 // full-image snapshot restores

	convergedRuns     atomic.Int64 // runs stopped on rejoining the golden shadow
	instructionsSaved atomic.Int64 // golden instructions those runs did not interpret

	workers    atomic.Int64
	busyNanos  atomic.Int64
	startNanos atomic.Int64
	endNanos   atomic.Int64
}

// New returns an engine for cfg.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Run executes the full selective-exhaustive campaign for the configured
// app/scenario/scheme. An existing journal at cfg.Journal is truncated;
// use Resume to continue one.
func (e *Engine) Run(ctx context.Context) (*inject.Stats, error) {
	exps, err := e.enumerate()
	if err != nil {
		return nil, err
	}
	return e.RunExperiments(ctx, exps)
}

// RunExperiments executes an explicit experiment list (random campaigns,
// differential tests). cfg.App must already be the scheme's image.
func (e *Engine) RunExperiments(ctx context.Context, exps []inject.Experiment) (*inject.Stats, error) {
	var w *journalWriter
	if e.cfg.Journal != "" {
		if got, want := inject.ModelOf(exps), faultmodel.Canonical(e.cfg.Model); got != want {
			// The journal header records cfg.Model as the index space; an
			// experiment list from a different model would journal indices
			// that mean different injections on resume.
			return nil, fmt.Errorf("campaign: experiment list is fault model %q but config (and journal identity) say %q", got, want)
		}
		var err error
		w, err = newJournalWriter(e.cfg.Journal, true, e.cfg.effectiveCheckpointEvery(), e.cfg.CheckpointSync)
		if err != nil {
			return nil, err
		}
		if err := w.writeHeader(journalIdentity(&e.cfg, len(exps))); err != nil {
			err = fmt.Errorf("campaign: journal header: %w", err)
			if aerr := w.abort(); aerr != nil {
				err = fmt.Errorf("%w (journal abort: %v)", err, aerr)
			}
			return nil, err
		}
	}
	return e.run(ctx, exps, nil, w)
}

// Resume continues the campaign recorded in cfg.Journal: experiments with
// journaled results are adopted verbatim, the remainder is executed, and
// the merged Stats is identical to an uninterrupted run. The journal keeps
// growing in place, so a resumed campaign is itself resumable.
func Resume(ctx context.Context, cfg Config) (*inject.Stats, error) {
	return New(cfg).Resume(ctx)
}

// Resume is the method form of the package-level Resume; it leaves the
// caller a handle for Progress and Metrics while the campaign runs.
func (e *Engine) Resume(ctx context.Context) (*inject.Stats, error) {
	if e.cfg.Journal == "" {
		return nil, errors.New("campaign: Resume needs cfg.Journal")
	}
	exps, err := e.enumerate()
	if err != nil {
		return nil, err
	}
	// Claim the writer before replaying the journal: if another engine is
	// appending to this path, Resume must fail up front rather than read a
	// moving file and race a second writer onto it.
	w, err := newJournalWriter(e.cfg.Journal, false, e.cfg.effectiveCheckpointEvery(), e.cfg.CheckpointSync)
	if err != nil {
		return nil, err
	}
	skip, err := readJournal(e.cfg.Journal, journalIdentity(&e.cfg, len(exps)))
	if err != nil {
		if aerr := w.abort(); aerr != nil {
			err = fmt.Errorf("%w (journal abort: %v)", err, aerr)
		}
		return nil, err
	}
	return e.run(ctx, exps, skip, w)
}

func (e *Engine) enumerate() ([]inject.Experiment, error) {
	return EnumerateConfig(&e.cfg)
}

// group is one shard: every pending experiment targeting one instruction.
type group struct {
	addr    uint32
	indices []int
}

// groupByTarget shards pending experiments by target address, in first-
// appearance (address-enumeration) order.
func groupByTarget(exps []inject.Experiment, skip map[int]*WireResult) []group {
	byAddr := make(map[uint32]int)
	var out []group
	for i := range exps {
		if _, done := skip[i]; done {
			continue
		}
		addr := exps[i].Target.Addr
		gi, ok := byAddr[addr]
		if !ok {
			gi = len(out)
			byAddr[addr] = gi
			out = append(out, group{addr: addr})
		}
		out[gi].indices = append(out[gi].indices, i)
	}
	return out
}

// snapEntry is one target's captured prefix state.
type snapEntry struct {
	m *vm.Snapshot
	k *kernel.Snapshot
	// activationSteps is the retired-instruction count at the breakpoint.
	activationSteps uint64
	// bytesAtActivation is the server-to-client byte count at the
	// breakpoint (transient-window accounting starts here).
	bytesAtActivation int
}

// captureSnapshots runs one golden sweep with every wave target's
// breakpoint armed and snapshots the machine+kernel at each first hit.
// Execution is unperturbed by armed breakpoints, so each snapshot is
// identical to the state a single-breakpoint prefix run would reach. The
// sweep stops as soon as the last breakpoint is collected; targets whose
// breakpoint the fault-free session never reaches are absent from the
// returned table (their experiments classify as NA without execution).
func (e *Engine) captureSnapshots(wave []group, cfValid map[uint32]struct{},
	fuel uint64) (map[uint32]*snapEntry, error) {
	client := e.cfg.Scenario.New()
	k := kernel.New(client)
	ld, err := e.cfg.App.Image.Load(k, nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: sweep load: %w", err)
	}
	m := ld.Machine
	m.Fuel = fuel
	m.CFValid = cfValid
	m.Tuning = e.cfg.Tuning
	for i := range wave {
		m.SetBreakpoint(wave[i].addr)
	}
	e.prefixRuns.Add(1)

	snaps := make(map[uint32]*snapEntry, len(wave))
	for len(snaps) < len(wave) {
		runErr := m.Run()
		var bp *vm.BreakpointHit
		if !errors.As(runErr, &bp) {
			// Fault-free session over: the remaining targets never
			// activate under this scenario.
			break
		}
		snaps[bp.Addr] = &snapEntry{
			m:                 m.Snapshot(),
			k:                 k.Snapshot(),
			activationSteps:   m.Steps,
			bytesAtActivation: len(k.Transcript.ServerBytes()),
		}
		m.ClearBreakpoint(bp.Addr)
	}
	e.harvestCounters(m)
	return snaps, nil
}

// harvestCounters folds a machine's icache, trace, and restore counters
// into the engine's metrics and zeroes them, so pooled machines are not
// double-counted.
func (e *Engine) harvestCounters(m *vm.Machine) {
	if m == nil {
		return
	}
	e.icacheHits.Add(int64(m.ICacheHits))
	e.icacheMisses.Add(int64(m.ICacheMisses))
	e.traceHits.Add(int64(m.TraceHits))
	e.traceExits.Add(int64(m.TraceExits))
	e.dirtyBytesCopied.Add(int64(m.DirtyBytesCopied))
	e.fullRestores.Add(int64(m.FullRestores))
	m.ICacheHits, m.ICacheMisses = 0, 0
	m.TraceHits, m.TraceExits = 0, 0
	m.DirtyBytesCopied, m.FullRestores = 0, 0
}

// run is the engine core: shard by target, sweep-capture snapshots in
// waves, execute on the worker pool, journal, aggregate.
func (e *Engine) run(ctx context.Context, exps []inject.Experiment,
	skip map[int]*WireResult, w *journalWriter) (*inject.Stats, error) {
	total := len(exps)
	e.total.Store(int64(total))
	e.startNanos.Store(time.Now().UnixNano())
	defer func() { e.endNanos.Store(time.Now().UnixNano()) }()

	fuel := e.cfg.effectiveFuel()
	golden, err := inject.GoldenRun(e.cfg.App, e.cfg.Scenario, fuel)
	if err != nil {
		// Release the journal writer: without this, the path claim leaks
		// (every later submit gets ErrJournalBusy) and a header-only file
		// is left to poison the next resume. abort removes the orphan.
		if w != nil {
			if aerr := w.abort(); aerr != nil {
				err = fmt.Errorf("%w (journal abort: %v)", err, aerr)
			}
		}
		return nil, err
	}
	var cfValid map[uint32]struct{}
	if e.cfg.Watchdog {
		cfValid = inject.ValidInstructionStarts(e.cfg.App)
	}

	results := make([]inject.Result, total)
	for idx, wr := range skip {
		results[idx] = wr.ToResult(exps[idx])
		e.counts[results[idx].Outcome].Add(1)
	}
	e.preloaded.Store(int64(len(skip)))
	e.done.Store(int64(len(skip)))

	groups := groupByTarget(exps, skip)
	e.groupsTotal.Store(int64(len(groups)))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errMu   sync.Mutex
		loopErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if loopErr == nil {
			loopErr = err
		}
		errMu.Unlock()
		cancel()
	}
	finish := func(idx int, res inject.Result) {
		results[idx] = res
		e.counts[res.Outcome].Add(1)
		d := int(e.done.Add(1))
		if w != nil {
			if err := w.writeRun(idx, res, d, e.countsMap()); err != nil {
				fail(fmt.Errorf("campaign: journal append: %w", err))
				return
			}
		}
		if e.cfg.Progress != nil {
			e.cfg.Progress(d, total)
		}
		if e.cfg.OnResult != nil {
			e.cfg.OnResult(idx, res)
		}
	}

	// Cache adoption: consult the content-addressed store for every pending
	// group before any execution is scheduled. Adopted groups finish through
	// the normal path — journaled, streamed, counted — so a warm campaign
	// is indistinguishable downstream from a cold one; the remaining groups
	// are the delta that actually executes.
	var ec *engineCache
	if e.cfg.cacheActive() {
		ec, err = e.buildCache(exps, golden)
		if err != nil {
			fail(err)
		} else {
			pending := groups[:0]
			for i := range groups {
				if runCtx.Err() == nil {
					if rem := e.adoptGroup(ec, &groups[i], exps, finish); len(rem) == 0 {
						e.groupsDone.Add(1)
						continue
					} else {
						groups[i].indices = rem
					}
				}
				pending = append(pending, groups[i])
			}
			groups = pending
		}
	}

	// One golden shadow serves every group's convergence exit. Its memory
	// compare needs dirty tracking.
	var sh *shadow
	if !e.cfg.NoDirtyTracking && len(groups) > 0 && runCtx.Err() == nil {
		if sh, err = e.goldenShadow(golden, groups, fuel); errors.Is(err, errShadowDiverged) {
			sh = nil
		} else if err != nil {
			fail(err)
		}
	}

	workers := e.cfg.effectiveWorkers(len(groups))
	e.workers.Store(int64(workers))

	// naRun is the observable outcome of a never-activated experiment: the
	// fault-free session itself (determinism makes this exact, not a
	// model).
	naRun := &classify.Run{
		Activated:   false,
		Err:         &vm.ExitStatus{Code: golden.ExitCode},
		ServerBytes: golden.ServerBytes,
		Granted:     golden.Granted,
		EndSteps:    golden.Steps,
	}

	// Worker machines are pooled across waves so each worker's address
	// space is allocated once and rewound in place thereafter.
	pool := make(chan *vm.Machine, workers)
	for i := 0; i < workers; i++ {
		pool <- nil
	}

	for start := 0; start < len(groups) && runCtx.Err() == nil; start += maxResidentSnapshots {
		endIdx := start + maxResidentSnapshots
		if endIdx > len(groups) {
			endIdx = len(groups)
		}
		wave := groups[start:endIdx]

		snaps, err := e.captureSnapshots(wave, cfValid, fuel)
		if err != nil {
			fail(err)
			break
		}

		gch := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wm := <-pool
				defer func() { pool <- wm }()
				for gi := range gch {
					begin := time.Now()
					wm = e.runGroup(runCtx, wm, &wave[gi], exps, golden, naRun,
						snaps[wave[gi].addr], sh, finish, fail)
					e.busyNanos.Add(time.Since(begin).Nanoseconds())
					e.harvestCounters(wm)
					if runCtx.Err() == nil {
						e.groupsDone.Add(1)
						if ec != nil {
							if wrote, werr := ec.writeBack(wave[gi].addr, exps, results); werr != nil {
								fail(fmt.Errorf("campaign: cache write-back at %#x: %w", wave[gi].addr, werr))
							} else {
								e.cacheWrites.Add(int64(wrote))
							}
						}
					}
				}
			}()
		}
	feed:
		for gi := range wave {
			select {
			case <-runCtx.Done():
				break feed
			case gch <- gi:
			}
		}
		close(gch)
		wg.Wait()
	}

	if w != nil {
		if err := w.close(int(e.done.Load()), e.countsMap()); err != nil && loopErr == nil {
			loopErr = fmt.Errorf("campaign: journal close: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		// The journal (if any) has already been closed with a final
		// checkpoint above, so a canceled campaign is cleanly resumable.
		return nil, &inject.CanceledError{Done: int(e.done.Load()), Total: total, Cause: err}
	}
	if loopErr != nil {
		return nil, loopErr
	}

	stats := inject.NewStats(e.cfg.App.Name, e.cfg.Scenario.Name, e.cfg.Scheme, inject.ModelOf(exps))
	for i := range results {
		stats.Add(results[i])
	}
	if e.cfg.KeepResults {
		stats.Results = results
	}
	return stats, nil
}

// runGroup executes every pending experiment of one target-address shard
// against the target's prefix snapshot (nil = never activated). It returns
// the (possibly newly allocated) reusable worker machine.
func (e *Engine) runGroup(ctx context.Context, wm *vm.Machine, g *group,
	exps []inject.Experiment, golden *classify.Golden, naRun *classify.Run,
	snap *snapEntry, sh *shadow, finish func(int, inject.Result), fail func(error)) *vm.Machine {

	if snap == nil {
		// The target instruction never executes under this scenario. A
		// from-scratch run would simply replay the fault-free session
		// around the dormant corruption: synthesize NA from the golden
		// observables without executing anything.
		for _, idx := range g.indices {
			if ctx.Err() != nil {
				return wm
			}
			e.synthesizedRuns.Add(1)
			finish(idx, inject.ResultFromRun(golden, exps[idx], naRun, e.cfg.Scenario.ShouldGrant, 0))
		}
		return wm
	}

	var chk convergenceChecker
	goldenEnd, goldenWindow := snap.goldenEnd(golden)
	shouldGrant := e.cfg.Scenario.ShouldGrant
	for _, idx := range g.indices {
		if ctx.Err() != nil {
			return wm
		}
		ex := exps[idx]
		mut := ex.Mutation()
		fresh := e.cfg.Scenario.New()
		k2 := snap.k.NewKernel(fresh)
		var sys vm.SyscallHandler = k2
		converging := sh != nil && chk.arm(sh, k2, g.addr, &mut)
		if converging {
			sys = &chk
		}
		var err error
		if wm, err = rewind(wm, snap, sys); err != nil {
			fail(fmt.Errorf("campaign: restore at %#x: %w", g.addr, err))
			return wm
		}
		// The snapshot IS the breakpoint-stop state (EIP at the target), so
		// the restored machine is a session ready for the mutation.
		s := inject.Session{Machine: wm, Kernel: k2, Client: fresh,
			ActivationSteps: snap.activationSteps, BytesAtActivation: snap.bytesAtActivation}
		run, window, err := inject.Execute(&s, &ex.Target, &mut, nil)
		if err != nil {
			fail(fmt.Errorf("campaign: inject at %#x: %w", ex.Target.Addr, err))
			return wm
		}
		e.snapshotRuns.Add(1)
		if converging && chk.at != 0 {
			e.convergedRuns.Add(1)
			e.instructionsSaved.Add(int64(golden.Steps - chk.at))
			res := inject.ResultFromRun(golden, ex, goldenEnd, shouldGrant, goldenWindow)
			if onConverged != nil {
				onConverged(idx, res, inject.ResultFromRun(golden, ex, &run, shouldGrant, window))
			}
			finish(idx, res)
			continue
		}
		finish(idx, inject.ResultFromRun(golden, ex, &run, shouldGrant, window))
	}
	return wm
}

func (e *Engine) countsMap() map[string]int {
	out := make(map[string]int, 5)
	for _, o := range classify.Outcomes() {
		if n := e.counts[o].Load(); n > 0 {
			out[o.String()] = int(n)
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
	// RunsPerSec is fresh-run throughput (journal-adopted runs excluded).
	RunsPerSec float64 `json:"runsPerSec"`
	// ETASeconds estimates time to completion at the current throughput;
	// 0 when done or unknown.
	ETASeconds float64 `json:"etaSeconds"`
}

// Progress reports campaign progress. Safe to call concurrently with Run.
func (e *Engine) Progress() Progress {
	p := Progress{
		Done:   int(e.done.Load()),
		Total:  int(e.total.Load()),
		Counts: e.countsMap(),
	}
	p.ElapsedSeconds = e.elapsed().Seconds()
	fresh := p.Done - int(e.preloaded.Load())
	if p.ElapsedSeconds > 0 && fresh > 0 {
		p.RunsPerSec = float64(fresh) / p.ElapsedSeconds
		if remaining := p.Total - p.Done; remaining > 0 {
			p.ETASeconds = float64(remaining) / p.RunsPerSec
		}
	}
	return p
}

// Metrics is the engine's operational counter set.
type Metrics struct {
	// RunsTotal is the number of completed fresh runs.
	RunsTotal int64 `json:"runsTotal"`
	// PrefixRuns is the number of golden sweep executions (one per wave
	// of up to maxResidentSnapshots scheduled targets).
	PrefixRuns int64 `json:"prefixRuns"`
	// SnapshotRuns is the number of runs served by snapshot restore.
	SnapshotRuns int64 `json:"snapshotRuns"`
	// SynthesizedNA is the number of NA results synthesized from an
	// unreached prefix without any execution.
	SynthesizedNA int64 `json:"synthesizedNA"`
	// NaiveRuns is always 0: every engine run is served by a snapshot or
	// synthesized. The key stays for /metrics wire compatibility.
	NaiveRuns int64 `json:"naiveRuns"`
	// JournalAdopted is the number of results adopted from a journal.
	JournalAdopted int64 `json:"journalAdopted"`
	// CacheHits is the number of runs adopted from the content-addressed
	// result store; CacheMisses the number of runs executed because their
	// target group had no usable entry (both 0 with the cache off).
	CacheHits   int64 `json:"cacheHits,omitempty"`
	CacheMisses int64 `json:"cacheMisses,omitempty"`
	// CacheWrites counts entries persisted to the store; CacheInvalid
	// counts entries rejected as corrupt or internally inconsistent
	// (each rejection also surfaces as misses for the group's runs).
	CacheWrites  int64 `json:"cacheWrites,omitempty"`
	CacheInvalid int64 `json:"cacheInvalid,omitempty"`
	// GroupsTotal and GroupsDone count the engine's target-address groups
	// (its internal shards): scheduled for this campaign, and fully
	// executed so far — the per-shard progress signal surfaced by fleet
	// workers and GET /metrics.
	GroupsTotal int64 `json:"groupsTotal"`
	GroupsDone  int64 `json:"groupsDone"`
	// SnapshotHitRate is the share of fresh runs that did not re-execute
	// the golden prefix (snapshot restores plus synthesized NAs).
	SnapshotHitRate float64 `json:"snapshotHitRate"`
	// ICacheHits and ICacheMisses count VM instruction retirements served
	// from versus decoded into the predecoded instruction cache, summed
	// over the engine's golden sweeps and snapshot-restored runs.
	ICacheHits   int64 `json:"icacheHits"`
	ICacheMisses int64 `json:"icacheMisses"`
	// ICacheHitRate is ICacheHits / (ICacheHits + ICacheMisses); 0 when
	// the cache is disabled (Config.NoICache) or nothing has retired yet.
	ICacheHitRate float64 `json:"icacheHitRate"`
	// TraceHits counts fused superblock trace executions; TraceExits
	// counts the subset that left the trace early (fault, fuel, or an
	// invalidating store mid-trace). Both are 0 with Config.NoTraces.
	TraceHits  int64 `json:"traceHits"`
	TraceExits int64 `json:"traceExits"`
	// DirtyBytesCopied is the bytes copied back by O(dirty) snapshot
	// restores; FullRestores counts restores that copied whole images
	// (first restore per machine/snapshot pair, or all restores with
	// Config.NoDirtyTracking).
	DirtyBytesCopied int64 `json:"dirtyBytesCopied"`
	FullRestores     int64 `json:"fullRestores"`
	// ConvergedRuns counts runs stopped at a syscall entry where their
	// whole state equalled the fault-free session's, apart from poked
	// bytes the session never retires or reads again, and
	// InstructionsSaved the golden instructions those runs therefore did
	// not interpret (golden steps minus each convergence step).
	ConvergedRuns     int64 `json:"convergedRuns,omitempty"`
	InstructionsSaved int64 `json:"instructionsSaved,omitempty"`
	// RunsPerSec is fresh-run throughput over the campaign wall time.
	RunsPerSec float64 `json:"runsPerSec"`
	// Workers is the worker pool size.
	Workers int `json:"workers"`
	// WorkerUtilization is aggregate busy time divided by workers times
	// wall time (1.0 = every worker busy the whole campaign).
	WorkerUtilization float64 `json:"workerUtilization"`
}

// Metrics reports operational counters. Safe to call concurrently with Run.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		SnapshotRuns:     e.snapshotRuns.Load(),
		SynthesizedNA:    e.synthesizedRuns.Load(),
		PrefixRuns:       e.prefixRuns.Load(),
		JournalAdopted:   e.preloaded.Load(),
		CacheHits:        e.cacheHits.Load(),
		CacheMisses:      e.cacheMisses.Load(),
		CacheWrites:      e.cacheWrites.Load(),
		CacheInvalid:     e.cacheInvalid.Load(),
		GroupsTotal:      e.groupsTotal.Load(),
		GroupsDone:       e.groupsDone.Load(),
		Workers:          int(e.workers.Load()),
		ICacheHits:       e.icacheHits.Load(),
		ICacheMisses:     e.icacheMisses.Load(),
		TraceHits:        e.traceHits.Load(),
		TraceExits:       e.traceExits.Load(),
		DirtyBytesCopied: e.dirtyBytesCopied.Load(),
		FullRestores:     e.fullRestores.Load(),

		ConvergedRuns:     e.convergedRuns.Load(),
		InstructionsSaved: e.instructionsSaved.Load(),
	}
	m.RunsTotal = m.SnapshotRuns + m.SynthesizedNA
	if m.RunsTotal > 0 {
		m.SnapshotHitRate = float64(m.SnapshotRuns+m.SynthesizedNA) / float64(m.RunsTotal)
	}
	if fetches := m.ICacheHits + m.ICacheMisses; fetches > 0 {
		m.ICacheHitRate = float64(m.ICacheHits) / float64(fetches)
	}
	elapsed := e.elapsed().Seconds()
	if elapsed > 0 {
		m.RunsPerSec = float64(m.RunsTotal) / elapsed
		if m.Workers > 0 {
			m.WorkerUtilization = float64(e.busyNanos.Load()) / 1e9 / (elapsed * float64(m.Workers))
		}
	}
	return m
}

func (e *Engine) elapsed() time.Duration {
	start := e.startNanos.Load()
	if start == 0 {
		return 0
	}
	end := e.endNanos.Load()
	if end == 0 {
		end = time.Now().UnixNano()
	}
	return time.Duration(end - start)
}
