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
//     the session at every syscall entry and, in a campaign without
//     register faults, every 1,000 steps. A run stops as soon as its
//     whole state equals the session's at the same step, apart from the
//     bytes a persistent fault poked that the session never retires or
//     reads again; the rest of its outcome is the golden one
//     (converge.go).
//
//   - Journaling. Every completed run is recorded in the campaign's
//     Ledger (ledger.go), which appends it to a JSONL journal with periodic
//     checkpoint records. Resume replays the journal, skips every recorded
//     experiment, and builds the exact Stats an uninterrupted campaign
//     produces from journaled and fresh results.
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
	"faultsec/internal/x86"
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
	// Parallelism is the worker count; 0 means GOMAXPROCS, and a larger
	// count is capped at GOMAXPROCS.
	Parallelism int
	// KeepResults retains every per-run Result in Stats.Results.
	KeepResults bool
	// Watchdog enables the control-flow checker for every run.
	Watchdog bool
	// Progress, when non-nil, receives (done, total) after each recorded
	// run, concurrently from worker goroutines.
	Progress func(done, total int)

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

// effectiveWorkers is the worker count for n target groups: Parallelism,
// at most GOMAXPROCS (each worker is CPU-bound and holds its own machine),
// and at most n when n > 0.
func (c *Config) effectiveWorkers(n int) int {
	procs := runtime.GOMAXPROCS(0)
	w := c.Parallelism
	if w <= 0 || w > procs {
		w = procs
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
	led atomic.Pointer[Ledger] // the campaign's record; nil before Run

	groupsTotal atomic.Int64 // target-address groups (engine-level shards) scheduled
	groupsDone  atomic.Int64 // groups whose pending experiments all finished

	prefixRuns      atomic.Int64 // golden prefix executions (one per reached target)
	snapshotRuns    atomic.Int64 // runs of activated targets (Metrics.SnapshotRuns)
	synthesizedRuns atomic.Int64 // NA runs synthesized from an unreached prefix

	// mu guards work, which Metrics reads while the campaign runs.
	mu   sync.Mutex
	work Work // harvested from machines and workers after each group

	workers   atomic.Int64
	busyNanos atomic.Int64
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
	if got, want := inject.ModelOf(exps), faultmodel.Canonical(e.cfg.Model); e.cfg.Journal != "" && got != want {
		// The journal header records cfg.Model as the index space; an
		// experiment list from a different model would journal indices
		// that mean different injections on resume.
		return nil, fmt.Errorf("campaign: experiment list is fault model %q but config (and journal identity) say %q", got, want)
	}
	led, err := OpenLedger(&e.cfg, exps, false)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, led)
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
	exps, err := e.enumerate()
	if err != nil {
		return nil, err
	}
	led, err := OpenLedger(&e.cfg, exps, true)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, led)
}

func (e *Engine) enumerate() ([]inject.Experiment, error) {
	return EnumerateConfig(&e.cfg)
}

// group is one shard: every pending experiment targeting one instruction.
type group struct {
	addr    uint32
	indices []int
}

// groupByTarget shards pending experiments (those without have[i]; nil
// means none is recorded) by target address, in first-appearance
// (address-enumeration) order.
func groupByTarget(exps []inject.Experiment, have []bool) []group {
	byAddr := make(map[uint32]int)
	var out []group
	for i := range exps {
		if have != nil && have[i] {
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

// record is a campaign's golden record: what the engine derives from the
// fault-free session, once per campaign, for every later stage to read.
type record struct {
	golden  *classify.Golden
	text    *inject.Text        // the campaign's one sweep of the pristine text
	cfValid map[uint32]struct{} // text's valid starts with the watchdog on, else nil
	sh      *shadow             // nil when no run may converge
}

// newRecord builds the golden record of a campaign whose fault-free
// session is golden and whose groups are left to run.
func (e *Engine) newRecord(golden *classify.Golden, exps []inject.Experiment, groups []group) (*record, error) {
	r := &record{golden: golden, text: inject.SweepText(e.cfg.App)}
	if e.cfg.Watchdog {
		r.cfValid = r.text.Starts()
	}
	if e.cfg.NoDirtyTracking || len(groups) == 0 {
		return r, nil
	}
	sh, err := e.goldenShadow(golden, r.text, exps, groups)
	if err != nil && !errors.Is(err, errShadowDiverged) {
		return nil, err
	}
	r.sh = sh
	return r, nil
}

// goldenEnd is the fault-free session's observable end, activated at
// snapshot s (a run from s that rejoined the shadow), or never activated
// with s nil (an NA run; determinism makes this exact, not a model), and
// the server bytes it sends inside the transient window.
func (r *record) goldenEnd(s *snapEntry) (*classify.Run, int) {
	g := r.golden
	run := &classify.Run{Err: &vm.ExitStatus{Code: g.ExitCode}, ServerBytes: g.ServerBytes, Granted: g.Granted, EndSteps: g.Steps}
	if s == nil {
		return run, 0
	}
	run.Activated, run.ActivationSteps = true, s.activationSteps
	return run, len(g.ServerBytes) - s.bytesAtActivation
}

// captureSnapshots runs one golden sweep with every wave target's
// breakpoint armed and snapshots the machine+kernel at each first hit.
// Execution is unperturbed by armed breakpoints, so each snapshot is
// identical to the state a single-breakpoint prefix run would reach. The
// sweep stops as soon as the last breakpoint is collected; targets whose
// breakpoint the fault-free session never reaches are absent from the
// returned table (their experiments classify as NA without execution).
func (e *Engine) captureSnapshots(wave []group, cfValid map[uint32]struct{}) (map[uint32]*snapEntry, error) {
	client := e.cfg.Scenario.New()
	k := kernel.New(client)
	ld, err := e.cfg.App.Image.Load(k, nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: sweep load: %w", err)
	}
	m := ld.Machine
	m.Fuel = e.cfg.effectiveFuel()
	m.CFValid = cfValid
	m.Tuning = e.cfg.Tuning
	for i := range wave {
		m.SetBreakpoint(wave[i].addr)
	}
	e.prefixRuns.Add(1)
	defer e.harvest(m, Work{})

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
	return snaps, nil
}

// harvest adds w and machine m's VM counters to the engine's Work and
// zeroes m's, so pooled machines are not double-counted.
func (e *Engine) harvest(m *vm.Machine, w Work) {
	if m != nil {
		w.addVM(&m.Counters)
		m.Counters = vm.Counters{}
	}
	e.mu.Lock()
	e.work.Add(w)
	e.mu.Unlock()
}

// campaignRun is one Engine.run: the campaign's ledger and golden record.
type campaignRun struct {
	e    *Engine
	led  *Ledger
	exps []inject.Experiment
	rec  *record
	fail context.CancelCauseFunc // cancels the campaign; its first error is the cause
}

// run is the engine core: shard by target, sweep-capture snapshots in
// waves, execute on the worker pool, and record every run in led, which
// journals and aggregates.
func (e *Engine) run(ctx context.Context, led *Ledger) (*inject.Stats, error) {
	e.led.Store(led)
	golden, err := inject.GoldenRun(e.cfg.App, e.cfg.Scenario, e.cfg.effectiveFuel())
	if err != nil {
		// Finish aborts the journal, releasing the path claim (else every
		// later submit gets ErrJournalBusy) and removing a header-only file.
		return led.Finish(ctx, err)
	}

	runCtx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	c := &campaignRun{e: e, led: led, exps: led.Experiments(), fail: fail}

	// Cache adoption comes before any execution is scheduled. The ledger
	// records adopted runs like executed ones (journaled, streamed,
	// counted), so a warm campaign is indistinguishable downstream from a
	// cold one; the groups left pending are the delta that executes.
	adopted, err := led.AdoptCache(runCtx, golden)
	if err != nil {
		fail(err)
	}
	groups := led.pending()
	e.groupsTotal.Store(int64(adopted + len(groups)))
	e.groupsDone.Store(int64(adopted))
	if runCtx.Err() == nil {
		if c.rec, err = e.newRecord(golden, c.exps, groups); err != nil {
			fail(err)
		}
	}

	workers := e.cfg.effectiveWorkers(len(groups))
	e.workers.Store(int64(workers))

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

		snaps, err := e.captureSnapshots(wave, c.rec.cfValid)
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
					var work Work
					wm = c.runGroup(runCtx, wm, &wave[gi], snaps[wave[gi].addr], &work)
					e.busyNanos.Add(time.Since(begin).Nanoseconds())
					e.harvest(wm, work)
					if runCtx.Err() == nil {
						e.groupsDone.Add(1)
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

	err = context.Cause(runCtx)
	if err == context.Cause(ctx) {
		err = nil // the caller canceled; nothing failed
	}
	return led.Finish(ctx, err)
}

// runGroup executes every pending experiment of one target-address shard
// against the target's prefix snapshot (nil = never activated). It returns
// the (possibly newly allocated) reusable worker machine, records every
// run in the ledger, and counts the group's converged runs in w.
func (c *campaignRun) runGroup(ctx context.Context, wm *vm.Machine, g *group, snap *snapEntry, w *Work) *vm.Machine {
	golden, shouldGrant := c.rec.golden, c.e.cfg.Scenario.ShouldGrant
	if snap == nil {
		// The target instruction never executes under this scenario. A
		// from-scratch run would simply replay the fault-free session
		// around the dormant corruption: synthesize NA from the golden
		// observables without executing anything.
		naRun, _ := c.rec.goldenEnd(nil)
		for _, idx := range g.indices {
			if ctx.Err() != nil {
				return wm
			}
			c.e.synthesizedRuns.Add(1)
			if _, err := c.led.Record(idx, inject.ResultFromRun(golden, c.exps[idx], naRun, shouldGrant, 0)); err != nil {
				c.fail(err)
				return wm
			}
		}
		return wm
	}

	var chk convergenceChecker
	onAlarm := chk.alarm
	goldenEnd, goldenWindow := c.rec.goldenEnd(snap)
	sh := c.rec.sh
	var deadLanes x86.Lanes
	if sh != nil {
		var err error
		if deadLanes, err = sh.dead(g.addr, snap.activationSteps); err != nil {
			c.fail(err)
			return wm
		}
	}
	for _, idx := range g.indices {
		if ctx.Err() != nil {
			return wm
		}
		ex := c.exps[idx]
		mut := ex.Mutation()
		// A fault into register lanes that are not strongly live leaves
		// the golden session running from its activation on: it converges
		// there without executing, unless the paranoid hook wants the
		// executed run too.
		dead := mut.Kind == inject.MutReg && x86.MaskLanes(mut.Reg, mut.RegXor)&^deadLanes == 0
		converged, at := dead, snap.activationSteps
		var (
			run    classify.Run
			window int
		)
		if !dead || onConverged != nil {
			fresh := c.e.cfg.Scenario.New()
			k2 := snap.k.NewKernel(fresh)
			var sys vm.SyscallHandler = k2
			if sh != nil {
				sys = &chk
			}
			var err error
			if wm, err = rewind(wm, snap, sys); err != nil {
				c.fail(fmt.Errorf("campaign: restore at %#x: %w", g.addr, err))
				return wm
			}
			// The snapshot IS the breakpoint-stop state (EIP at the target),
			// so the restored machine is a session ready for the mutation.
			s := inject.Session{Machine: wm, Kernel: k2, Client: fresh,
				ActivationSteps: snap.activationSteps, BytesAtActivation: snap.bytesAtActivation}
			if sh != nil {
				chk.arm(sh, k2, wm, g.addr, &mut)
				s.OnAlarm = onAlarm
			}
			if run, window, err = inject.Execute(&s, &ex.Target, &mut, nil); err != nil {
				c.fail(fmt.Errorf("campaign: inject at %#x: %w", ex.Target.Addr, err))
				return wm
			}
			if !dead {
				converged, at = chk.at != 0, chk.at
			}
			w.InstructionsInterpreted += int64(run.EndSteps - snap.activationSteps)
		}
		var res inject.Result
		if converged {
			w.ConvergedRuns++
			w.InstructionsSaved += int64(golden.Steps - at)
			res = inject.ResultFromRun(golden, ex, goldenEnd, shouldGrant, goldenWindow)
			if onConverged != nil {
				onConverged(idx, res, inject.ResultFromRun(golden, ex, &run, shouldGrant, window))
			}
		} else {
			res = inject.ResultFromRun(golden, ex, &run, shouldGrant, window)
		}
		c.e.snapshotRuns.Add(1)
		if _, err := c.led.Record(idx, res); err != nil {
			c.fail(err)
			return wm
		}
	}
	return wm
}

// Progress reports campaign progress. Safe to call concurrently with Run.
func (e *Engine) Progress() Progress { return e.led.Load().Progress() }

// Work is the work-counter record every layer passes along and adds to:
// an engine sums it over its machines and runs, a fleet coordinator over
// its settled shards, campaignd over its campaigns. The six VM counters
// are the vm.Counters of the machines that did the work.
type Work struct {
	// ICacheHits and ICacheMisses count VM instruction retirements served
	// from versus decoded into the predecoded instruction cache, summed
	// over golden sweeps and snapshot-restored runs.
	ICacheHits   int64 `json:"icacheHits"`
	ICacheMisses int64 `json:"icacheMisses"`
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
	// ConvergedRuns counts runs stopped at a syscall entry or a dense
	// checkpoint where their whole state equalled the fault-free
	// session's, apart from poked bytes the session never retires or
	// reads again; register-fault runs
	// stopped at a syscall entry where every register lane, flag and
	// memory byte they still differed in was dead (not strongly live);
	// and register faults into lanes dead at their activation, which stop
	// there.
	// InstructionsSaved is the golden instructions those runs therefore
	// did not interpret (golden steps minus each convergence step).
	ConvergedRuns     int64 `json:"convergedRuns,omitempty"`
	InstructionsSaved int64 `json:"instructionsSaved,omitempty"`
	// InstructionsInterpreted is the post-activation instructions the
	// executed runs retired: each run's end (or convergence) step minus
	// its activation step. Runs that execute nothing add 0.
	InstructionsInterpreted int64 `json:"instructionsInterpreted,omitempty"`
}

// Add adds o to w.
func (w *Work) Add(o Work) {
	w.ICacheHits += o.ICacheHits
	w.ICacheMisses += o.ICacheMisses
	w.TraceHits += o.TraceHits
	w.TraceExits += o.TraceExits
	w.DirtyBytesCopied += o.DirtyBytesCopied
	w.FullRestores += o.FullRestores
	w.ConvergedRuns += o.ConvergedRuns
	w.InstructionsSaved += o.InstructionsSaved
	w.InstructionsInterpreted += o.InstructionsInterpreted
}

// addVM adds a machine's counters to w.
func (w *Work) addVM(c *vm.Counters) {
	w.Add(Work{
		ICacheHits: int64(c.ICacheHits), ICacheMisses: int64(c.ICacheMisses),
		TraceHits: int64(c.TraceHits), TraceExits: int64(c.TraceExits),
		DirtyBytesCopied: int64(c.DirtyBytesCopied), FullRestores: int64(c.FullRestores),
	})
}

// Metrics is the engine's operational counter set.
type Metrics struct {
	// RunsTotal is the number of completed fresh runs.
	RunsTotal int64 `json:"runsTotal"`
	// PrefixRuns is the number of golden sweep executions (one per wave
	// of up to maxResidentSnapshots scheduled targets).
	PrefixRuns int64 `json:"prefixRuns"`
	// SnapshotRuns is the number of runs of activated targets: runs served
	// by snapshot restore, and dead-register runs, which restore nothing.
	SnapshotRuns int64 `json:"snapshotRuns"`
	// SynthesizedNA is the number of NA results synthesized from an
	// unreached prefix without any execution.
	SynthesizedNA int64 `json:"synthesizedNA"`
	// NaiveRuns is always 0: every engine run is served by a snapshot or
	// synthesized. The key stays for /metrics wire compatibility.
	NaiveRuns int64 `json:"naiveRuns"`
	// JournalAdopted is the number of results adopted from a journal.
	JournalAdopted int64 `json:"journalAdopted"`
	// CacheCounters are the result cache's counters (all 0 with the cache
	// off).
	CacheCounters
	// GroupsTotal and GroupsDone count the engine's target-address groups
	// (its internal shards): scheduled for this campaign, and fully
	// executed so far — the per-shard progress signal surfaced by fleet
	// workers and GET /metrics.
	GroupsTotal int64 `json:"groupsTotal"`
	GroupsDone  int64 `json:"groupsDone"`
	// SnapshotHitRate is 1 once a fresh run completed, else 0: every
	// fresh run is a snapshot restore or a synthesized NA, so none
	// re-executes the golden prefix. The key stays for /metrics wire
	// compatibility.
	SnapshotHitRate float64 `json:"snapshotHitRate"`
	// Work holds the VM and golden-convergence counters.
	Work
	// ICacheHitRate is ICacheHits / (ICacheHits + ICacheMisses); 0 when
	// the cache is disabled (Config.NoICache) or nothing has retired yet.
	ICacheHitRate float64 `json:"icacheHitRate"`
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
	led := e.led.Load()
	m := Metrics{
		SnapshotRuns:   e.snapshotRuns.Load(),
		SynthesizedNA:  e.synthesizedRuns.Load(),
		PrefixRuns:     e.prefixRuns.Load(),
		JournalAdopted: int64(led.Tally().JournalAdopted),
		CacheCounters:  led.CacheCounters(),
		GroupsTotal:    e.groupsTotal.Load(),
		GroupsDone:     e.groupsDone.Load(),
		Workers:        int(e.workers.Load()),
	}
	e.mu.Lock()
	m.Work = e.work
	e.mu.Unlock()
	m.RunsTotal = m.SnapshotRuns + m.SynthesizedNA
	if m.RunsTotal > 0 {
		m.SnapshotHitRate = 1
	}
	if fetches := m.ICacheHits + m.ICacheMisses; fetches > 0 {
		m.ICacheHitRate = float64(m.ICacheHits) / float64(fetches)
	}
	elapsed := led.Elapsed().Seconds()
	if elapsed > 0 {
		m.RunsPerSec = float64(m.RunsTotal) / elapsed
		if m.Workers > 0 {
			m.WorkerUtilization = float64(e.busyNanos.Load()) / 1e9 / (elapsed * float64(m.Workers))
		}
	}
	return m
}
