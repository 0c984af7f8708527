package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"faultsec/internal/campaign"
	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
)

// Coordinator executes one fleet campaign: it plans shards, leases them
// to workers, journals every first-seen result, and merges the shard
// aggregates into the exact Stats a single-process engine produces. Its
// Progress and Metrics accessors are safe for concurrent use while the
// campaign runs (cmd/campaignd polls them from HTTP handlers).
type Coordinator struct {
	cfg     Config
	workers []*workerState

	mu        sync.Mutex
	shards    []*shardState
	shardsOut int // shards done
	exps      []inject.Experiment
	results   []inject.Result
	have      []bool
	jr        *campaign.Journal
	cv        *campaign.CacheView
	failErr   error
	cancelRun context.CancelFunc

	total        atomic.Int64
	done         atomic.Int64
	adopted      atomic.Int64
	cacheAdopted atomic.Int64
	counts       [6]atomic.Int64
	freshRuns    atomic.Int64
	retries      atomic.Int64
	speculative  atomic.Int64
	duplicates   atomic.Int64
	// converged and saved sum the work counters of settled shards only.
	converged  atomic.Int64
	saved      atomic.Int64
	startNanos atomic.Int64
	endNanos   atomic.Int64
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	w       Worker
	healthy atomic.Bool

	shardsDone atomic.Int64
	runs       atomic.Int64

	// attemptCancel aborts the worker's in-flight shard attempt (set
	// under Coordinator.mu); the health loop fires it when the worker
	// stops answering, so a dead worker's lease frees before its
	// LeaseTimeout.
	attemptCancel context.CancelFunc
}

// New returns a coordinator for cfg. With no workers configured it runs
// single-node over an in-process loopback worker.
func New(cfg Config) *Coordinator {
	c := &Coordinator{cfg: cfg}
	ws := cfg.Workers
	if len(ws) == 0 && cfg.Campaign.App != nil {
		ws = []Worker{NewLoopback("loopback", cfg.Campaign.App)}
	}
	for _, w := range ws {
		st := &workerState{w: w}
		st.healthy.Store(true)
		c.workers = append(c.workers, st)
	}
	return c
}

// Run executes the full campaign across the fleet. An existing journal at
// cfg.Campaign.Journal is truncated; use Resume to continue one.
func (c *Coordinator) Run(ctx context.Context) (*inject.Stats, error) {
	return c.run(ctx, false)
}

// Resume continues the campaign recorded in cfg.Campaign.Journal:
// journaled results are adopted verbatim (excluded from every shard's
// dispatched set), the remainder is executed across the fleet, and the
// merged Stats is identical to an uninterrupted run. The journal format
// is the engine's, so a fleet coordinator resumes a single-process
// campaign's journal and vice versa.
func (c *Coordinator) Resume(ctx context.Context) (*inject.Stats, error) {
	return c.run(ctx, true)
}

func (c *Coordinator) run(ctx context.Context, resume bool) (*inject.Stats, error) {
	if len(c.workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	cc := &c.cfg.Campaign
	exps, err := campaign.EnumerateConfig(cc)
	if err != nil {
		return nil, err
	}
	total := len(exps)
	c.total.Store(int64(total))
	c.startNanos.Store(time.Now().UnixNano())
	defer func() { c.endNanos.Store(time.Now().UnixNano()) }()

	var jr *campaign.Journal
	var adopted map[int]inject.Result
	switch {
	case cc.Journal != "":
		if jr, err = campaign.OpenJournal(cc, total, !resume); err != nil {
			return nil, err
		}
		if resume {
			if adopted, err = campaign.ReplayJournal(cc, exps); err != nil {
				if aerr := jr.Abort(); aerr != nil {
					err = fmt.Errorf("%w (journal abort: %v)", err, aerr)
				}
				return nil, err
			}
		}
	case resume:
		return nil, errors.New("fleet: Resume needs cfg.Campaign.Journal")
	}

	// The cache view runs one fault-free golden session (its observables
	// are key material), so it is built before taking the lock.
	cv, err := campaign.NewCacheView(*cc, exps)
	if err != nil {
		if jr != nil {
			if aerr := jr.Abort(); aerr != nil {
				err = fmt.Errorf("%w (journal abort: %v)", err, aerr)
			}
		}
		return nil, err
	}

	c.mu.Lock()
	c.exps = exps
	c.results = make([]inject.Result, total)
	c.have = make([]bool, total)
	for idx, r := range adopted {
		c.results[idx] = r
		c.have[idx] = true
		c.counts[r.Outcome].Add(1)
	}
	c.adopted.Store(int64(len(adopted)))
	c.done.Store(int64(len(adopted)))
	c.jr = jr
	c.cv = cv

	// Cache adoption happens before planning: every hit is journaled and
	// marked have, so a shard whose experiments are all cached (or
	// journal-adopted) plans with an empty pending set and is never
	// leased — only the groups whose keyed context changed execute.
	type adoptedRun struct {
		idx int
		res inject.Result
		d   int
	}
	var cacheRuns []adoptedRun
	if cv != nil {
		for _, g := range addrGroups(exps, 0, total) {
			var pending []int
			for i := g.lo; i < g.hi; i++ {
				if !c.have[i] {
					pending = append(pending, i)
				}
			}
			if len(pending) == 0 {
				continue
			}
			res := cv.Adopt(g.addr, exps, pending)
			if len(res) == 0 {
				continue
			}
			for _, idx := range pending {
				r, hit := res[idx]
				if !hit {
					continue // class miss: stays pending, planned into a shard
				}
				c.results[idx] = r
				c.have[idx] = true
				c.counts[r.Outcome].Add(1)
				d := int(c.done.Add(1))
				c.cacheAdopted.Add(1)
				if jr != nil {
					if err := jr.Append(idx, r, d, c.countsMap()); err != nil {
						c.failLocked(fmt.Errorf("fleet: journal append: %w", err))
						break
					}
				}
				cacheRuns = append(cacheRuns, adoptedRun{idx: idx, res: r, d: d})
			}
			if c.failErr != nil {
				break
			}
		}
	}

	shardRuns := c.cfg.ShardRuns
	if shardRuns <= 0 {
		shardRuns = defaultShardRuns(total, len(c.workers))
	}
	c.shards = planShards(exps, c.have, shardRuns)
	for _, sh := range c.shards {
		if len(sh.pending) == 0 {
			sh.done = true
			c.shardsOut++
			// Backfill the store from shards completed without leasing
			// (journal-adopted resumes): their groups may predate the cache.
			c.storeShardGroupsLocked(sh)
		}
	}
	c.mu.Unlock()

	// Fire the progress/result hooks for cache-adopted runs outside the
	// lock, in adoption order — mirroring deliver for fresh runs.
	if progress, onResult := cc.Progress, cc.OnResult; progress != nil || onResult != nil {
		for _, ar := range cacheRuns {
			if progress != nil {
				progress(ar.d, total)
			}
			if onResult != nil {
				onResult(ar.idx, ar.res)
			}
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.mu.Lock()
	c.cancelRun = cancel
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, ws := range c.workers {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			c.runner(runCtx, ws)
		}(ws)
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			c.healthLoop(runCtx, ws)
		}(ws)
	}

	// Runners exit when every shard is done, the campaign failed, or the
	// context is canceled; cancel unblocks the health loops afterwards.
	waitRunners := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitRunners)
	}()
	<-c.runnersDone(runCtx)
	cancel()
	<-waitRunners

	c.mu.Lock()
	failErr := c.failErr
	doneRuns := int(c.done.Load())
	countsNow := c.countsMap()
	c.mu.Unlock()

	if jr != nil {
		if err := jr.Close(doneRuns, countsNow); err != nil && failErr == nil {
			failErr = fmt.Errorf("fleet: journal close: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		// Every journaled run is flushed and the final checkpoint written:
		// a canceled fleet campaign resumes cleanly (on a fleet or on a
		// single-process engine).
		return nil, &inject.CanceledError{Done: doneRuns, Total: total, Cause: err}
	}
	if failErr != nil {
		return nil, failErr
	}
	return c.assemble()
}

// runnersDone returns a channel closed once every shard is settled (done
// or failed) or the run context ends — the coordinator's own completion
// signal, independent of runner goroutine scheduling.
func (c *Coordinator) runnersDone(ctx context.Context) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		for {
			c.mu.Lock()
			finished := c.shardsOut == len(c.shards) || c.failErr != nil
			c.mu.Unlock()
			if finished || ctx.Err() != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	return ch
}

// assemble merges the per-shard aggregates in plan order. Shards tile the
// enumeration, so the merge is byte-identical to a single pass of
// Stats.Add over all results — the same aggregate a single-process
// engine builds.
func (c *Coordinator) assemble() (*inject.Stats, error) {
	cc := &c.cfg.Campaign
	c.mu.Lock()
	defer c.mu.Unlock()
	model := inject.ModelOf(c.exps)
	stats := inject.NewStats(cc.App.Name, cc.Scenario.Name, cc.Scheme, model)
	for i, ok := range c.have {
		if !ok {
			return nil, fmt.Errorf("fleet: internal: experiment %d has no result after completion", i)
		}
	}
	for _, sh := range c.shards {
		ss := inject.NewStats(cc.App.Name, cc.Scenario.Name, cc.Scheme, model)
		for i := sh.start; i < sh.end; i++ {
			ss.Add(c.results[i])
		}
		if err := stats.Merge(ss); err != nil {
			return nil, err
		}
	}
	if cc.KeepResults {
		stats.Results = c.results
	}
	return stats, nil
}

// runner is one worker's dispatch loop: acquire a lease, execute the
// attempt under the lease deadline, settle the outcome, repeat.
func (c *Coordinator) runner(ctx context.Context, ws *workerState) {
	for {
		sh := c.acquire(ctx, ws)
		if sh == nil {
			return
		}
		spec := c.specFor(sh)
		actx, acancel := context.WithTimeout(ctx, c.cfg.leaseTimeout())
		c.setAttemptCancel(ws, acancel)
		work, err := ws.w.RunShard(actx, spec, func(idx int, wr *campaign.WireResult) {
			c.deliver(sh, ws, idx, wr)
		})
		c.setAttemptCancel(ws, nil)
		acancel()
		c.settle(ctx, sh, ws, work, err)
	}
}

// acquire leases the next shard for ws, blocking until one is eligible,
// every shard is settled, the campaign failed, or ctx ends (the last
// three return nil). Pending shards are served in plan order once their
// backoff window passes; with nothing pending, an idle worker joins the
// longest-running solo attempt past the straggler threshold. An unhealthy
// worker leases nothing — unless every worker is unhealthy, in which case
// leasing proceeds best-effort so a dead fleet fails by attempt
// exhaustion instead of hanging.
func (c *Coordinator) acquire(ctx context.Context, ws *workerState) *shardState {
	for {
		if ctx.Err() != nil {
			return nil
		}
		c.mu.Lock()
		if c.shardsOut == len(c.shards) || c.failErr != nil {
			c.mu.Unlock()
			return nil
		}
		if ws.healthy.Load() || c.allUnhealthy() {
			now := time.Now()
			var pick *shardState
			for _, sh := range c.shards {
				if sh.done || sh.runners != 0 || now.Before(sh.nextEligible) {
					continue
				}
				if len(c.workers) > 1 && sh.lastFailWorker == ws.w.Name() {
					continue // let a different worker rescue it
				}
				pick = sh
				break
			}
			if pick == nil {
				var oldest *shardState
				for _, sh := range c.shards {
					if sh.done || sh.runners != 1 || sh.speculated {
						continue
					}
					if now.Sub(sh.startedAt) <= c.cfg.stragglerAfter() {
						continue
					}
					if sh.worker == ws.w.Name() {
						continue // don't speculate against yourself
					}
					if oldest == nil || sh.startedAt.Before(oldest.startedAt) {
						oldest = sh
					}
				}
				if oldest != nil {
					oldest.speculated = true
					c.speculative.Add(1)
					pick = oldest
				}
			}
			if pick != nil {
				pick.runners++
				pick.worker = ws.w.Name()
				pick.startedAt = now
				c.mu.Unlock()
				return pick
			}
		}
		c.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
}

// allUnhealthy reports whether no worker currently passes health checks.
func (c *Coordinator) allUnhealthy() bool {
	for _, ws := range c.workers {
		if ws.healthy.Load() {
			return false
		}
	}
	return true
}

// deliver records one streamed result. The first delivery of an index
// wins and is journaled; later deliveries (speculative duplicates, or a
// retried shard re-covering runs a dead worker already streamed) are
// checked byte-identical against the winner — a mismatch means the
// determinism contract broke, and the campaign fails loudly rather than
// merge diverging data.
func (c *Coordinator) deliver(sh *shardState, ws *workerState, idx int, wr *campaign.WireResult) {
	if wr == nil {
		return
	}
	c.mu.Lock()
	if idx < sh.start || idx >= sh.end {
		c.failLocked(fmt.Errorf("fleet: worker %s delivered index %d outside shard %d [%d,%d)",
			ws.w.Name(), idx, sh.id, sh.start, sh.end))
		c.mu.Unlock()
		return
	}
	res := wr.ToResult(c.exps[idx])
	if c.have[idx] {
		c.duplicates.Add(1)
		if !reflect.DeepEqual(c.results[idx], res) {
			c.failLocked(fmt.Errorf("fleet: determinism violation: experiment %d from %s differs from the recorded result",
				idx, ws.w.Name()))
		}
		c.mu.Unlock()
		return
	}
	c.results[idx] = res
	c.have[idx] = true
	c.counts[res.Outcome].Add(1)
	d := int(c.done.Add(1))
	c.freshRuns.Add(1)
	sh.freshDone++
	ws.runs.Add(1)
	if c.jr != nil {
		if err := c.jr.Append(idx, res, d, c.countsMap()); err != nil {
			c.failLocked(fmt.Errorf("fleet: journal append: %w", err))
		}
	}
	progress := c.cfg.Campaign.Progress
	onResult := c.cfg.Campaign.OnResult
	total := int(c.total.Load())
	c.mu.Unlock()

	if progress != nil {
		progress(d, total)
	}
	if onResult != nil {
		onResult(idx, res)
	}
}

// settle closes out one attempt. Success marks the shard done (after
// checking the stream really covered every pending index) and adds the
// attempt's work counters, which a failed or duplicate attempt never
// does; failure re-leases it with capped exponential backoff until
// MaxAttempts, unless another attempt already finished the shard or the
// campaign is shutting down.
func (c *Coordinator) settle(ctx context.Context, sh *shardState, ws *workerState, work ShardWork, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh.runners--
	if err == nil {
		for _, idx := range sh.pending {
			if !c.have[idx] {
				err = fmt.Errorf("fleet: worker %s reported shard %d complete but experiment %d is missing",
					ws.w.Name(), sh.id, idx)
				break
			}
		}
	}
	if err == nil {
		if !sh.done {
			sh.done = true
			c.shardsOut++
			ws.shardsDone.Add(1)
			c.converged.Add(work.ConvergedRuns)
			c.saved.Add(work.InstructionsSaved)
			// Persist the shard's freshly executed target groups; a group
			// whose entry already exists (an adopted hit, or a concurrent
			// writer) is a verified no-op inside StoreGroup.
			c.storeShardGroupsLocked(sh)
		}
		return
	}
	if sh.done || c.failErr != nil || ctx.Err() != nil {
		return // superseded by a successful attempt, or shutting down
	}
	sh.attempts++
	sh.lastErr = err
	sh.lastFailWorker = ws.w.Name()
	c.retries.Add(1)
	if sh.attempts >= c.cfg.maxAttempts() {
		c.failLocked(fmt.Errorf("fleet: shard %d [%d,%d) failed %d attempts, last on %s: %w",
			sh.id, sh.start, sh.end, sh.attempts, ws.w.Name(), err))
		return
	}
	sh.nextEligible = time.Now().Add(c.cfg.backoff(sh.attempts))
}

// storeShardGroupsLocked writes every completed target group of sh to the
// result cache (readwrite mode only; no-op without a cache view). Callers
// hold c.mu. A write failure fails the campaign: a same-key content
// mismatch would mean the key derivation missed an input.
func (c *Coordinator) storeShardGroupsLocked(sh *shardState) {
	if c.cv == nil {
		return
	}
	for _, g := range addrGroups(c.exps, sh.start, sh.end) {
		if _, err := c.cv.StoreGroup(g.addr, c.exps, c.results, c.have); err != nil {
			c.failLocked(fmt.Errorf("fleet: cache write-back at %#x: %w", g.addr, err))
			return
		}
	}
}

// addrSpan is one contiguous target-address group of the enumeration.
type addrSpan struct {
	addr   uint32
	lo, hi int // global experiment index range [lo, hi)
}

// addrGroups splits exps[lo:hi) into its contiguous target-address groups
// (the enumeration is target-major, so each target's experiments are
// contiguous — the same property the shard planner leans on).
func addrGroups(exps []inject.Experiment, lo, hi int) []addrSpan {
	var out []addrSpan
	for i := lo; i < hi; {
		j := i + 1
		for j < hi && exps[j].Target.Addr == exps[i].Target.Addr {
			j++
		}
		out = append(out, addrSpan{addr: exps[i].Target.Addr, lo: i, hi: j})
		i = j
	}
	return out
}

// failLocked records the campaign's first error and cancels the run.
// Callers hold c.mu.
func (c *Coordinator) failLocked(err error) {
	if c.failErr == nil {
		c.failErr = err
	}
	if c.cancelRun != nil {
		c.cancelRun()
	}
}

// healthLoop heartbeats one worker. Two consecutive failures mark it
// unhealthy and cancel its in-flight attempt (freeing the lease well
// before LeaseTimeout); one success re-admits it.
func (c *Coordinator) healthLoop(ctx context.Context, ws *workerState) {
	t := time.NewTicker(c.cfg.heartbeatEvery())
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		hctx, cancel := context.WithTimeout(ctx, c.cfg.heartbeatEvery())
		err := ws.w.Healthy(hctx)
		cancel()
		if err != nil {
			fails++
			if fails >= 2 && ws.healthy.CompareAndSwap(true, false) {
				c.mu.Lock()
				if ws.attemptCancel != nil {
					ws.attemptCancel()
				}
				c.mu.Unlock()
			}
		} else {
			fails = 0
			ws.healthy.Store(true)
		}
	}
}

func (c *Coordinator) setAttemptCancel(ws *workerState, cancel context.CancelFunc) {
	c.mu.Lock()
	ws.attemptCancel = cancel
	c.mu.Unlock()
}

func (c *Coordinator) specFor(sh *shardState) ShardSpec {
	cc := &c.cfg.Campaign
	return ShardSpec{
		App: cc.App.Name, Scenario: cc.Scenario.Name, Scheme: encoding.SchemeName(cc.Scheme),
		Model: campaign.WireModel(cc.Model),
		Fuel:  cc.Fuel, Parallelism: cc.Parallelism, Watchdog: cc.Watchdog,
		Tuning: cc.Tuning, CacheMode: cc.CacheMode,
		Total: len(c.exps), Shard: sh.id, Indices: sh.pending,
	}
}

func (c *Coordinator) countsMap() map[string]int {
	out := make(map[string]int, 5)
	for _, o := range classify.Outcomes() {
		if n := c.counts[o].Load(); n > 0 {
			out[o.String()] = int(n)
		}
	}
	return out
}

// Progress reports campaign progress in the engine's shape. Safe to call
// concurrently with Run.
func (c *Coordinator) Progress() campaign.Progress {
	p := campaign.Progress{
		Done:   int(c.done.Load()),
		Total:  int(c.total.Load()),
		Counts: c.countsMap(),
	}
	p.ElapsedSeconds = c.elapsed().Seconds()
	fresh := p.Done - int(c.adopted.Load()) - int(c.cacheAdopted.Load())
	if p.ElapsedSeconds > 0 && fresh > 0 {
		p.RunsPerSec = float64(fresh) / p.ElapsedSeconds
		if remaining := p.Total - p.Done; remaining > 0 {
			p.ETASeconds = float64(remaining) / p.RunsPerSec
		}
	}
	return p
}

func (c *Coordinator) elapsed() time.Duration {
	start := c.startNanos.Load()
	if start == 0 {
		return 0
	}
	end := c.endNanos.Load()
	if end == 0 {
		end = time.Now().UnixNano()
	}
	return time.Duration(end - start)
}
