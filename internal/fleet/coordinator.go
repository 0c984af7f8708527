package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"faultsec/internal/campaign"
	"faultsec/internal/inject"
)

// Coordinator executes one fleet campaign: it plans shards, leases them
// to workers, and records every streamed result in the campaign's
// campaign.Ledger, which journals first-seen results and builds the exact
// Stats a single-process engine produces. Its Progress and Metrics
// accessors are safe for concurrent use while the campaign runs
// (cmd/campaignd polls them from HTTP handlers).
type Coordinator struct {
	cfg     Config
	workers []*workerState
	led     atomic.Pointer[campaign.Ledger] // nil before Run

	mu        sync.Mutex
	shards    []*shardState
	shardsOut int           // shards done
	work      campaign.Work // summed from settled attempts only
	failErr   error
	cancelRun context.CancelFunc

	retries     atomic.Int64
	speculative atomic.Int64
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
	// leaseTimeout.
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
	led, err := campaign.OpenLedger(cc, exps, resume)
	if err != nil {
		return nil, err
	}
	c.led.Store(led)

	// The fault-free session runs once, before planning: its observables
	// are the result cache's key material, and a session that does not
	// exit cleanly fails the campaign before any lease. Cache adoption
	// follows: the ledger records every hit, so a shard whose experiments
	// are all cached (or journal-adopted) plans with an empty pending set
	// and is never leased — only the groups whose keyed context changed
	// execute.
	golden, err := inject.GoldenRun(cc.App, cc.Scenario, inject.EffectiveFuel(cc.Fuel))
	if err == nil {
		_, err = led.AdoptCache(ctx, golden)
	}
	if err != nil {
		return led.Finish(ctx, err)
	}

	shardRuns := c.cfg.ShardRuns
	if shardRuns <= 0 {
		shardRuns = defaultShardRuns(len(exps), len(c.workers))
	}
	c.mu.Lock()
	c.shards = planShards(exps, led.Have(), shardRuns)
	for _, sh := range c.shards {
		if len(sh.pending) == 0 {
			sh.done = true
			c.shardsOut++
		}
	}
	c.mu.Unlock()

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
	c.mu.Unlock()
	// On cancel the journal gets its final checkpoint: a canceled fleet
	// campaign resumes cleanly (on a fleet or on a single-process engine).
	return led.Finish(ctx, failErr)
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

// runner is one worker's dispatch loop: acquire a lease, execute the
// attempt under the lease deadline, settle the outcome, repeat.
func (c *Coordinator) runner(ctx context.Context, ws *workerState) {
	for {
		sh := c.acquire(ctx, ws)
		if sh == nil {
			return
		}
		spec := c.specFor(sh)
		actx, acancel := context.WithTimeout(ctx, leaseTimeout)
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

// deliver records one streamed result in the ledger, after checking it
// lies in the shard. The first delivery of an index wins and is journaled;
// later deliveries (speculative duplicates, or a retried shard re-covering
// runs a dead worker already streamed) are checked byte-identical against
// the winner — a mismatch means the determinism contract broke, and the
// campaign fails loudly rather than merge diverging data.
func (c *Coordinator) deliver(sh *shardState, ws *workerState, idx int, wr *campaign.WireResult) {
	if wr == nil {
		return
	}
	if idx < sh.start || idx >= sh.end {
		c.fail(fmt.Errorf("fleet: worker %s delivered index %d outside shard %d [%d,%d)",
			ws.w.Name(), idx, sh.id, sh.start, sh.end))
		return
	}
	led := c.led.Load()
	first, err := led.Record(idx, wr.ToResult(led.Experiments()[idx]))
	if err != nil {
		c.fail(fmt.Errorf("fleet: result from worker %s: %w", ws.w.Name(), err))
		return
	}
	if first {
		c.mu.Lock()
		sh.freshDone++
		c.mu.Unlock()
		ws.runs.Add(1)
	}
}

// settle closes out one attempt. Success marks the shard done (after
// checking the stream really covered every pending index) and adds the
// attempt's work counters, which a failed or duplicate attempt never
// does; failure re-leases it with capped exponential backoff until
// MaxAttempts, unless another attempt already finished the shard or the
// campaign is shutting down.
func (c *Coordinator) settle(ctx context.Context, sh *shardState, ws *workerState, work campaign.Work, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh.runners--
	led := c.led.Load()
	if err == nil {
		if idx, missing := led.Missing(sh.pending); missing {
			err = fmt.Errorf("fleet: worker %s reported shard %d complete but experiment %d is missing",
				ws.w.Name(), sh.id, idx)
		}
	}
	if err == nil {
		if !sh.done {
			sh.done = true
			c.shardsOut++
			ws.shardsDone.Add(1)
			c.work.Add(work)
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

// fail records the campaign's first error and cancels the run.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	c.failLocked(err)
	c.mu.Unlock()
}

// failLocked is fail for callers that hold c.mu.
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
// before leaseTimeout); one success re-admits it.
func (c *Coordinator) healthLoop(ctx context.Context, ws *workerState) {
	t := time.NewTicker(heartbeatEvery)
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		hctx, cancel := context.WithTimeout(ctx, heartbeatEvery)
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

// specFor builds the lease of sh from the campaign identity. The fuel
// travels as the config gives it, 0 for the default budget.
func (c *Coordinator) specFor(sh *shardState) ShardSpec {
	cc := &c.cfg.Campaign
	id := cc.Identity()
	return ShardSpec{
		App: id.App, Scenario: id.Scenario, Scheme: id.Scheme, Model: campaign.WireModel(id.Model),
		Fuel: cc.Fuel, Parallelism: cc.Parallelism, Watchdog: id.Watchdog,
		Total: len(c.led.Load().Experiments()), Shard: sh.id, Indices: sh.pending,
	}
}

// Progress reports campaign progress in the engine's shape. Safe to call
// concurrently with Run.
func (c *Coordinator) Progress() campaign.Progress { return c.led.Load().Progress() }
