package fleet

import "faultsec/internal/campaign"

// Metrics is a point-in-time snapshot of a fleet campaign's internals:
// shard lease states, retry/speculation counters, and per-worker tallies.
// campaignd folds it into GET /metrics.
type Metrics struct {
	ShardsTotal         int   `json:"shardsTotal"`
	ShardsDone          int   `json:"shardsDone"`
	Retries             int64 `json:"retries"`
	SpeculativeAttempts int64 `json:"speculativeAttempts"`
	DuplicateRuns       int64 `json:"duplicateRuns"`
	JournalAdopted      int64 `json:"journalAdopted"`
	// CacheCounters are the coordinator's own result-cache counters: runs
	// adopted from the store before leasing, runs leased because their
	// target group had no usable entry, entries persisted on shard
	// settlement, and entries rejected as corrupt or inconsistent.
	campaign.CacheCounters
	// Work sums the work counters of settled shards, as their workers'
	// engines reported them; retried and speculative duplicate attempts
	// are not counted.
	campaign.Work
	// RunsTotal counts fresh (non-adopted) runs delivered and accepted.
	RunsTotal  int64   `json:"runsTotal"`
	RunsPerSec float64 `json:"runsPerSec"`

	WorkersTotal   int            `json:"workersTotal"`
	WorkersHealthy int            `json:"workersHealthy"`
	Workers        []WorkerStatus `json:"workers"`
	Shards         []ShardStatus  `json:"shards"`
}

// WorkerStatus is one worker's row in Metrics.
type WorkerStatus struct {
	Name       string `json:"name"`
	Healthy    bool   `json:"healthy"`
	ShardsDone int64  `json:"shardsDone"`
	Runs       int64  `json:"runs"`
}

// ShardStatus is one shard's row in Metrics.
type ShardStatus struct {
	ID      int `json:"id"`
	Start   int `json:"start"`
	End     int `json:"end"`
	Targets int `json:"targets"`
	// Done counts completed runs in the shard (journal-adopted + fresh).
	Done int `json:"done"`
	// State is "pending", "leased", or "done".
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	// Worker is the current (or last) worker executing the shard.
	Worker string `json:"worker,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Metrics snapshots the coordinator. Safe to call concurrently with Run.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{
		Retries:             c.retries.Load(),
		SpeculativeAttempts: c.speculative.Load(),
		DuplicateRuns:       c.duplicates.Load(),
		JournalAdopted:      c.adopted.Load(),
		RunsTotal:           c.freshRuns.Load(),
		WorkersTotal:        len(c.workers),
	}
	if sec := c.elapsed().Seconds(); sec > 0 {
		m.RunsPerSec = float64(m.RunsTotal) / sec
	}
	for _, ws := range c.workers {
		healthy := ws.healthy.Load()
		if healthy {
			m.WorkersHealthy++
		}
		m.Workers = append(m.Workers, WorkerStatus{
			Name:       ws.w.Name(),
			Healthy:    healthy,
			ShardsDone: ws.shardsDone.Load(),
			Runs:       ws.runs.Load(),
		})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cv != nil {
		m.CacheCounters = c.cv.Counters()
	}
	m.Work = c.work
	m.ShardsTotal = len(c.shards)
	m.ShardsDone = c.shardsOut
	for _, sh := range c.shards {
		st := ShardStatus{
			ID: sh.id, Start: sh.start, End: sh.end, Targets: sh.targets,
			Done: sh.adopted + sh.freshDone, Attempts: sh.attempts,
			Worker: sh.worker,
		}
		switch {
		case sh.done:
			st.State = "done"
		case sh.runners > 0:
			st.State = "leased"
		default:
			st.State = "pending"
		}
		if sh.lastErr != nil {
			st.Error = sh.lastErr.Error()
		}
		m.Shards = append(m.Shards, st)
	}
	return m
}

// compile-time interface checks.
var (
	_ Worker = (*HTTPWorker)(nil)
	_ Worker = (*Loopback)(nil)
)
