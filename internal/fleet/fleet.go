// Package fleet distributes injection campaigns across processes: a
// coordinator splits a campaign's deterministic experiment enumeration
// into target-address shards and leases them to a pool of workers, each
// of which executes its shard with the snapshot campaign engine
// (internal/campaign) and streams per-run results back.
//
// The design leans on two properties the rest of the repo already
// guarantees:
//
//   - Every injection experiment is an independent, deterministic run:
//     the same (app, scenario, scheme, fuel, experiment index) produces
//     byte-identical results on any worker. Shards can therefore be
//     retried on worker crash, timeout, or 5xx — the coordinator verifies
//     that duplicate deliveries match and fails loudly on a determinism
//     violation instead of merging silently diverging data.
//
//   - The enumeration order is the campaign's global index space. The
//     coordinator keys results, the journal, and shard plans by global
//     index, so the merged inject.Stats is byte-identical to what a
//     single-process campaign.Engine produces, including the order of
//     CrashLatencies and per-run Results.
//
// The coordinator owns the authoritative journal (the same JSONL format
// and single-writer registry as the engine, via campaign.Journal), leases
// shards with per-attempt deadlines and capped exponential backoff,
// health-checks workers over GET /healthz, and speculatively re-dispatches
// straggler shards. An in-process loopback worker makes the single-node
// degenerate case behave exactly like running the engine directly.
package fleet

import (
	"context"
	"time"

	"faultsec/internal/campaign"
	"faultsec/internal/inject"
	"faultsec/internal/vm"
)

// Worker paths served by a worker node (any campaignd instance).
const (
	// PathShards accepts POST ShardSpec and streams NDJSON shard results.
	PathShards = "/shards"
	// PathHealthz is the liveness probe the coordinator heartbeats.
	PathHealthz = "/healthz"
)

// Worker executes shards. Implementations: HTTPWorker (a remote campaignd
// in worker mode) and Loopback (in-process).
type Worker interface {
	// Name identifies the worker in metrics and errors.
	Name() string
	// RunShard executes spec, calling emit for every completed run with
	// its campaign-global experiment index. emit may be called from
	// multiple goroutines. RunShard returns a nil error only after the
	// whole shard completed, together with the work the attempt did; a
	// partial stream (crash, timeout, cancellation) returns an error and
	// the coordinator re-leases the shard.
	RunShard(ctx context.Context, spec ShardSpec, emit func(idx int, res *campaign.WireResult)) (campaign.Work, error)
	// Healthy probes liveness; the coordinator stops leasing to (and
	// cancels the in-flight attempt of) a worker that fails twice in a
	// row, until it recovers.
	Healthy(ctx context.Context) error
}

// ShardSpec is the wire form of one shard lease: the campaign identity
// plus the global experiment indices to execute. The worker re-derives
// the enumeration from the identity and validates Total against it, so a
// coordinator and worker built from diverging trees fail loudly instead
// of mixing index spaces.
type ShardSpec struct {
	App      string `json:"app"`
	Scenario string `json:"scenario"`
	Scheme   string `json:"scheme"`
	// Model is the fault-model name; "" is the wire form of bitflip
	// (campaign.WireModel), matching the journal-header convention. A
	// worker that does not recognize the model refuses the shard loudly —
	// a model-skewed fleet must not mix index spaces.
	Model       string `json:"model,omitempty"`
	Fuel        uint64 `json:"fuel,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	Watchdog    bool   `json:"watchdog,omitempty"`
	// Tuning carries the campaign's VM ablation knobs; encoding/json
	// flattens it into the noICache, noDirtyTracking and noTraces keys.
	vm.Tuning
	// CacheMode is the campaign's content-addressed cache mode ("",
	// "off", "read", "readwrite"). A worker honors it only when it has a
	// local result store configured; the coordinator consults its own
	// store before leasing either way.
	CacheMode string `json:"cacheMode,omitempty"`
	// Total is the size of the full campaign enumeration.
	Total int `json:"total"`
	// Shard is the coordinator's shard id (diagnostics only).
	Shard int `json:"shard"`
	// Indices are the campaign-global experiment indices to execute,
	// grouped by target address.
	Indices []int `json:"indices"`
}

// Config parameterizes one fleet campaign.
type Config struct {
	// Campaign is the campaign identity and knobs. Journal (if set) is
	// the coordinator's authoritative journal; Parallelism travels in the
	// shard spec and sizes each worker's engine pool; Progress and
	// OnResult fire on the coordinator as results arrive.
	Campaign campaign.Config
	// Workers is the worker pool. Empty means one in-process loopback
	// worker over Campaign.App — the single-node degenerate case.
	Workers []Worker
	// ShardRuns is the target number of experiments per shard; 0 derives
	// a default from the campaign size and worker count.
	ShardRuns int
	// LeaseTimeout bounds one shard attempt; an attempt that exceeds it
	// is abandoned and the shard re-leased. 0 means DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// StragglerAfter is how long a sole attempt may run before an idle
	// worker speculatively joins the shard (first completed attempt
	// wins; duplicates are verified byte-identical). 0 means
	// DefaultStragglerAfter.
	StragglerAfter time.Duration
	// MaxAttempts caps failed attempts per shard before the campaign
	// fails. 0 means DefaultMaxAttempts.
	MaxAttempts int
	// RetryBase and RetryMax shape the capped exponential backoff between
	// a shard's failed attempts. 0 means the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HeartbeatEvery is the worker health-check cadence. 0 means
	// DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
}

// Tuning defaults.
const (
	DefaultLeaseTimeout   = 2 * time.Minute
	DefaultStragglerAfter = 20 * time.Second
	DefaultMaxAttempts    = 4
	DefaultRetryBase      = 100 * time.Millisecond
	DefaultRetryMax       = 5 * time.Second
	DefaultHeartbeatEvery = 2 * time.Second
)

func (c *Config) leaseTimeout() time.Duration {
	if c.LeaseTimeout <= 0 {
		return DefaultLeaseTimeout
	}
	return c.LeaseTimeout
}

func (c *Config) stragglerAfter() time.Duration {
	if c.StragglerAfter <= 0 {
		return DefaultStragglerAfter
	}
	return c.StragglerAfter
}

func (c *Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return c.MaxAttempts
}

func (c *Config) retryBase() time.Duration {
	if c.RetryBase <= 0 {
		return DefaultRetryBase
	}
	return c.RetryBase
}

func (c *Config) retryMax() time.Duration {
	if c.RetryMax <= 0 {
		return DefaultRetryMax
	}
	return c.RetryMax
}

func (c *Config) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery <= 0 {
		return DefaultHeartbeatEvery
	}
	return c.HeartbeatEvery
}

// backoff returns the delay before a shard's next attempt: base doubled
// per prior failure, capped at max.
func (c *Config) backoff(attempts int) time.Duration {
	d := c.retryBase()
	for i := 1; i < attempts && d < c.retryMax(); i++ {
		d *= 2
	}
	if d > c.retryMax() {
		d = c.retryMax()
	}
	return d
}

// emitFunc is the result-delivery callback threaded through workers.
type emitFunc func(idx int, res *campaign.WireResult)

// resultEmit adapts an engine-side inject.Result callback to the wire
// form workers deliver.
func resultEmit(emit emitFunc) func(int, inject.Result) {
	return func(idx int, res inject.Result) { emit(idx, campaign.Wire(res)) }
}
