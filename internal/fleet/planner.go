package fleet

import (
	"time"

	"faultsec/internal/inject"
)

// shardState is one planned shard and its lease-table entry. The planner
// fields (id..adopted) are immutable after planning; the lease fields are
// guarded by the coordinator mutex.
type shardState struct {
	id         int
	start, end int      // global index range [start, end), target-aligned
	addrs      []uint32 // its target addresses, in enumeration order
	pending    []int    // global indices needing execution (not yet recorded)
	adopted    int      // journal- or cache-adopted runs inside [start, end)

	// Lease state (guarded by Coordinator.mu).
	done         bool
	runners      int  // attempts currently executing this shard
	speculated   bool // a straggler copy has been dispatched
	attempts     int  // failed attempts so far
	nextEligible time.Time
	startedAt    time.Time // current attempt start
	worker       string    // current/last worker name
	lastErr      error
	// lastFailWorker names the worker whose attempt failed most recently.
	// A multi-worker fleet never re-leases a shard to that worker first:
	// a crashed worker fails attempts instantly (connection refused), and
	// without this rule it could exhaust a shard's attempt budget before
	// the health loop notices it is gone and a live worker rescues the
	// shard.
	lastFailWorker string
	freshDone      int // fresh results delivered
}

// planShards partitions the enumeration into contiguous, target-aligned
// shards of roughly shardRuns experiments. Experiments sharing a target
// address share a prefix snapshot, so a shard never splits a target's
// bit-flips across workers — each worker's engine gets whole groups and
// full snapshot reuse. Shards tile [0, len(exps)) exactly; have marks
// already-recorded (journal- or cache-adopted) experiments, which stay
// inside their shard (for global ordering) but are excluded from the
// dispatched pending set.
func planShards(exps []inject.Experiment, have []bool, shardRuns int) []*shardState {
	var shards []*shardState
	newShard := func(start int) *shardState {
		return &shardState{id: len(shards), start: start, end: start}
	}
	var cur *shardState
	for i := 0; i < len(exps); {
		// One target-address group: the contiguous run of exps at addr.
		j := i
		addr := exps[i].Target.Addr
		for j < len(exps) && exps[j].Target.Addr == addr {
			j++
		}
		if cur == nil {
			cur = newShard(i)
		}
		cur.end = j
		cur.addrs = append(cur.addrs, addr)
		for k := i; k < j; k++ {
			if have != nil && have[k] {
				cur.adopted++
			} else {
				cur.pending = append(cur.pending, k)
			}
		}
		if cur.end-cur.start >= shardRuns {
			shards = append(shards, cur)
			cur = nil
		}
		i = j
	}
	if cur != nil {
		shards = append(shards, cur)
	}
	return shards
}

// defaultShardRuns sizes shards so each worker sees several per campaign
// (retry granularity and load balance) without shards degenerating into
// single experiments (per-shard golden-run overhead).
func defaultShardRuns(total, workers int) int {
	if workers < 1 {
		workers = 1
	}
	n := total / (8 * workers)
	if n < 32 {
		n = 32
	}
	return n
}
