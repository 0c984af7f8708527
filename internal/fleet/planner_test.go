package fleet

import (
	"testing"
	"time"

	"faultsec/internal/inject"
)

func fakeExps(targetBits ...int) []inject.Experiment {
	var exps []inject.Experiment
	for ti, bits := range targetBits {
		tgt := inject.Target{Addr: uint32(0x1000 + 16*ti)}
		for b := 0; b < bits; b++ {
			exps = append(exps, inject.Experiment{Target: tgt, Model: "bitflip", ModelIdx: b})
		}
	}
	return exps
}

func TestPlanShardsTilesAndAligns(t *testing.T) {
	exps := fakeExps(8, 8, 24, 8, 16, 8)
	shards := planShards(exps, nil, 16)

	next := 0
	for _, sh := range shards {
		if sh.start != next {
			t.Fatalf("shard %d starts at %d, want %d (shards must tile)", sh.id, sh.start, next)
		}
		if sh.end <= sh.start {
			t.Fatalf("shard %d is empty [%d,%d)", sh.id, sh.start, sh.end)
		}
		next = sh.end
		// Target alignment: a shard boundary never splits an address.
		if sh.end < len(exps) && exps[sh.end-1].Target.Addr == exps[sh.end].Target.Addr {
			t.Fatalf("shard %d ends at %d, splitting target %#x", sh.id, sh.end, exps[sh.end].Target.Addr)
		}
		if len(sh.pending) != sh.end-sh.start {
			t.Fatalf("shard %d: %d pending, want %d (nothing adopted)", sh.id, len(sh.pending), sh.end-sh.start)
		}
	}
	if next != len(exps) {
		t.Fatalf("shards cover [0,%d), want [0,%d)", next, len(exps))
	}
	if len(shards) < 2 {
		t.Fatalf("expected multiple shards for %d runs at shardRuns=16, got %d", len(exps), len(shards))
	}
}

func TestPlanShardsExcludesAdopted(t *testing.T) {
	exps := fakeExps(8, 8, 8, 8)
	have := make([]bool, len(exps))
	for i := 0; i < 8; i++ {
		have[i] = true // first target fully journaled
	}
	have[12] = true // one run of the second target

	shards := planShards(exps, have, 8)
	if shards[0].adopted != 8 || len(shards[0].pending) != 0 {
		t.Fatalf("shard 0: adopted=%d pending=%d, want 8/0", shards[0].adopted, len(shards[0].pending))
	}
	if shards[1].adopted != 1 || len(shards[1].pending) != 7 {
		t.Fatalf("shard 1: adopted=%d pending=%d, want 1/7", shards[1].adopted, len(shards[1].pending))
	}
	for _, idx := range shards[1].pending {
		if idx == 12 {
			t.Fatal("adopted index 12 must not be dispatched")
		}
	}
}

func TestBackoffCapped(t *testing.T) {
	cfg := Config{RetryBase: 100 * time.Millisecond, RetryMax: 500 * time.Millisecond}
	want := []time.Duration{
		100 * time.Millisecond, // after 1 failure
		200 * time.Millisecond,
		400 * time.Millisecond,
		500 * time.Millisecond, // capped
		500 * time.Millisecond,
	}
	for i, w := range want {
		if got := cfg.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestDefaultShardRuns(t *testing.T) {
	if got := defaultShardRuns(10000, 4); got != 312 {
		t.Errorf("defaultShardRuns(10000, 4) = %d, want 312", got)
	}
	if got := defaultShardRuns(100, 4); got != 32 {
		t.Errorf("small campaigns floor at 32, got %d", got)
	}
}
