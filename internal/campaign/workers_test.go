package campaign

import (
	"runtime"
	"testing"
)

// TestEffectiveWorkersCap pins the worker count: Parallelism 0 or less
// means GOMAXPROCS, a larger request is capped at GOMAXPROCS, and there
// are never more workers than target groups.
func TestEffectiveWorkersCap(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, par := range []int{0, -3, 1, procs + 1, 1 << 20} {
		want := par
		if par <= 0 || par > procs {
			want = procs
		}
		for _, n := range []int{1, procs, procs + 2, 1 << 21} {
			cfg := Config{Parallelism: par}
			if got := cfg.effectiveWorkers(n); got != min(want, n) {
				t.Errorf("Parallelism %d, %d groups: %d workers, want %d", par, n, got, min(want, n))
			}
		}
	}
	if got := (&Config{Parallelism: 1 << 20}).effectiveWorkers(0); got != procs {
		t.Errorf("Parallelism 1<<20, no groups: %d workers, want GOMAXPROCS %d", got, procs)
	}
}
