package inject

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/target"
)

// DefaultFuel bounds each injected run. Fault-free sessions retire well
// under 100k instructions; corrupted runs stuck in loops hit this budget
// and classify as hangs (FSV).
const DefaultFuel = 400_000

// EffectiveFuel is the per-run instruction budget for a configured fuel:
// 0 means DefaultFuel.
func EffectiveFuel(fuel uint64) uint64 {
	if fuel == 0 {
		return DefaultFuel
	}
	return fuel
}

// Config parameterizes one campaign: one application, one client access
// pattern, one encoding scheme, every bit of every branch instruction in
// the authentication functions.
type Config struct {
	App      *target.App
	Scenario target.Scenario
	Scheme   encoding.Scheme
	// Fuel is the per-run instruction budget; 0 means DefaultFuel.
	Fuel uint64
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// KeepResults retains every per-run Result in Stats.Results.
	KeepResults bool
	// Watchdog enables the control-flow checker for every run (ablation:
	// what does a software signature checker catch that the encoding fix
	// does, and vice versa).
	Watchdog bool
	// Progress, when non-nil, receives (done, total) after each run.
	Progress func(done, total int)
}

// Stats aggregates a campaign.
type Stats struct {
	App      string
	Scenario string
	Scheme   encoding.Scheme
	// Model is the canonical fault-model name ("bitflip" for the paper's
	// single-bit model). Executors derive it from the experiment list via
	// ModelOf, so every executor stamps it identically.
	Model string

	// Total is the number of runs (one per injected bit).
	Total int
	// Counts maps each outcome to its run count.
	Counts map[classify.Outcome]int
	// ByLocation maps Table 2 locations to per-outcome counts.
	ByLocation map[classify.Location]map[classify.Outcome]int
	// CrashLatencies holds the activation-to-crash instruction counts of
	// every crashed run (Figure 4 input).
	CrashLatencies []uint64
	// Window summarizes network activity inside crash windows (§5.4).
	Window TransientWindow
	// WatchdogDetections counts runs terminated by the control-flow
	// checker (only when Config.Watchdog was set).
	WatchdogDetections int
	// Results holds per-run detail when Config.KeepResults is set.
	Results []Result
}

// TransientWindow aggregates the paper's §5.4 analysis: how long crashed
// runs keep executing after activation, and whether they talk to the
// network inside that window.
type TransientWindow struct {
	// Crashes is the number of crashed runs.
	Crashes int
	// LongLatency counts crashes more than 100 instructions after
	// activation (the paper's 8.5% tail).
	LongLatency int
	// WroteInWindow counts crashed runs that sent bytes to the client
	// between activation and the crash.
	WroteInWindow int
	// LongAndWrote counts long-latency crashes that also wrote — the
	// paper's "erroneous messages were sent out" cases.
	LongAndWrote int
}

// Activated returns the number of activated runs (everything but NA).
func (s *Stats) Activated() int {
	return s.Total - s.Counts[classify.OutcomeNA]
}

// PctOfActivated returns a count as a percentage of activated runs.
func (s *Stats) PctOfActivated(o classify.Outcome) float64 {
	a := s.Activated()
	if a == 0 {
		return 0
	}
	return 100 * float64(s.Counts[o]) / float64(a)
}

// ManifestedBreakdown returns the BRK+FSV counts per location — the
// paper's Table 3 rows (it describes the table as "Break-ins and Fail
// Silence Violations by Location").
func (s *Stats) ManifestedBreakdown() map[classify.Location]int {
	out := make(map[classify.Location]int, len(s.ByLocation))
	for loc, m := range s.ByLocation {
		out[loc] = m[classify.OutcomeBRK] + m[classify.OutcomeFSV]
	}
	return out
}

// NewStats returns an empty aggregate for one campaign. It is exported so
// the snapshot engine and the fleet (internal/campaign, internal/fleet)
// aggregate through the exact same code path as the naive runner. model is
// the canonical fault-model name; "" means bitflip.
func NewStats(app, scenario string, scheme encoding.Scheme, model string) *Stats {
	if model == "" {
		model = "bitflip"
	}
	return &Stats{
		App:        app,
		Scenario:   scenario,
		Scheme:     scheme,
		Model:      model,
		Counts:     make(map[classify.Outcome]int),
		ByLocation: make(map[classify.Location]map[classify.Outcome]int),
	}
}

// Add folds one run into the aggregate. Results must be added in
// experiment-enumeration order for deterministic CrashLatencies.
func (s *Stats) Add(r Result) {
	s.Total++
	s.Counts[r.Outcome]++
	locM := s.ByLocation[r.Location]
	if locM == nil {
		locM = make(map[classify.Outcome]int)
		s.ByLocation[r.Location] = locM
	}
	locM[r.Outcome]++
	if r.Crashed {
		s.CrashLatencies = append(s.CrashLatencies, r.CrashLatency)
		s.Window.Crashes++
		long := r.CrashLatency > 100
		if long {
			s.Window.LongLatency++
		}
		if r.BytesInWindow > 0 {
			s.Window.WroteInWindow++
			if long {
				s.Window.LongAndWrote++
			}
		}
	}
	if r.DetectedByWatchdog {
		s.WatchdogDetections++
	}
}

// CanceledError reports a campaign stopped by context cancellation (or
// deadline) before completing: Done of Total runs had finished, and — when
// the campaign was journaled — every finished run is on disk, so the
// campaign is resumable. It unwraps to the context error, so
// errors.Is(err, context.Canceled) still matches.
type CanceledError struct {
	Done, Total int
	Cause       error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("campaign canceled after %d/%d runs", e.Done, e.Total)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// RunExperimentsNaive is the reference executor: one full from-scratch
// server run per experiment, in parallel. It is the differential-testing
// oracle for the snapshot engine (internal/campaign), which runs every
// production campaign. Each run reaches its breakpoint by its own
// Activate prefix, where the engine restores a sweep snapshot.
func RunExperimentsNaive(ctx context.Context, cfg Config, experiments []Experiment) (*Stats, error) {
	fuel := EffectiveFuel(cfg.Fuel)
	// Resolve the scheme's image so every run executes the same hardened
	// app the experiment list was enumerated against (ForScheme caches, so
	// a caller that already resolved gets the identical *App back).
	app, err := cfg.App.ForScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	cfg.App = app
	golden, err := GoldenRun(cfg.App, cfg.Scenario, fuel)
	if err != nil {
		return nil, err
	}
	var cfValid map[uint32]struct{}
	if cfg.Watchdog {
		cfValid = SweepText(cfg.App, false).Starts()
	}

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(experiments) && len(experiments) > 0 {
		workers = len(experiments)
	}

	results := make([]Result, len(experiments))
	errs := make([]error, len(experiments))
	indexes := make(chan int)

	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				results[i], errs[i] = runOne(cfg.App, cfg.Scenario, golden, experiments[i], fuel, cfValid)
				d := int(done.Add(1))
				if cfg.Progress != nil {
					cfg.Progress(d, len(experiments))
				}
			}
		}()
	}

feed:
	for i := range experiments {
		select {
		case <-ctx.Done():
			break feed
		case indexes <- i:
		}
	}
	close(indexes)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Done: int(done.Load()), Total: len(experiments), Cause: err}
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("inject: experiment %d: %w", i, e)
		}
	}

	stats := NewStats(cfg.App.Name, cfg.Scenario.Name, cfg.Scheme, ModelOf(experiments))
	for _, r := range results {
		stats.Add(r)
	}
	if cfg.KeepResults {
		stats.Results = results
	}
	return stats, nil
}
