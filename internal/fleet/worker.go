package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"faultsec/internal/campaign"
	"faultsec/internal/castore"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// maxSpecBytes bounds a POST /shards body. Indices for even a whole-text
// random campaign fit comfortably.
const maxSpecBytes = 8 << 20

// shardLine is one NDJSON line of a shard response stream: a result line
// (Result set), the terminating success line (Done set, Runs the number
// of result lines streamed, Work the attempt's work counters, flattened
// into the line), or a terminal error line. A stream that ends without a
// Done or Error line was truncated — the worker died mid-shard — and the
// client reports an error so the coordinator re-leases.
type shardLine struct {
	Idx    int                  `json:"idx,omitempty"`
	Result *campaign.WireResult `json:"result,omitempty"`
	Done   bool                 `json:"done,omitempty"`
	Runs   int                  `json:"runs,omitempty"`
	// Work is nil, and its keys absent, on every line but the done-line.
	*campaign.Work
	Error string `json:"error,omitempty"`
}

// AppResolver resolves a shard spec's app name to a built application.
// Workers constructed over a fixed app set use a map lookup; campaignd
// resolves through the target registry so any registered app is buildable
// lazily on first lease.
type AppResolver func(name string) (*target.App, error)

// mapResolver adapts a fixed app set to an AppResolver.
func mapResolver(apps map[string]*target.App) AppResolver {
	return func(name string) (*target.App, error) {
		app, ok := apps[name]
		if !ok {
			return nil, fmt.Errorf("fleet: unknown app %q", name)
		}
		return app, nil
	}
}

// prepareShard resolves a spec against the worker's app resolver and
// returns the closure that executes it. Resolution errors (unknown app,
// scenario, scheme, an enumeration that does not match Total, an index
// out of range) surface here, before any result is produced, so the HTTP
// handler can still answer 400.
func prepareShard(resolve AppResolver, spec *ShardSpec,
	cache *castore.Store) (func(ctx context.Context, emit emitFunc) (campaign.Work, error), error) {
	app, err := resolve(spec.App)
	if err != nil {
		return nil, err
	}
	sc, ok := app.Scenario(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("fleet: app %s has no scenario %q", spec.App, spec.Scenario)
	}
	scheme, err := encoding.Parse(spec.Scheme)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	cacheMode, err := campaign.NormalizeCacheMode(spec.CacheMode)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	cfg := campaign.Config{
		App: app, Scenario: sc, Scheme: scheme, Model: spec.Model,
		Fuel: spec.Fuel, Parallelism: spec.Parallelism, Watchdog: spec.Watchdog,
		Tuning: spec.Tuning,
	}
	if cache != nil {
		cfg.CacheMode = cacheMode
		cfg.Cache = cache
	}
	// EnumerateConfig resolves spec.Model through the worker's own
	// faultmodel registry: a model this build does not know is refused
	// here (400 on the HTTP path), and a model whose enumeration size
	// disagrees with the coordinator's trips the Total check below — the
	// two loud failure modes for a model-skewed fleet.
	exps, err := campaign.EnumerateConfig(&cfg)
	if err != nil {
		return nil, err
	}
	if len(exps) != spec.Total {
		return nil, fmt.Errorf("fleet: enumeration mismatch for %s/%s/%s model=%s: worker has %d experiments, coordinator %d (version skew?)",
			spec.App, spec.Scenario, spec.Scheme, inject.ModelOf(exps), len(exps), spec.Total)
	}
	shard := make([]inject.Experiment, len(spec.Indices))
	globals := make([]int, len(spec.Indices))
	for i, idx := range spec.Indices {
		if idx < 0 || idx >= len(exps) {
			return nil, fmt.Errorf("fleet: shard index %d out of range [0,%d)", idx, len(exps))
		}
		shard[i] = exps[idx]
		globals[i] = idx
	}
	return func(ctx context.Context, emit emitFunc) (campaign.Work, error) {
		eng := campaign.New(cfg)
		if err := eng.RunShard(ctx, shard, globals, resultEmit(emit)); err != nil {
			return campaign.Work{}, err
		}
		return eng.Metrics().Work, nil
	}, nil
}

// WorkerServer is the worker-side HTTP handler for PathShards: it accepts
// a ShardSpec, executes it on a fresh engine, and streams each completed
// run as an NDJSON line. Mount it on any campaignd-style mux to turn that
// process into a fleet worker.
type WorkerServer struct {
	resolve AppResolver
	// gate, when non-nil, is consulted before a shard starts; a non-nil
	// error refuses the lease with 503 (campaignd's drain gate).
	gate func() error
	// cache, when non-nil, is the worker-local result store; shards whose
	// spec carries a cache mode execute with it.
	cache *castore.Store

	shardsServed atomic.Int64
	runsServed   atomic.Int64
}

// SetCache installs a worker-local result store, honored by shard specs
// that carry a cache mode. Call before serving traffic.
func (ws *WorkerServer) SetCache(s *castore.Store) { ws.cache = s }

// NewWorkerServer builds a worker handler over the given apps. gate may
// be nil; otherwise a non-nil gate() error refuses new shards with 503
// Service Unavailable (the coordinator treats that as retryable and
// re-leases elsewhere).
func NewWorkerServer(apps map[string]*target.App, gate func() error) *WorkerServer {
	return &WorkerServer{resolve: mapResolver(apps), gate: gate}
}

// NewWorkerServerResolver builds a worker handler that resolves apps on
// demand through the given resolver (e.g. the target registry), so a
// shard lease for any registered app builds it lazily on first use.
func NewWorkerServerResolver(resolve AppResolver, gate func() error) *WorkerServer {
	return &WorkerServer{resolve: resolve, gate: gate}
}

// ShardsServed and RunsServed report how much work this worker has
// executed (completed shard streams may still have been discarded by the
// coordinator as duplicates; these count what was produced, not adopted).
func (ws *WorkerServer) ShardsServed() int64 { return ws.shardsServed.Load() }

// RunsServed reports the number of result lines streamed.
func (ws *WorkerServer) RunsServed() int64 { return ws.runsServed.Load() }

func writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (ws *WorkerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if ws.gate != nil {
		if err := ws.gate(); err != nil {
			writeJSONError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec ShardSpec
	if err := dec.Decode(&spec); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad shard spec: %v", err)
		return
	}
	run, err := prepareShard(ws.resolve, &spec, ws.cache)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mu sync.Mutex // engine workers emit concurrently; the stream is one writer
	runs := 0
	writeLine := func(line *shardLine) {
		mu.Lock()
		defer mu.Unlock()
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	ws.shardsServed.Add(1)
	work, err := run(r.Context(), func(idx int, res *campaign.WireResult) {
		mu.Lock()
		runs++
		_ = enc.Encode(&shardLine{Idx: idx, Result: res})
		if flusher != nil {
			flusher.Flush()
		}
		mu.Unlock()
		ws.runsServed.Add(1)
	})
	if err != nil {
		// The status line is long gone; a terminal error line tells the
		// client this stream is a failed attempt, not a truncated one —
		// either way the coordinator re-leases the shard.
		writeLine(&shardLine{Error: err.Error()})
		return
	}
	writeLine(&shardLine{Done: true, Runs: runs, Work: &work})
}

// Loopback is the in-process worker: shard execution without HTTP, used
// when a coordinator runs single-node (and by tests and benchmarks to
// isolate coordination overhead). Its results flow through the same spec
// resolution and wire conversion as remote workers, so the single-node
// fleet is the distributed code path, not a special case.
type Loopback struct {
	name    string
	resolve AppResolver
	cache   *castore.Store
}

// SetCache installs a worker-local result store, honored by shard specs
// that carry a cache mode.
func (l *Loopback) SetCache(s *castore.Store) { l.cache = s }

// NewLoopback builds an in-process worker serving the given apps.
func NewLoopback(name string, apps ...*target.App) *Loopback {
	m := make(map[string]*target.App, len(apps))
	for _, a := range apps {
		m[a.Name] = a
	}
	return &Loopback{name: name, resolve: mapResolver(m)}
}

// NewLoopbackResolver builds an in-process worker that resolves apps on
// demand through the given resolver.
func NewLoopbackResolver(name string, resolve AppResolver) *Loopback {
	return &Loopback{name: name, resolve: resolve}
}

// Name identifies the worker.
func (l *Loopback) Name() string { return l.name }

// Healthy always succeeds: the loopback worker lives in the coordinator's
// own process.
func (l *Loopback) Healthy(context.Context) error { return nil }

// RunShard executes the shard on an in-process engine.
func (l *Loopback) RunShard(ctx context.Context, spec ShardSpec, emit func(int, *campaign.WireResult)) (campaign.Work, error) {
	run, err := prepareShard(l.resolve, &spec, l.cache)
	if err != nil {
		return campaign.Work{}, err
	}
	return run(ctx, emit)
}
