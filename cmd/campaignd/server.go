package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"faultsec/internal/campaign"
	"faultsec/internal/castore"
	"faultsec/internal/fleet"
	"faultsec/internal/inject"
	"faultsec/internal/target"

	// Register the built-in target applications; submits resolve them by
	// registry name and build them lazily.
	_ "faultsec/internal/ftpd"
	_ "faultsec/internal/httpd"
	_ "faultsec/internal/sshd"
)

// maxSubmitBytes bounds the POST /campaigns body; real submissions are a
// few hundred bytes, so anything near the limit is abuse, not a campaign.
const maxSubmitBytes = 1 << 20

// submitRequest is the POST /campaigns body. Unknown fields are rejected
// (DisallowUnknownFields), so a typo'd or retired key fails the submit
// loudly instead of silently running something else.
type submitRequest struct {
	App      string `json:"app"`      // a target registry name ("ftpd", "sshd", "httpd")
	Scenario string `json:"scenario"` // e.g. "Client1"
	// Scheme selects the hardening scheme ("x86" when omitted); unknown
	// names are refused with 400 and the registered list.
	Scheme string `json:"scheme"`
	// FaultModel selects the injection's fault model ("bitflip" when
	// omitted); unknown names are refused with 400 and the registered list.
	FaultModel string `json:"faultModel,omitempty"`
	Fuel       uint64 `json:"fuel,omitempty"`
	Parallel   int    `json:"parallelism,omitempty"`
	Watchdog   bool   `json:"watchdog,omitempty"`
	// Journal enables crash-safe journaling (requires -journals). A
	// resubmission of the same campaign identity (app, scenario, scheme,
	// model, fuel, watchdog) resumes the journal.
	Journal bool `json:"journal,omitempty"`
	// CheckpointSync fsyncs periodic journal checkpoints (the final
	// checkpoint is always synced). Costs one fsync per checkpoint
	// interval; buys bounded loss under power failure, not just crash.
	CheckpointSync bool `json:"checkpointSync,omitempty"`
	// CacheMode controls the content-addressed shard-result store
	// ("off"/"read"/"readwrite"; "" means off). Requires -journals: the
	// store lives under the journal directory. A resubmission of a rebuilt
	// target in "read" or "readwrite" mode re-executes only experiments
	// whose covering code section changed and adopts the rest from cache.
	CacheMode string `json:"cacheMode,omitempty"`
	// Workers runs the campaign across a fleet instead of the in-process
	// engine: each entry is a worker node's base URL (its /shards and
	// /healthz endpoints — any other campaignd qualifies), or the literal
	// "loopback" for an in-process worker. This daemon becomes the
	// coordinator: it owns the journal and the merged stats.
	Workers []string `json:"workers,omitempty"`
	// ShardRuns overrides the fleet's target shard size (runs per shard).
	ShardRuns int `json:"shardRuns,omitempty"`
}

// Terminal and non-terminal campaign states.
const (
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// campaignView is the GET /campaigns/{id} response.
type campaignView struct {
	ID       string `json:"id"`
	App      string `json:"app"`
	Scenario string `json:"scenario"`
	Scheme   string `json:"scheme"`
	// Model is the canonical fault-model name ("bitflip", "instskip", ...).
	Model string `json:"model"`
	// State is "running", "done", "failed", or "canceled". A campaign
	// stays "running" from DELETE until the engine drains its in-flight
	// runs and writes the final journal checkpoint.
	State    string            `json:"state"`
	Error    string            `json:"error,omitempty"`
	Resumed  bool              `json:"resumed,omitempty"`
	Progress campaign.Progress `json:"progress"`
	// Final is the Table-1-shaped outcome summary, present once done.
	Final *finalSummary `json:"final,omitempty"`
}

// finalSummary is the completed-campaign digest: the paper's outcome
// distribution plus transient-window activity.
type finalSummary struct {
	Total     int                    `json:"total"`
	Activated int                    `json:"activated"`
	Counts    map[string]int         `json:"counts"`
	Window    inject.TransientWindow `json:"window"`
	Crashes   int                    `json:"crashes"`
}

// executor runs one campaign: the in-process engine (*campaign.Engine) or
// a fleet coordinator (*fleet.Coordinator).
type executor interface {
	Run(ctx context.Context) (*inject.Stats, error)
	Resume(ctx context.Context) (*inject.Stats, error)
	Progress() campaign.Progress
}

// run is one submitted campaign.
type run struct {
	id      string
	req     submitRequest
	resumed bool
	// cancel aborts the campaign's context (DELETE /campaigns/{id} and
	// server shutdown). Safe to call repeatedly and after completion.
	cancel context.CancelFunc

	mu sync.Mutex
	// exec is swapped for a fresh one if a resume falls back to a fresh
	// run, so metrics are not double-counted.
	exec  executor
	state string // stateRunning / stateDone / stateFailed / stateCanceled
	err   error
	stats *inject.Stats
}

// finish records the campaign's terminal state. Cancellation is a state
// of its own, not a failure: an operator canceling a run (or the daemon
// draining on SIGTERM) must be distinguishable from a campaign that blew
// up.
func (r *run) finish(stats *inject.Stats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.state, r.stats = stateDone, stats
	case errors.Is(err, context.Canceled):
		r.state, r.err = stateCanceled, err
	default:
		r.state, r.err = stateFailed, err
	}
}

// terminal reports whether the campaign has reached a terminal state.
func (r *run) terminal() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state != stateRunning
}

func (r *run) view() campaignView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := campaignView{
		ID:       r.id,
		App:      r.req.App,
		Scenario: r.req.Scenario,
		Scheme:   r.req.Scheme,
		Model:    r.req.FaultModel,
		State:    r.state,
		Resumed:  r.resumed,
	}
	v.Progress = r.exec.Progress()
	if r.err != nil {
		v.Error = r.err.Error()
	}
	if r.stats != nil {
		counts := make(map[string]int, len(r.stats.Counts))
		for o, n := range r.stats.Counts {
			counts[o.String()] = n
		}
		v.Final = &finalSummary{
			Total:     r.stats.Total,
			Activated: r.stats.Activated(),
			Counts:    counts,
			Window:    r.stats.Window,
			Crashes:   len(r.stats.CrashLatencies),
		}
	}
	return v
}

// server is the campaignd HTTP API. Campaign execution happens on
// background goroutines; handlers only read the engine's atomic
// progress/metrics counters and the run's terminal state.
type server struct {
	mux        *http.ServeMux
	journalDir string
	// cache is the content-addressed shard-result store under
	// journalDir/castore; nil when campaignd runs without -journals.
	cache *castore.Store
	// worker serves POST /shards, making this daemon leasable by fleet
	// coordinators (its counters feed GET /metrics).
	worker *fleet.WorkerServer

	// wg tracks campaign goroutines; Shutdown waits on it so the daemon
	// only exits after every canceled campaign has written its final
	// journal checkpoint.
	wg sync.WaitGroup

	mu      sync.Mutex
	nextID  int
	runs    map[string]*run
	order   []string // insertion order for listing
	closing bool     // set by Shutdown; rejects new submissions
	// journals maps an active journal path to the run id writing it. A
	// second journaled submit of the same campaign identity while the
	// first still runs is refused with 409: two writers on one JSONL file
	// would interleave records into corruption.
	journals map[string]string
}

func newServer(journalDir string) (*server, error) {
	// Apps are NOT built here: submits (and worker shard leases) resolve
	// them by registry name through target.Build, which memoizes per app —
	// the daemon starts instantly and compiles only what it is asked to
	// run.
	s := &server{
		journalDir: journalDir,
		runs:       make(map[string]*run),
		journals:   make(map[string]string),
	}
	if journalDir != "" {
		// The result store shares the journal directory's durability
		// domain: entries and journals live on the same filesystem, so a
		// crash cannot leave one without the other.
		var err error
		s.cache, err = castore.Open(filepath.Join(journalDir, "castore"))
		if err != nil {
			return nil, fmt.Errorf("campaignd: open result store: %w", err)
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/campaigns", s.handleCampaigns)
	s.mux.HandleFunc("/campaigns/", s.handleCampaign)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc(fleet.PathHealthz, s.handleHealthz)
	// Every campaignd doubles as a fleet worker: coordinators POST shard
	// leases here. The drain gate refuses new shards once shutdown began
	// (in-flight shards finish; a coordinator that loses one to our exit
	// sees a truncated stream and re-leases it elsewhere).
	s.worker = fleet.NewWorkerServerResolver(target.Build, s.drainGate)
	s.mux.Handle(fleet.PathShards, s.worker)
	return s, nil
}

// drainGate refuses new work once Shutdown has begun.
func (s *server) drainGate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return errors.New("campaignd is draining")
	}
	return nil
}

// handleHealthz is the liveness probe fleet coordinators heartbeat: 200
// while serving, 503 once draining so coordinators stop leasing shards
// here before the listener goes away.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if err := s.drainGate(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown cancels every running campaign and waits for their goroutines
// to drain — each engine finishes its in-flight runs, writes a final
// journal checkpoint, and closes its journal, so a restarted daemon
// resumes exactly where this one stopped. New submissions are refused
// with 503 once shutdown begins. The ctx bounds the wait.
func (s *server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	for _, rn := range s.runs {
		rn.cancel()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("campaignd: shutdown: %w", ctx.Err())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submit(w, r)
	case http.MethodGet:
		s.mu.Lock()
		views := make([]campaignView, 0, len(s.order))
		for _, id := range s.order {
			views = append(views, s.runs[id].view())
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"campaigns": views})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// decodeSubmit decodes and validates a POST /campaigns body without side
// effects beyond the registry's lazy builds: it returns the request, its
// scheme and fault model names canonical, and the campaign config it asks
// for, or the 400 message. The checks that depend on the daemon (a result
// store, a journal directory, the workers) are the handler's.
func decodeSubmit(body io.Reader) (submitRequest, campaign.Config, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		return req, campaign.Config{}, fmt.Errorf("bad request body: %v", err)
	}
	// Lazy build through the registry: the first submit for an app
	// compiles it; unknown names are refused with the registered list.
	cfg, err := campaign.Identity{App: req.App, Scenario: req.Scenario, Scheme: req.Scheme,
		Model: req.FaultModel, Fuel: req.Fuel, Watchdog: req.Watchdog}.Resolve(target.Build)
	if err != nil {
		return req, campaign.Config{}, err
	}
	id := cfg.Identity()
	req.Scheme, req.FaultModel = id.Scheme, id.Model
	if req.ShardRuns < 0 || (req.ShardRuns > 0 && len(req.Workers) == 0) {
		return req, campaign.Config{}, errors.New("shardRuns requires a fleet campaign (non-empty workers)")
	}
	cacheMode, err := campaign.NormalizeCacheMode(req.CacheMode)
	if err != nil {
		return req, campaign.Config{}, err
	}
	req.CacheMode = cacheMode
	cfg.Parallelism, cfg.CheckpointSync = req.Parallel, req.CheckpointSync
	if cacheMode != campaign.CacheOff {
		cfg.CacheMode = cacheMode
	}
	return req, cfg, nil
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	req, cfg, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.CacheMode != "" && s.cache == nil {
		writeErr(w, http.StatusBadRequest,
			"cacheMode %q requested but campaignd runs without -journals (the result store lives under the journal directory)", cfg.CacheMode)
		return
	}
	workers, err := buildWorkers(req.Workers)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.CacheMode != "" {
		cfg.Cache = s.cache
	}
	if req.Journal {
		if s.journalDir == "" {
			writeErr(w, http.StatusBadRequest, "journaling requested but campaignd runs without -journals")
			return
		}
		cfg.Journal = filepath.Join(s.journalDir, journalName(cfg.Identity()))
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "campaignd is shutting down")
		return
	}
	resume := false
	if cfg.Journal != "" {
		if holder, busy := s.journals[cfg.Journal]; busy {
			s.mu.Unlock()
			writeErr(w, http.StatusConflict,
				"journal for %s is being written by campaign %s; cancel it or wait", cfg.Identity(), holder)
			return
		}
		if _, err := os.Stat(cfg.Journal); err == nil {
			resume = true
		}
	}
	s.nextID++
	id := fmt.Sprintf("c%d", s.nextID)
	runCtx, cancel := context.WithCancel(context.Background())
	newExecutor := func() executor {
		if len(workers) > 0 {
			return fleet.New(fleet.Config{Campaign: cfg, Workers: workers, ShardRuns: req.ShardRuns})
		}
		return campaign.New(cfg)
	}
	rn := &run{id: id, req: req, resumed: resume, state: stateRunning, cancel: cancel, exec: newExecutor()}
	s.runs[id] = rn
	s.order = append(s.order, id)
	if cfg.Journal != "" {
		s.journals[cfg.Journal] = id
	}
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		defer cancel()
		var stats *inject.Stats
		var err error
		// Defers run LIFO: the journal claim is released, then the
		// terminal state is recorded — so a client that observes "done"
		// or "canceled" can resubmit without hitting a stale 409.
		defer func() { rn.finish(stats, err) }()
		if cfg.Journal != "" {
			defer func() {
				s.mu.Lock()
				delete(s.journals, cfg.Journal)
				s.mu.Unlock()
			}()
		}
		// Only this goroutine writes rn.exec, so it reads it unlocked.
		if !resume {
			stats, err = rn.exec.Run(runCtx)
			return
		}
		stats, err = rn.exec.Resume(runCtx)
		if err != nil && runCtx.Err() == nil && !errors.Is(err, campaign.ErrJournalBusy) {
			// A foreign or corrupt journal must not wedge the service:
			// fall back to a fresh run, which truncates the journal. A
			// canceled resume or a busy journal is NOT corruption —
			// falling back would truncate a journal we must preserve.
			fresh := newExecutor()
			rn.mu.Lock()
			rn.exec, rn.resumed = fresh, false
			rn.mu.Unlock()
			var ferr error
			if stats, ferr = fresh.Run(runCtx); ferr == nil {
				err = nil
			} else {
				err = errors.Join(err, ferr)
			}
		}
	}()

	writeJSON(w, http.StatusAccepted, rn.view())
}

// journalName names the journal of the campaign id under the journal
// directory: <app>-<scenario>-<scheme>, then the model unless it is
// bitflip, the fuel unless it is the default, and "-watchdog" when the
// watchdog is on. Every part of the identity that can differ is in the
// name, so two campaigns never share a file, and a default campaign keeps
// its historical name, so journals written before a part was added still
// resume.
func journalName(id campaign.Identity) string {
	name := fmt.Sprintf("%s-%s-%s", id.App, id.Scenario, id.Scheme)
	if wire := campaign.WireModel(id.Model); wire != "" {
		name += "-" + wire
	}
	if id.Fuel != inject.DefaultFuel {
		name += fmt.Sprintf("-fuel%d", id.Fuel)
	}
	if id.Watchdog {
		name += "-watchdog"
	}
	return name + ".jsonl"
}

// buildWorkers resolves the submit request's worker list: "loopback"
// becomes an in-process worker resolving apps through the target
// registry, anything else must be a worker base URL. Workers run shards
// cache-free: the coordinator is the result store's only user.
func buildWorkers(specs []string) ([]fleet.Worker, error) {
	workers := make([]fleet.Worker, 0, len(specs))
	for i, spec := range specs {
		switch {
		case spec == "loopback":
			workers = append(workers, fleet.NewLoopbackResolver(fmt.Sprintf("loopback%d", i), target.Build))
		case strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://"):
			workers = append(workers, fleet.NewHTTPWorker(spec, nil))
		default:
			return nil, fmt.Errorf("worker %q: want \"loopback\" or an http(s) base URL", spec)
		}
	}
	return workers, nil
}

func (s *server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/campaigns/")
	if id == "" {
		writeErr(w, http.StatusNotFound, "campaign id required (GET /campaigns lists campaigns)")
		return
	}
	if strings.Contains(id, "/") {
		writeErr(w, http.StatusNotFound, "no such resource")
		return
	}
	s.mu.Lock()
	rn, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, rn.view())
	case http.MethodDelete:
		if rn.terminal() {
			writeErr(w, http.StatusConflict, "campaign %s already %s", id, rn.view().State)
			return
		}
		// Cancellation is asynchronous: the engine drains in-flight runs
		// and closes its journal with a final checkpoint, then the state
		// becomes "canceled". 202 reflects that.
		rn.cancel()
		writeJSON(w, http.StatusAccepted, rn.view())
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// metricsView is the GET /metrics response: per-campaign engine counters,
// per-fleet-campaign shard/retry counters, worker-mode counters, and
// service-wide aggregates.
type metricsView struct {
	Campaigns map[string]campaign.Metrics `json:"campaigns"`
	// Fleet holds coordinator metrics (shard lease states, retries,
	// speculative attempts, per-worker tallies) for fleet campaigns.
	Fleet map[string]fleet.Metrics `json:"fleet,omitempty"`
	// TotalRuns sums fresh runs across campaigns (engine and fleet).
	TotalRuns int64 `json:"totalRuns"`
	// Work and CacheCounters sum the per-campaign work and result-cache
	// counters (engine and fleet).
	campaign.Work
	campaign.CacheCounters
	// Running is the number of campaigns still executing.
	Running int `json:"running"`
	// WorkerShardsServed and WorkerRunsServed count work this daemon
	// executed as a fleet worker for remote coordinators.
	WorkerShardsServed int64 `json:"workerShardsServed"`
	WorkerRunsServed   int64 `json:"workerRunsServed"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "prometheus" {
		writeErr(w, http.StatusBadRequest, "unknown metrics format %q (have json, prometheus)", format)
		return
	}
	s.mu.Lock()
	v := metricsView{Campaigns: make(map[string]campaign.Metrics, len(s.runs))}
	for id, rn := range s.runs {
		rn.mu.Lock()
		exec, running := rn.exec, rn.state == stateRunning
		rn.mu.Unlock()
		switch exec := exec.(type) {
		case *fleet.Coordinator:
			fm := exec.Metrics()
			if v.Fleet == nil {
				v.Fleet = make(map[string]fleet.Metrics)
			}
			v.Fleet[id] = fm
			v.TotalRuns += fm.RunsTotal
			v.Work.Add(fm.Work)
			v.CacheCounters.Add(fm.CacheCounters)
		case *campaign.Engine:
			m := exec.Metrics()
			v.Campaigns[id] = m
			v.TotalRuns += m.RunsTotal
			v.Work.Add(m.Work)
			v.CacheCounters.Add(m.CacheCounters)
		}
		if running {
			v.Running++
		}
	}
	s.mu.Unlock()
	v.WorkerShardsServed = s.worker.ShardsServed()
	v.WorkerRunsServed = s.worker.RunsServed()
	if format == "prometheus" {
		// The text exposition is an alternate rendering of the same view;
		// the default JSON shape stays byte-identical to the wirecompat
		// fixtures.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(renderPrometheus(&v)))
		return
	}
	writeJSON(w, http.StatusOK, v)
}
