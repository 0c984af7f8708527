// Package core is the study's public orchestration API: it builds the
// target applications, runs the selective-exhaustive and random injection
// campaigns under both instruction encodings, and reproduces every table
// and figure of the paper (see DESIGN.md for the experiment index). The
// root faultsec package re-exports this API.
//
// Beyond the paper's two daemons the study carries a third target, httpd,
// whose session-cookie validation generalizes the auth-branch shape; it
// joins the fault-model and scheme matrices but stays out of the
// paper-numbered tables (Table 1/3/5 reproduce the published six
// campaigns exactly).
package core

import (
	"context"
	"errors"
	"fmt"

	"faultsec/internal/campaign"
	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/ftpd"
	"faultsec/internal/httpd"
	"faultsec/internal/inject"
	"faultsec/internal/kernel"
	"faultsec/internal/report"
	"faultsec/internal/sshd"
	"faultsec/internal/target"
	"faultsec/internal/vm"
)

// Study bundles the built target applications.
type Study struct {
	FTPD  *target.App
	SSHD  *target.App
	HTTPD *target.App
}

// NewStudy compiles and links all target servers.
func NewStudy() (*Study, error) {
	fapp, err := ftpd.Build()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sapp, err := sshd.Build()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	happ, err := httpd.Build()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Study{FTPD: fapp, SSHD: sapp, HTTPD: happ}, nil
}

// matrixApps is the application axis of the fault-model and scheme
// matrices: the paper's two daemons plus the httpd session daemon. httpd
// comes last so the pre-existing ftpd/sshd rows keep their relative
// order.
func (s *Study) matrixApps() []*target.App {
	return []*target.App{s.FTPD, s.SSHD, s.HTTPD}
}

// Options tune campaign execution.
type Options struct {
	// Fuel is the per-run instruction budget; 0 uses the default.
	Fuel uint64
	// Parallelism is the worker count; 0 uses GOMAXPROCS.
	Parallelism int
	// KeepResults retains per-run detail on the returned stats.
	KeepResults bool
}

func (o Options) config(app *target.App, sc target.Scenario, scheme encoding.Scheme) campaign.Config {
	return campaign.Config{
		App:         app,
		Scenario:    sc,
		Scheme:      scheme,
		Fuel:        o.Fuel,
		Parallelism: o.Parallelism,
		KeepResults: o.KeepResults,
	}
}

// Campaign runs one selective-exhaustive campaign under the paper's
// single-bit fault model.
func (s *Study) Campaign(ctx context.Context, app *target.App, scenario string,
	scheme encoding.Scheme, opts Options) (*inject.Stats, error) {
	return s.CampaignModel(ctx, app, scenario, scheme, "", opts)
}

// AllCampaigns runs the paper's six campaigns (FTP Client1..4, SSH
// Client1..2) under one encoding scheme, in Table 1 column order.
func (s *Study) AllCampaigns(ctx context.Context, scheme encoding.Scheme,
	opts Options) ([]*inject.Stats, error) {
	var out []*inject.Stats
	for _, app := range []*target.App{s.FTPD, s.SSHD} {
		for _, sc := range app.Scenarios {
			stats, err := campaign.New(opts.config(app, sc, scheme)).Run(ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, stats)
		}
	}
	return out, nil
}

// Table1 runs the baseline campaigns and renders the paper's Table 1.
func (s *Study) Table1(ctx context.Context, opts Options) (string, []*inject.Stats, error) {
	stats, err := s.AllCampaigns(ctx, encoding.SchemeX86, opts)
	if err != nil {
		return "", nil, err
	}
	return report.Table1(stats), stats, nil
}

// Table3 renders the location breakdown for the given campaigns.
func (s *Study) Table3(stats []*inject.Stats) string { return report.Table3(stats) }

// Table5 runs the campaigns under the new encoding and renders the paper's
// Table 5 (with reduction rows computed against old).
func (s *Study) Table5(ctx context.Context, old []*inject.Stats, opts Options) (string, []*inject.Stats, error) {
	stats, err := s.AllCampaigns(ctx, encoding.SchemeParity, opts)
	if err != nil {
		return "", nil, err
	}
	return report.Table5(old, stats), stats, nil
}

// Figure4 runs the FTP Client1 campaign under the stock encoding and
// returns the crash-latency histogram.
func (s *Study) Figure4(ctx context.Context, opts Options) (*report.Histogram, error) {
	stats, err := s.Campaign(ctx, s.FTPD, "Client1", encoding.SchemeX86, opts)
	if err != nil {
		return nil, err
	}
	return report.NewHistogram(stats.CrashLatencies), nil
}

// CampaignModel runs one selective-exhaustive campaign under an explicit
// fault model (internal/faultmodel registry name; "" or "bitflip" is the
// paper's single-bit model), which decides the experiment enumeration.
// The campaign identity resolves through campaign.Identity.Resolve, so an
// unknown scenario, scheme or model fails with the registry's error,
// which lists the registered names.
func (s *Study) CampaignModel(ctx context.Context, app *target.App, scenario string,
	scheme encoding.Scheme, model string, opts Options) (*inject.Stats, error) {
	cfg, err := campaign.Identity{App: app.Name, Scenario: scenario, Scheme: encoding.SchemeName(scheme),
		Model: model, Fuel: opts.Fuel}.Resolve(func(string) (*target.App, error) { return app, nil })
	if err != nil {
		return nil, err
	}
	cfg.Parallelism, cfg.KeepResults = opts.Parallelism, opts.KeepResults
	return campaign.New(cfg).Run(ctx)
}

// FaultModelMatrix runs one Client1 campaign per (fault model × target
// application) under the stock encoding and renders the per-(model ×
// target × location) BRK/SD/FSV matrix. models nil or empty means every
// registered model.
func (s *Study) FaultModelMatrix(ctx context.Context, models []string,
	opts Options) (string, []*inject.Stats, error) {
	if len(models) == 0 {
		models = faultmodel.Names()
	}
	var out []*inject.Stats
	for _, name := range models {
		for _, app := range s.matrixApps() {
			stats, err := s.CampaignModel(ctx, app, "Client1", encoding.SchemeX86, name, opts)
			if err != nil {
				return "", nil, err
			}
			out = append(out, stats)
		}
	}
	return report.ModelMatrix(out), out, nil
}

// SchemeMatrix runs one Client1 campaign per (hardening scheme × fault
// model × target application) and renders the scheme reduction matrix —
// per-campaign BRK/SD/FSV rates plus each rate's reduction against the
// x86 baseline of the same (model, target). schemes nil or empty means
// every registered scheme; models nil or empty means every registered
// fault model. Compile-time schemes (dupcmp, encbranch) rebuild the
// target through its Rebuild hook; the hardened image is compiled once
// and shared across that scheme's campaigns.
func (s *Study) SchemeMatrix(ctx context.Context, schemes, models []string,
	opts Options) (string, []*inject.Stats, error) {
	if len(schemes) == 0 {
		schemes = encoding.Names()
	}
	if len(models) == 0 {
		models = faultmodel.Names()
	}
	var out []*inject.Stats
	for _, sn := range schemes {
		scheme, err := encoding.Parse(sn)
		if err != nil {
			return "", nil, fmt.Errorf("core: %w", err)
		}
		for _, mn := range models {
			for _, app := range s.matrixApps() {
				stats, err := s.CampaignModel(ctx, app, "Client1", scheme, mn, opts)
				if err != nil {
					return "", nil, err
				}
				out = append(out, stats)
			}
		}
	}
	return report.SchemeMatrix(out), out, nil
}

// RandomTestbed runs the paper's §7 random-injection experiment: n random
// single-bit errors over the whole ftpd text segment under Client1 attack
// load. The paper reports roughly 1 security violation per 3,000 errors.
func (s *Study) RandomTestbed(ctx context.Context, n int, seed int64,
	opts Options) (*inject.Stats, error) {
	return s.randomTestbed(ctx, n, seed, encoding.SchemeX86, opts)
}

// randomTestbed runs n seeded random single-bit injections
// (inject.RandomExperiments) against ftpd Client1 under scheme. The
// returned Stats carry the scenario name with a "/random" suffix.
func (s *Study) randomTestbed(ctx context.Context, n int, seed int64,
	scheme encoding.Scheme, opts Options) (*inject.Stats, error) {
	if n <= 0 {
		return nil, errors.New("core: random campaign needs n > 0")
	}
	sc, _ := s.FTPD.Scenario("Client1")
	exps, err := inject.RandomExperiments(s.FTPD, scheme, n, seed)
	if err != nil {
		return nil, err
	}
	stats, err := campaign.New(opts.config(s.FTPD, sc, scheme)).RunExperiments(ctx, exps)
	if err != nil {
		return nil, err
	}
	stats.Scenario = sc.Name + "/random"
	return stats, nil
}

// PersistentWindowResult demonstrates the paper's permanent window of
// vulnerability (§5.4): a single-bit error in resident text stays in
// memory, so every subsequent connection is compromised until the page is
// reloaded.
type PersistentWindowResult struct {
	// Experiment is the BRK-producing corruption used.
	Experiment inject.Experiment
	// GrantedPerConnection records the unauthorized client's access result
	// for each consecutive connection against the corrupted server.
	GrantedPerConnection []bool
	// GrantedAfterReload is the access result after the text page is
	// restored (must be false: reload closes the window).
	GrantedAfterReload bool
}

// PersistentWindow finds a break-in-producing corruption for the app's
// Client1 pattern, applies it to the resident text image, and measures n
// consecutive attack connections, then one more after "reloading" the
// page.
func (s *Study) PersistentWindow(ctx context.Context, app *target.App, n int,
	opts Options) (*PersistentWindowResult, error) {
	sc, ok := app.Scenario("Client1")
	if !ok {
		return nil, fmt.Errorf("core: app %s has no Client1", app.Name)
	}
	cfg := opts.config(app, sc, encoding.SchemeX86)
	cfg.KeepResults = true
	stats, err := campaign.New(cfg).Run(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range stats.Results {
		if r.Outcome != classify.OutcomeBRK {
			continue
		}
		res, ok, perr := s.tryPersistent(app, sc, r.Experiment, n)
		if perr != nil {
			return nil, perr
		}
		if ok {
			return res, nil
		}
	}
	return nil, errors.New("core: no statically-reproducible break-in found")
}

// tryPersistent applies the corruption statically (resident corrupted
// page) and checks that the break-in reproduces on every connection.
func (s *Study) tryPersistent(app *target.App, sc target.Scenario,
	ex inject.Experiment, n int) (*PersistentWindowResult, bool, error) {
	corrupted := make([]byte, len(app.Image.Text))
	copy(corrupted, app.Image.Text)
	off := ex.Target.Addr - app.Image.TextBase
	copy(corrupted[off:], ex.CorruptedBytes())

	res := &PersistentWindowResult{Experiment: ex}
	for i := 0; i < n; i++ {
		granted, err := runConnection(app, sc, corrupted)
		if err != nil {
			return nil, false, err
		}
		if !granted {
			return nil, false, nil // not a stable permanent hole; try another
		}
		res.GrantedPerConnection = append(res.GrantedPerConnection, granted)
	}
	granted, err := runConnection(app, sc, nil) // pristine text: page reloaded
	if err != nil {
		return nil, false, err
	}
	res.GrantedAfterReload = granted
	return res, !granted, nil
}

// runConnection runs one client session against the given text bytes
// (nil = pristine) and reports whether access was granted.
func runConnection(app *target.App, sc target.Scenario, text []byte) (bool, error) {
	client := sc.New()
	k := kernel.New(client)
	ld, err := app.Image.Load(k, text)
	if err != nil {
		return false, err
	}
	runErr := ld.Machine.Run()
	var exit *vm.ExitStatus
	var fault *vm.Fault
	var hang *kernel.HangError
	var fuel *vm.OutOfFuel
	var flood *kernel.FloodError
	switch {
	case errors.As(runErr, &exit), errors.As(runErr, &fault),
		errors.As(runErr, &hang), errors.As(runErr, &fuel),
		errors.As(runErr, &flood):
		return client.Granted(), nil
	}
	return false, fmt.Errorf("core: connection ended unexpectedly: %w", runErr)
}

// LoadImpactResult quantifies the paper's §5.4 observation that heavier,
// more diversified load raises the probability that a latent error
// manifests: a latent error stays in the resident text across forked
// connections, and each distinct client access pattern exercises different
// code.
type LoadImpactResult struct {
	// MixSizes[k] is the number of distinct client patterns in mix k.
	MixSizes []int
	// ActivatedProb[k] is the probability a latent branch error is
	// exercised by at least one client in mix k.
	ActivatedProb []float64
	// ManifestProb[k] is the probability it visibly manifests (crash,
	// FSV, or break-in) under mix k.
	ManifestProb []float64
	// Errors is the latent-error population size.
	Errors int
}

// LoadImpact computes activation/manifestation probability as a function
// of workload diversity by reusing full per-scenario campaign results.
func (s *Study) LoadImpact(ctx context.Context, app *target.App, opts Options) (*LoadImpactResult, error) {
	perScenario := make([][]inject.Result, 0, len(app.Scenarios))
	var nRuns int
	for _, sc := range app.Scenarios {
		cfg := opts.config(app, sc, encoding.SchemeX86)
		cfg.KeepResults = true
		stats, err := campaign.New(cfg).Run(ctx)
		if err != nil {
			return nil, err
		}
		perScenario = append(perScenario, stats.Results)
		nRuns = len(stats.Results)
	}
	res := &LoadImpactResult{Errors: nRuns}
	for k := 1; k <= len(perScenario); k++ {
		activated, manifested := 0, 0
		for i := 0; i < nRuns; i++ {
			act, man := false, false
			for j := 0; j < k; j++ {
				r := perScenario[j][i]
				if r.Activated {
					act = true
				}
				switch r.Outcome {
				case classify.OutcomeSD, classify.OutcomeFSV, classify.OutcomeBRK:
					man = true
				}
			}
			if act {
				activated++
			}
			if man {
				manifested++
			}
		}
		res.MixSizes = append(res.MixSizes, k)
		res.ActivatedProb = append(res.ActivatedProb, float64(activated)/float64(nRuns))
		res.ManifestProb = append(res.ManifestProb, float64(manifested)/float64(nRuns))
	}
	return res, nil
}

// WatchdogResult compares one campaign run with and without the
// control-flow watchdog (a software signature checker in the style of the
// related work the paper surveys: BSSC, ECCA, PECOS).
type WatchdogResult struct {
	// Baseline is the plain campaign.
	Baseline *inject.Stats
	// Watched is the same campaign with the watchdog enabled.
	Watched *inject.Stats
}

// DetectionRate returns the share of activated errors the watchdog caught.
func (w *WatchdogResult) DetectionRate() float64 {
	a := w.Watched.Activated()
	if a == 0 {
		return 0
	}
	return float64(w.Watched.WatchdogDetections) / float64(a)
}

// WatchdogAblation runs the attack campaign with and without the
// control-flow watchdog. The expected (and paper-motivating) outcome:
// the watchdog converts wild jumps and instruction-stream
// desynchronization into fast detections, but it cannot catch a valid
// conditional branch taken in the wrong direction — the break-ins that
// matter survive it, which is why the paper proposes an encoding fix
// instead.
func (s *Study) WatchdogAblation(ctx context.Context, app *target.App,
	opts Options) (*WatchdogResult, error) {
	sc, ok := app.Scenario("Client1")
	if !ok {
		return nil, fmt.Errorf("core: app %s has no Client1", app.Name)
	}
	baseline, err := campaign.New(opts.config(app, sc, encoding.SchemeX86)).Run(ctx)
	if err != nil {
		return nil, err
	}
	watchedCfg := opts.config(app, sc, encoding.SchemeX86)
	watchedCfg.Watchdog = true
	watched, err := campaign.New(watchedCfg).Run(ctx)
	if err != nil {
		return nil, err
	}
	return &WatchdogResult{Baseline: baseline, Watched: watched}, nil
}

// CampaignScenario runs a campaign for an explicit scenario that need not
// be one of the app's built-in access patterns (e.g. the privilege
// escalation pattern from ftpd.EscalationScenario).
func (s *Study) CampaignScenario(ctx context.Context, app *target.App,
	sc target.Scenario, scheme encoding.Scheme, opts Options) (*inject.Stats, error) {
	return campaign.New(opts.config(app, sc, scheme)).Run(ctx)
}

// RandomTestbedScheme is RandomTestbed with an explicit encoding scheme —
// used to measure how the parity re-encoding changes the §7 field rate
// ("1 in N random errors breaks in").
func (s *Study) RandomTestbedScheme(ctx context.Context, n int, seed int64,
	scheme encoding.Scheme, opts Options) (*inject.Stats, error) {
	return s.randomTestbed(ctx, n, seed, scheme, opts)
}
