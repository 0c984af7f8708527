package campaign_test

import (
	"context"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/vm"
)

// benchCampaign runs the full Table 1 FTP Client1 campaign once per
// iteration through run and reports throughput in runs/sec, the engine's
// headline metric.
func benchCampaign(b *testing.B, run func(context.Context) (*inject.Stats, error)) {
	var runs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		runs += int64(stats.Total)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(runs)/sec, "runs/sec")
	}
}

// benchEngine benchmarks the snapshot engine under the given knobs.
func benchEngine(b *testing.B, tuning vm.Tuning) {
	app, sc := ftpClient1(b)
	benchCampaign(b, func(ctx context.Context) (*inject.Stats, error) {
		return campaign.New(campaign.Config{
			App: app, Scenario: sc, Scheme: encoding.SchemeX86, Tuning: tuning,
		}).Run(ctx)
	})
}

func BenchmarkEngineSnapshotFTP(b *testing.B) { benchEngine(b, vm.Tuning{}) }

// BenchmarkEngineNaiveFTP runs the same campaign through the from-scratch
// oracle, inject.RunExperimentsNaive: the baseline snapshot fast-forward
// is measured against.
func BenchmarkEngineNaiveFTP(b *testing.B) {
	app, sc := ftpClient1(b)
	targets, err := inject.Targets(app)
	if err != nil {
		b.Fatal(err)
	}
	exps := bitflips(b, targets, encoding.SchemeX86)
	cfg := inject.Config{App: app, Scenario: sc, Scheme: encoding.SchemeX86}
	benchCampaign(b, func(ctx context.Context) (*inject.Stats, error) {
		return inject.RunExperimentsNaive(ctx, cfg, exps)
	})
}

// BenchmarkEngineSnapshotFTPNoICache isolates the predecoded instruction
// cache's contribution on top of snapshot fast-forwarding.
func BenchmarkEngineSnapshotFTPNoICache(b *testing.B) {
	benchEngine(b, vm.Tuning{NoICache: true})
}
