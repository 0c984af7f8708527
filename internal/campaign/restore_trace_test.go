package campaign_test

import (
	"context"
	"reflect"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/vm"
)

// TestRestoreTraceAblationMatrix is the acceptance gate for PR-7's two
// performance features: for the full FTP Client1 campaign, every
// combination of the dirty-tracking and trace-fusion knobs must produce
// byte-identical Stats (including per-run Results). It runs for bitflip
// (the paper's code-corruption model, which pokes bytes over live text)
// and regflip (the transient register-corruption model, which perturbs a
// restored machine without touching code) so both restore flavors —
// text-dirtying and data-only — are covered.
func TestRestoreTraceAblationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign ablation matrix is not short")
	}
	app, sc := ftpClient1(t)
	combos := []struct {
		name              string
		noDirty, noTraces bool
	}{
		{"dirty+traces", false, false},
		{"noDirty+traces", true, false},
		{"dirty+noTraces", false, true},
		{"noDirty+noTraces", true, true},
	}
	for _, model := range []string{"bitflip", "regflip"} {
		model := model
		t.Run(model, func(t *testing.T) {
			var want *inject.Stats
			for _, c := range combos {
				eng := campaign.New(campaign.Config{
					App: app, Scenario: sc, Scheme: encoding.SchemeX86,
					Model: model, KeepResults: true,
					Tuning: vm.Tuning{NoDirtyTracking: c.noDirty, NoTraces: c.noTraces},
				})
				got, err := eng.Run(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				m := eng.Metrics()
				if c.noTraces && (m.TraceHits != 0 || m.TraceExits != 0) {
					t.Errorf("%s: NoTraces campaign recorded trace traffic: hits=%d exits=%d",
						c.name, m.TraceHits, m.TraceExits)
				}
				if !c.noTraces && m.TraceHits == 0 {
					t.Errorf("%s: campaign executed no fused traces", c.name)
				}
				if c.noDirty && m.DirtyBytesCopied != 0 {
					t.Errorf("%s: NoDirtyTracking campaign copied %d dirty bytes",
						c.name, m.DirtyBytesCopied)
				}
				if !c.noDirty && m.DirtyBytesCopied == 0 {
					t.Errorf("%s: campaign recorded no O(dirty) restore traffic", c.name)
				}
				if m.FullRestores == 0 {
					t.Errorf("%s: campaign recorded no full restores (first restore per machine is always full)", c.name)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s stats differ from %s\nwant: %+v\ngot: %+v",
						c.name, combos[0].name, statsSummary(want), statsSummary(got))
				}
			}
		})
	}
}

// benchRestoreCampaign is BenchmarkEngineSnapshotFTP with the restore
// knobs exposed, reporting restored bytes per run: with dirty tracking on,
// restore cost tracks what each experiment actually wrote instead of the
// full address-space image.
func benchRestoreCampaign(b *testing.B, noDirty, noTraces bool) {
	app, sc := ftpClient1(b)
	var runs, dirtyBytes, fullRestores int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := campaign.New(campaign.Config{
			App: app, Scenario: sc, Scheme: encoding.SchemeX86,
			Tuning: vm.Tuning{NoDirtyTracking: noDirty, NoTraces: noTraces},
		})
		stats, err := eng.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		runs += int64(stats.Total)
		m := eng.Metrics()
		dirtyBytes += m.DirtyBytesCopied
		fullRestores += m.FullRestores
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(runs)/sec, "runs/sec")
	}
	if runs > 0 {
		b.ReportMetric(float64(dirtyBytes)/float64(runs), "dirtyB/run")
		b.ReportMetric(float64(fullRestores)/float64(runs), "fullRestores/run")
	}
}

// BenchmarkRestoreFTP isolates the O(dirty) restore: same campaign as
// BenchmarkEngineSnapshotFTP, with per-run restored-byte counts reported.
// Compare against BenchmarkRestoreFTPNoDirty (every restore copies the
// whole image) to see restore cost tracking dirty bytes.
func BenchmarkRestoreFTP(b *testing.B) { benchRestoreCampaign(b, false, false) }

// BenchmarkRestoreFTPNoDirty is the full-image-copy ablation baseline.
func BenchmarkRestoreFTPNoDirty(b *testing.B) { benchRestoreCampaign(b, true, false) }

// BenchmarkEngineSnapshotFTPNoTraces isolates superblock trace fusion's
// contribution on top of snapshot fast-forwarding and dirty tracking.
func BenchmarkEngineSnapshotFTPNoTraces(b *testing.B) { benchRestoreCampaign(b, false, true) }
