package campaign_test

import (
	"context"
	"reflect"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/encoding"
	"faultsec/internal/vm"
)

// TestICacheAblationFTPClient1 is the corrupted-text acceptance gate for
// the predecoded instruction cache: the full FTP Client1 campaign — every
// experiment of which pokes corrupted bytes over live text — must produce
// byte-identical Stats (including per-run Results) with the cache enabled
// and disabled. Any stale decode surviving a poke or a snapshot restore
// would show up as a diverging outcome here.
func TestICacheAblationFTPClient1(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign ablation is not short")
	}
	app, sc := ftpClient1(t)

	cached := campaign.New(campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
	})
	want, err := cached.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	uncached := campaign.New(campaign.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
		Tuning: vm.Tuning{NoICache: true},
	})
	got, err := uncached.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, got) {
		t.Errorf("cached stats differ from NoICache\ncached: %+v\nnoicache: %+v",
			statsSummary(want), statsSummary(got))
	}

	cm := cached.Metrics()
	if cm.ICacheHits == 0 {
		t.Error("cached campaign recorded no icache hits")
	}
	if cm.ICacheHitRate <= 0 || cm.ICacheHitRate > 1 {
		t.Errorf("icache hit rate %v out of (0,1]", cm.ICacheHitRate)
	}
	um := uncached.Metrics()
	if um.ICacheHits != 0 || um.ICacheMisses != 0 {
		t.Errorf("NoICache campaign recorded cache traffic: hits=%d misses=%d",
			um.ICacheHits, um.ICacheMisses)
	}
}
