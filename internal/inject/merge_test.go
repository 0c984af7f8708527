package inject_test

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/ftpd"
	"faultsec/internal/inject"
)

// shardStats splits results into k contiguous shards and aggregates each
// independently, mirroring what a fleet worker does with its slice of the
// enumeration.
func shardStats(t *testing.T, full *inject.Stats, k int) []*inject.Stats {
	t.Helper()
	if len(full.Results) == 0 {
		t.Fatal("shardStats needs KeepResults")
	}
	shards := make([]*inject.Stats, 0, k)
	n := len(full.Results)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		s := inject.NewStats(full.App, full.Scenario, full.Scheme, full.Model)
		for _, r := range full.Results[lo:hi] {
			s.Add(r)
		}
		s.Results = append(s.Results, full.Results[lo:hi]...)
		shards = append(shards, s)
	}
	return shards
}

// TestStatsMergeProperty is the recombination property behind the fleet
// coordinator (and FastFlip-style per-section analysis): partition a real
// campaign's results into shards, aggregate each shard independently, and
// merging the shard Stats reproduces the single-run aggregate.
//
//   - Merged in shard (enumeration) order, the result is deep-equal to the
//     single-run Stats, including the order of CrashLatencies and Results.
//   - Merged in any order, every additive field still matches and the
//     slice fields match as multisets.
func TestStatsMergeProperty(t *testing.T) {
	app, err := ftpd.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := app.Scenario("Client1")
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	full, err := inject.RunExperimentsNaive(context.Background(), inject.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, KeepResults: true,
	}, faultmodel.Enumerate(targets, encoding.SchemeX86, bitflip(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.CrashLatencies) == 0 {
		t.Fatal("campaign has no crashes; the ordering property would be vacuous")
	}

	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3, 7, 16} {
		shards := shardStats(t, full, k)

		// In-order merge: byte-identical to the single-run aggregate.
		ordered := inject.NewStats(full.App, full.Scenario, full.Scheme, full.Model)
		for _, sh := range shards {
			if err := ordered.Merge(sh); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
		if !reflect.DeepEqual(ordered, full) {
			t.Errorf("k=%d: in-order merge differs from single-run stats", k)
		}

		// Shuffled merges: additive fields identical, slices as multisets.
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(k)
			merged := inject.NewStats(full.App, full.Scenario, full.Scheme, full.Model)
			for _, i := range perm {
				if err := merged.Merge(shards[i]); err != nil {
					t.Fatalf("k=%d perm=%v: %v", k, perm, err)
				}
			}
			if merged.Total != full.Total ||
				!reflect.DeepEqual(merged.Counts, full.Counts) ||
				!reflect.DeepEqual(merged.ByLocation, full.ByLocation) ||
				merged.Window != full.Window ||
				merged.WatchdogDetections != full.WatchdogDetections {
				t.Errorf("k=%d perm=%v: additive fields differ from single-run stats", k, perm)
			}
			if !sameUint64Multiset(merged.CrashLatencies, full.CrashLatencies) {
				t.Errorf("k=%d perm=%v: CrashLatencies multiset differs", k, perm)
			}
			if len(merged.Results) != len(full.Results) {
				t.Errorf("k=%d perm=%v: %d merged results, want %d",
					k, perm, len(merged.Results), len(full.Results))
			}
		}
	}
}

func sameUint64Multiset(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]uint64(nil), a...)
	bs := append([]uint64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return reflect.DeepEqual(as, bs)
}

// TestStatsMergeRejectsForeignCampaign pins the identity guard: merging
// aggregates from different apps, scenarios, or schemes is an error, not a
// silent conflation.
func TestStatsMergeRejectsForeignCampaign(t *testing.T) {
	base := inject.NewStats("ftpd", "Client1", encoding.SchemeX86, "")
	for _, o := range []*inject.Stats{
		inject.NewStats("sshd", "Client1", encoding.SchemeX86, ""),
		inject.NewStats("ftpd", "Client2", encoding.SchemeX86, ""),
		inject.NewStats("ftpd", "Client1", encoding.SchemeParity, ""),
		inject.NewStats("ftpd", "Client1", encoding.SchemeX86, "instskip"),
	} {
		if err := base.Merge(o); err == nil {
			t.Errorf("merge of %s/%s/%s model=%s into ftpd/Client1/x86 bitflip succeeded",
				o.App, o.Scenario, o.Scheme, o.Model)
		}
	}
	// "" and "bitflip" are the same model: both canonicalize, so explicit
	// naming merges with the legacy zero value.
	if err := base.Merge(inject.NewStats("ftpd", "Client1", encoding.SchemeX86, "bitflip")); err != nil {
		t.Errorf("merge of matching empty stats failed: %v", err)
	}
}
