// Benchmarks that regenerate every table and figure of the paper. Each
// benchmark prints (via b.Log / ReportMetric) the headline numbers of the
// artifact it reproduces; run with
//
//	go test -bench=. -benchmem
//
// The campaign benchmarks execute the full selective-exhaustive injection
// sweep per iteration, so a single iteration takes seconds — expect b.N=1.
package faultsec_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"faultsec"
	"faultsec/internal/campaign"
	"faultsec/internal/cc"
	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/ftpd"
	"faultsec/internal/inject"
	"faultsec/internal/rt"
	"faultsec/internal/sshd"
)

// studyOnce shares the built applications across benchmarks (the build —
// MiniC compile, assemble, link — is itself benchmarked separately).
var studyOnce = sync.OnceValues(faultsec.NewStudy)

func study(tb testing.TB) *faultsec.Study {
	tb.Helper()
	s, err := studyOnce()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkTable1FTP regenerates the four FTP columns of Table 1 (outcome
// distribution under the stock encoding).
func BenchmarkTable1FTP(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		var stats []*faultsec.Stats
		for _, sc := range s.FTPD.Scenarios {
			st, err := s.Campaign(ctx, s.FTPD, sc.Name, faultsec.SchemeX86, faultsec.Options{})
			if err != nil {
				b.Fatal(err)
			}
			stats = append(stats, st)
		}
		if i == 0 {
			b.Log("\n" + faultsec.RenderTable1(stats))
		}
	}
}

// BenchmarkTable1SSH regenerates the two SSH columns of Table 1.
func BenchmarkTable1SSH(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		var stats []*faultsec.Stats
		for _, sc := range s.SSHD.Scenarios {
			st, err := s.Campaign(ctx, s.SSHD, sc.Name, faultsec.SchemeX86, faultsec.Options{})
			if err != nil {
				b.Fatal(err)
			}
			stats = append(stats, st)
		}
		if i == 0 {
			b.Log("\n" + faultsec.RenderTable1(stats))
		}
	}
}

// BenchmarkTable3Locations regenerates Table 3 (BRK+FSV by error location)
// for the two attack scenarios.
func BenchmarkTable3Locations(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		var stats []*faultsec.Stats
		for _, app := range []*faultsec.App{s.FTPD, s.SSHD} {
			st, err := s.Campaign(ctx, app, "Client1", faultsec.SchemeX86, faultsec.Options{})
			if err != nil {
				b.Fatal(err)
			}
			stats = append(stats, st)
		}
		if i == 0 {
			b.Log("\n" + faultsec.RenderTable3(stats))
		}
	}
}

// BenchmarkTable4Derivation regenerates Table 4 (the re-encoding map) from
// the odd-parity construction.
func BenchmarkTable4Derivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = faultsec.RenderTable4()
	}
}

// BenchmarkTable5NewEncoding regenerates Table 5: the six campaigns under
// the parity encoding plus the FSV/BRK reduction rows.
func BenchmarkTable5NewEncoding(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		old, err := s.AllCampaigns(ctx, faultsec.SchemeX86, faultsec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		table, _, err := s.Table5(ctx, old, faultsec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table)
		}
	}
}

// BenchmarkFigure4Histogram regenerates the crash-latency histogram for
// FTP Client1 and reports its headline statistics.
func BenchmarkFigure4Histogram(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		h, err := s.Figure4(ctx, faultsec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + faultsec.RenderFigure4(h))
			b.ReportMetric(h.PctWithin100(), "%within100")
			b.ReportMetric(float64(h.Max), "max-latency")
		}
	}
}

// BenchmarkRandomTestbed reproduces the §7 experiment: random single-bit
// errors over the whole ftpd text under attack load; the paper reports
// roughly 1 security violation per 3,000 errors.
func BenchmarkRandomTestbed(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	const n = 3000
	for i := 0; i < b.N; i++ {
		stats, err := s.RandomTestbed(ctx, n, 2001+int64(i), faultsec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			brk := stats.Counts[faultsec.OutcomeBRK]
			b.ReportMetric(float64(brk), "break-ins/3000")
		}
	}
}

// BenchmarkPersistentWindow reproduces the §5.4 permanent-window
// demonstration (find a break-in bit, verify it persists across
// connections, verify reload closes it).
func BenchmarkPersistentWindow(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := s.PersistentWindow(ctx, s.FTPD, 3, faultsec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.GrantedAfterReload {
			b.Fatal("window did not close after reload")
		}
	}
}

// BenchmarkLoadImpact reproduces the §5.4 load-diversity experiment.
func BenchmarkLoadImpact(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := s.LoadImpact(ctx, s.FTPD, faultsec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ManifestProb[0], "P(manifest|mix1)")
			b.ReportMetric(res.ManifestProb[len(res.ManifestProb)-1], "P(manifest|mix4)")
		}
	}
}

// BenchmarkAblationBuildImages measures the full toolchain (MiniC compile,
// assemble with branch relaxation, link) for both servers, bypassing the
// build cache.
func BenchmarkAblationBuildImages(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rt.BuildImage(ftpd.Source()); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.BuildImage(sshd.Source()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGoldenRunFTP measures one fault-free Client1 session —
// the per-run floor cost of every campaign experiment.
func BenchmarkAblationGoldenRunFTP(b *testing.B) {
	s := study(b)
	sc, ok := s.FTPD.Scenario("Client1")
	if !ok {
		b.Fatal("no Client1")
	}
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		g, err := inject.GoldenRun(s.FTPD, sc, 0)
		if err != nil {
			b.Fatal(err)
		}
		steps = g.Steps
	}
	b.ReportMetric(float64(steps), "instructions/session")
}

// BenchmarkAblationCodegenStyle compares the two boolean-materialization
// codegen styles (branch-based vs setcc-based) on branch density and
// attack-campaign outcome — the compiler-level design choice DESIGN.md
// calls out: branchier code exposes more single-bit reversal sites.
func BenchmarkAblationCodegenStyle(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, variant := range []struct {
			name string
			opts cc.Options
		}{
			{"branchy", cc.Options{}},
			{"setcc", cc.Options{SetccBooleans: true}},
		} {
			app, err := ftpd.BuildWithCodegen(variant.opts)
			if err != nil {
				b.Fatal(err)
			}
			targets, err := inject.Targets(app)
			if err != nil {
				b.Fatal(err)
			}
			sc, _ := app.Scenario("Client1")
			stats, err := campaign.New(campaign.Config{
				App: app, Scenario: sc, Scheme: encoding.SchemeX86,
			}).Run(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("%s: %d branch targets, %d bits, BRK=%d of %d activated",
					variant.name, len(targets), stats.Total,
					stats.Counts[classify.OutcomeBRK], stats.Activated())
			}
		}
		// The servers' auth code is if-dominated, so the two styles tie
		// there; on value-context-boolean code the difference is real:
		const valueHeavy = `
int valid(int a, int b, int c) {
	int in_range = a >= 0;
	int below = a < b;
	int flags = in_range + below * 2 + (b == c) * 4 + (a != c) * 8;
	return flags;
}
`
		for _, variant := range []struct {
			name string
			opts cc.Options
		}{
			{"branchy", cc.Options{}},
			{"setcc", cc.Options{SetccBooleans: true}},
		} {
			out, err := cc.CompileWithOptions(valueHeavy, variant.opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("value-heavy %s: %d conditional branches, %d setcc",
					variant.name, countJcc(out), countSetcc(out))
			}
		}
	}
}

func countJcc(asmText string) int {
	n := 0
	for _, line := range strings.Split(asmText, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if _, ok := map[string]bool{
			"je": true, "jne": true, "jl": true, "jle": true, "jg": true,
			"jge": true, "jb": true, "jbe": true, "ja": true, "jae": true,
		}[f[0]]; ok {
			n++
		}
	}
	return n
}

func countSetcc(asmText string) int {
	n := 0
	for _, line := range strings.Split(asmText, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && strings.HasPrefix(f[0], "set") {
			n++
		}
	}
	return n
}

// BenchmarkAblationWatchdog measures the control-flow-watchdog comparison:
// detection coverage on the attack campaign and its (non-)effect on
// break-ins.
func BenchmarkAblationWatchdog(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := s.WatchdogAblation(ctx, s.FTPD, faultsec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.DetectionRate(), "%detected")
			b.ReportMetric(float64(res.Watched.Counts[faultsec.OutcomeBRK]), "BRK-with-watchdog")
		}
	}
}

// BenchmarkRandomTestbedParity measures the §7 field rate under the new
// encoding: how many of the same random single-bit errors still break in
// when the hypothetical re-encoded processor runs the server.
func BenchmarkRandomTestbedParity(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	const n = 3000
	for i := 0; i < b.N; i++ {
		stats, err := s.RandomTestbedScheme(ctx, n, 2001+int64(i), faultsec.SchemeParity, faultsec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(stats.Counts[faultsec.OutcomeBRK]), "break-ins/3000")
		}
	}
}
