package core_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"faultsec/internal/core"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/inject"
	"faultsec/internal/target"
)

// TestSchemeMatrixDifferentialPin pins the matrix's x86 and parity bitflip
// rows to the pre-registry Study output: the Stats behind each row must be
// deep-equal to what Study.Campaign (the snapshot engine, the path the
// original reproduction used) and inject.RunExperimentsNaive (the
// from-scratch reference executor) produce for the same campaign. Combined
// with the journal wire-compat fixtures, this is the guarantee that the
// scheme registry changed no x86/parity number anywhere.
func TestSchemeMatrixDifferentialPin(t *testing.T) {
	if testing.Short() {
		t.Skip("four full campaigns plus naive baselines in -short mode")
	}
	s := study(t)
	ctx := context.Background()

	matrix, stats, err := s.SchemeMatrix(ctx,
		[]string{"x86", "parity"}, []string{"bitflip"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 {
		t.Fatalf("matrix stats = %d campaigns, want 6 (2 schemes x bitflip x 3 targets)", len(stats))
	}
	rows := []struct {
		scheme encoding.Scheme
		app    *target.App
	}{
		{encoding.SchemeX86, s.FTPD},
		{encoding.SchemeX86, s.SSHD},
		{encoding.SchemeX86, s.HTTPD},
		{encoding.SchemeParity, s.FTPD},
		{encoding.SchemeParity, s.SSHD},
		{encoding.SchemeParity, s.HTTPD},
	}
	bitflip, err := faultmodel.Get("bitflip")
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		name := encoding.SchemeName(row.scheme) + "/" + row.app.Name
		// Snapshot path: the Study entry point that predates the registry.
		want, err := s.Campaign(ctx, row.app, "Client1", row.scheme, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, stats[i]) {
			t.Errorf("%s: matrix row differs from Study.Campaign (snapshot path)", name)
		}
		// Naive path: every experiment re-executed from _start.
		sc, _ := row.app.Scenario("Client1")
		targets, err := inject.Targets(row.app)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := inject.RunExperimentsNaive(ctx,
			inject.Config{App: row.app, Scenario: sc, Scheme: row.scheme},
			faultmodel.Enumerate(targets, row.scheme, bitflip))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(naive, stats[i]) {
			t.Errorf("%s: matrix row differs from naive baseline", name)
		}
	}
	for _, want := range []string{"x86", "parity", "FTP Client1", "SSH Client1", "BRK red"} {
		if !strings.Contains(matrix, want) {
			t.Errorf("rendered matrix missing %q:\n%s", want, matrix)
		}
	}
}

// TestSchemeMatrixCoverage runs the full reduction matrix — every
// registered scheme crossed with every registered fault model over FTP,
// SSH, and HTTP Client1 — and checks the grid is complete: >= 4 schemes,
// all fault models, all three targets, one rendered row per campaign, and
// reduction columns populated for every hardened row that has an x86
// baseline.
func TestSchemeMatrixCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheme x model grid in -short mode")
	}
	s := study(t)
	ctx := context.Background()

	matrix, stats, err := s.SchemeMatrix(ctx, nil, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schemes, models := encoding.Names(), faultmodel.Names()
	if len(schemes) < 4 {
		t.Fatalf("registered schemes = %v, want >= 4", schemes)
	}
	if want := len(schemes) * len(models) * 3; len(stats) != want {
		t.Fatalf("matrix stats = %d campaigns, want %d (%d schemes x %d models x 3 targets)",
			len(stats), want, len(schemes), len(models))
	}
	seen := make(map[string]bool, len(stats))
	for _, st := range stats {
		if st.Total == 0 {
			t.Errorf("empty campaign in matrix: %s/%s scheme=%s model=%s",
				st.App, st.Scenario, encoding.SchemeName(st.Scheme), st.Model)
		}
		seen[encoding.SchemeName(st.Scheme)+"|"+st.Model+"|"+st.App] = true
	}
	for _, sn := range schemes {
		for _, mn := range models {
			for _, app := range []string{"ftpd", "sshd", "httpd"} {
				if !seen[sn+"|"+mn+"|"+app] {
					t.Errorf("matrix missing cell scheme=%s model=%s app=%s", sn, mn, app)
				}
			}
		}
	}
	// One header line plus one row per campaign.
	if lines := strings.Count(strings.TrimRight(matrix, "\n"), "\n") + 1; lines != len(stats)+1 {
		t.Errorf("rendered matrix has %d lines, want %d", lines, len(stats)+1)
	}
	// Hardened rows carry concrete reduction values against their x86
	// baseline rows (every model has an x86 baseline in the full grid, so
	// percentage cells must appear outside the rate columns' parentheses).
	var reductions int
	for _, line := range strings.Split(matrix, "\n") {
		if line == "" || strings.HasPrefix(line, "Scheme") || strings.HasPrefix(line, "x86") {
			continue
		}
		// Rate cells render as "n (p%)"; reduction cells as a bare "p%".
		for _, f := range strings.Fields(line) {
			if strings.HasSuffix(f, "%") && !strings.HasSuffix(f, "%)") {
				reductions++
			}
		}
	}
	if reductions == 0 {
		t.Errorf("no reduction percentages in rendered matrix:\n%s", matrix)
	}
}
