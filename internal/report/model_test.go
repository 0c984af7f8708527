package report_test

import (
	"strings"
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/report"
)

func modelStats(app, model string, byLoc map[classify.Location]map[classify.Outcome]int) *inject.Stats {
	return &inject.Stats{
		App: app, Scenario: "Client1", Scheme: encoding.SchemeX86,
		Model: model, ByLocation: byLoc,
	}
}

func TestModelMatrixLayout(t *testing.T) {
	stats := []*inject.Stats{
		modelStats("ftpd", "bitflip", map[classify.Location]map[classify.Outcome]int{
			classify.Loc2BC:  {classify.OutcomeBRK: 3, classify.OutcomeSD: 40},
			classify.Loc2BO:  {classify.OutcomeFSV: 5},
			classify.Loc6BO:  {},                      // all-zero location: elided
			classify.LocMISC: {classify.OutcomeNM: 9}, // no manifested severity: elided
		}),
		modelStats("sshd", "cmpskip", map[classify.Location]map[classify.Outcome]int{
			classify.Loc2BC: {classify.OutcomeBRK: 1},
		}),
		// A campaign with nothing manifested still gets its total row.
		modelStats("ftpd", "instskip", nil),
	}
	out := report.ModelMatrix(stats)

	for _, want := range []string{"Model", "Target", "Location", "BRK", "SD", "FSV",
		"bitflip", "cmpskip", "instskip", "FTP Client1", "SSH Client1", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("ModelMatrix missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var bitflipRows, totalRows int
	for _, ln := range lines {
		if strings.Contains(ln, "bitflip") {
			bitflipRows++
		}
		if strings.Contains(ln, "total") {
			totalRows++
		}
		if strings.Contains(ln, "6BO") || strings.Contains(ln, "MISC") {
			t.Errorf("ModelMatrix kept a severity-free location row: %q", ln)
		}
	}
	// bitflip: 2BC and 2BO location rows plus its total row.
	if bitflipRows != 3 {
		t.Errorf("bitflip rows = %d, want 3 (2BC, 2BO, total):\n%s", bitflipRows, out)
	}
	// One total row per campaign, including the all-zero instskip one.
	if totalRows != 3 {
		t.Errorf("total rows = %d, want one per campaign:\n%s", totalRows, out)
	}
	// Severity totals sum the location rows.
	for _, ln := range lines {
		if strings.Contains(ln, "bitflip") && strings.Contains(ln, "total") {
			for _, cell := range []string{"3", "40", "5"} {
				if !strings.Contains(ln, cell) {
					t.Errorf("bitflip total row %q missing count %s", ln, cell)
				}
			}
		}
	}
}
