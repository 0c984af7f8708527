package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsPrometheusFormat drives the alternate exposition end to end:
// submit an httpd campaign (exercising the registry-backed lazy build on
// the submit path), then scrape GET /metrics?format=prometheus and check
// the text format — media type, HELP/TYPE annotations, aggregate counters
// consistent with the JSON view, and the per-campaign series labeled with
// the campaign id.
func TestMetricsPrometheusFormat(t *testing.T) {
	ts, _ := newTestService(t)
	v := postCampaign(t, ts, `{"app":"httpd","scenario":"Client3"}`)
	waitDone(t, ts, v.ID)

	var m metricsView
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics?format=prometheus: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want the Prometheus text exposition type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		"# TYPE campaignd_campaigns_running gauge",
		"# TYPE campaignd_runs_total counter",
		"# HELP campaignd_runs_total ",
		fmt.Sprintf("campaignd_runs_total %d\n", m.TotalRuns),
		fmt.Sprintf("campaignd_campaign_runs_total{campaign=%q} %d\n",
			v.ID, m.Campaigns[v.ID].RunsTotal),
		fmt.Sprintf("campaignd_campaign_groups_done{campaign=%q} ", v.ID),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, text)
		}
	}
	// Every non-comment line is `name[{labels}] value` — no stray JSON.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 || !strings.HasPrefix(fields[0], "campaignd_") {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// An unknown format is refused, and the bare endpoint still speaks JSON.
	bad, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close() //nolint:errcheck // test
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /metrics?format=xml: status %d, want 400", bad.StatusCode)
	}
	var viaParam metricsView
	if code := getJSON(t, ts.URL+"/metrics?format=json", &viaParam); code != http.StatusOK {
		t.Errorf("GET /metrics?format=json: status %d", code)
	}
}

// TestMetricsConvergenceCounters checks that a regflip campaign's golden-
// convergence counters reach both the JSON aggregates and the Prometheus
// exposition.
func TestMetricsConvergenceCounters(t *testing.T) {
	ts, _ := newTestService(t)
	v := postCampaign(t, ts, `{"app":"httpd","scenario":"Client4","faultModel":"regflip"}`)
	waitDone(t, ts, v.ID)

	var m metricsView
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	cm := m.Campaigns[v.ID]
	if cm.ConvergedRuns == 0 || cm.InstructionsSaved == 0 {
		t.Fatalf("regflip campaign converged %d runs saving %d instructions, want both > 0",
			cm.ConvergedRuns, cm.InstructionsSaved)
	}
	if m.ConvergedRuns != cm.ConvergedRuns || m.InstructionsSaved != cm.InstructionsSaved {
		t.Errorf("aggregates %d/%d, want the campaign's %d/%d",
			m.ConvergedRuns, m.InstructionsSaved, cm.ConvergedRuns, cm.InstructionsSaved)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE campaignd_converged_runs_total counter",
		fmt.Sprintf("campaignd_converged_runs_total %d\n", m.ConvergedRuns),
		"# TYPE campaignd_instructions_saved_total counter",
		fmt.Sprintf("campaignd_instructions_saved_total %d\n", m.InstructionsSaved),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
