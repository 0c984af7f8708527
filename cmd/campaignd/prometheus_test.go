package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsPrometheusFormat drives the alternate exposition end to end:
// submit an httpd campaign (exercising the registry-backed lazy build on
// the submit path), then scrape GET /metrics?format=prometheus and check
// the text format — media type, HELP/TYPE annotations, aggregate counters
// consistent with the JSON view, and the per-campaign series labeled with
// the campaign id. Every aggregate family of the exposition table must
// render exactly one sample equal to the JSON value under its key, and
// every numeric JSON aggregate must have a family, so a counter added to
// one rendering only fails here.
func TestMetricsPrometheusFormat(t *testing.T) {
	ts, _ := newTestService(t)
	v := postCampaign(t, ts, `{"app":"httpd","scenario":"Client3"}`)
	waitDone(t, ts, v.ID)

	var m metricsView
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	var raw map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &raw); code != http.StatusOK {
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
	samples := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "campaignd_") {
			t.Errorf("malformed exposition line %q", line)
			continue
		}
		samples[fields[0]] = append(samples[fields[0]], fields[1])
	}

	// One table drives both renderings of the aggregates: each family has
	// exactly one sample, equal to the JSON value (an omitted key is 0).
	covered := make(map[string]bool)
	for _, f := range aggregateFamilies {
		covered[f.key] = true
		var want float64
		if jv, ok := raw[f.key]; ok {
			n, isNum := jv.(float64)
			if !isNum {
				t.Errorf("JSON key %q of family %s is %T, not a number", f.key, f.name, jv)
				continue
			}
			want = n
		}
		got := samples[f.name]
		if len(got) != 1 {
			t.Errorf("family %s has %d unlabeled samples, want 1", f.name, len(got))
			continue
		}
		if n, err := strconv.ParseFloat(got[0], 64); err != nil || n != want {
			t.Errorf("family %s = %s, JSON %q = %v", f.name, got[0], f.key, want)
		}
	}
	for key, jv := range raw {
		if _, isNum := jv.(float64); isNum && !covered[key] {
			t.Errorf("JSON aggregate %q has no Prometheus family", key)
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

// TestMetricsConvergenceCounters checks that the golden-convergence
// counters of an engine regflip campaign and a fleet bitflip campaign reach
// both the JSON aggregates and the Prometheus exposition, and that the
// fleet campaign's VM counters cross the worker boundary into the
// aggregates too.
func TestMetricsConvergenceCounters(t *testing.T) {
	ts, _ := newTestService(t)
	v := postCampaign(t, ts, `{"app":"httpd","scenario":"Client4","faultModel":"regflip"}`)
	waitDone(t, ts, v.ID)
	fv := postCampaign(t, ts, `{"app":"httpd","scenario":"Client1","workers":["loopback","loopback"],"shardRuns":64}`)
	waitDone(t, ts, fv.ID)

	var m metricsView
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	cm, fm := m.Campaigns[v.ID], m.Fleet[fv.ID]
	if fm.ICacheHits == 0 || fm.TraceHits == 0 || fm.DirtyBytesCopied == 0 {
		t.Errorf("fleet campaign VM counters did not cross the worker boundary: %+v", fm.Work)
	}
	sum := cm.Work
	sum.Add(fm.Work)
	if m.Work != sum {
		t.Errorf("aggregate work %+v, want the campaigns' sum %+v", m.Work, sum)
	}
	if cm.ConvergedRuns == 0 || cm.InstructionsSaved == 0 {
		t.Fatalf("regflip campaign converged %d runs saving %d instructions, want both > 0",
			cm.ConvergedRuns, cm.InstructionsSaved)
	}
	if fm.ConvergedRuns == 0 || fm.InstructionsSaved == 0 {
		t.Fatalf("fleet bitflip campaign converged %d runs saving %d instructions, want both > 0",
			fm.ConvergedRuns, fm.InstructionsSaved)
	}
	if m.ConvergedRuns != cm.ConvergedRuns+fm.ConvergedRuns || m.InstructionsSaved != cm.InstructionsSaved+fm.InstructionsSaved {
		t.Errorf("aggregates %d/%d, want the campaigns' sums %d/%d", m.ConvergedRuns, m.InstructionsSaved,
			cm.ConvergedRuns+fm.ConvergedRuns, cm.InstructionsSaved+fm.InstructionsSaved)
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
