package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestServiceCacheWarmResubmit drives the incremental-campaign loop the
// way an operator would: submit a cached campaign, let it finish, submit
// the identical campaign again, and watch the rerun adopt everything from
// the daemon's content-addressed store — with identical final counts and
// the hit counters surfaced in GET /metrics.
func TestServiceCacheWarmResubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns are not short")
	}
	ts, _ := newTestServiceIn(t, t.TempDir())
	body := `{"app":"ftpd","scenario":"Client1","scheme":"x86","cacheMode":"readwrite"}`

	cold := postCampaign(t, ts, body)
	if got := waitDone(t, ts, cold.ID); got.State != "done" {
		t.Fatalf("cold campaign: state %s, error %q", got.State, got.Error)
	}
	warm := postCampaign(t, ts, body)
	wv := waitDone(t, ts, warm.ID)
	if wv.State != "done" {
		t.Fatalf("warm campaign: state %s, error %q", wv.State, wv.Error)
	}

	var coldDone, warmDone campaignView
	getJSON(t, ts.URL+"/campaigns/"+cold.ID, &coldDone)
	getJSON(t, ts.URL+"/campaigns/"+warm.ID, &warmDone)
	if !reflect.DeepEqual(coldDone.Progress.Counts, warmDone.Progress.Counts) {
		t.Errorf("warm resubmit counts %v differ from cold %v",
			warmDone.Progress.Counts, coldDone.Progress.Counts)
	}

	var m struct {
		CacheHits   int64 `json:"cacheHits"`
		CacheWrites int64 `json:"cacheWrites"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if m.CacheHits == 0 {
		t.Error("GET /metrics reports no cache hits after a warm resubmit")
	}
	if m.CacheWrites == 0 {
		t.Error("GET /metrics reports no cache writes after a cold cached run")
	}
}

// TestServiceFleetCacheSingleWriter: in a fleet campaign the coordinator
// is the result store's only writer. A cold readwrite submit over a
// loopback worker reports as many fleet cache writes as the daemon's
// store holds entries: no worker wrote one that the coordinator then
// found already there.
func TestServiceFleetCacheSingleWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is not short")
	}
	ts, srv := newTestServiceIn(t, t.TempDir())
	v := postCampaign(t, ts,
		`{"app":"ftpd","scenario":"Client1","cacheMode":"readwrite","workers":["loopback"]}`)
	if got := waitDone(t, ts, v.ID); got.State != stateDone {
		t.Fatalf("fleet campaign ended %q: %s", got.State, got.Error)
	}
	var m metricsView
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	keys, err := srv.cache.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if fm := m.Fleet[v.ID]; fm.CacheWrites == 0 || fm.CacheWrites != int64(len(keys)) {
		t.Errorf("fleet reports %d cache writes; the store holds %d entries", fm.CacheWrites, len(keys))
	}
}

// TestServiceCacheModeValidation pins the two submit-time refusals: an
// unknown cacheMode, and any cache mode on a daemon running without a
// journal directory (there is nowhere to put the store).
func TestServiceCacheModeValidation(t *testing.T) {
	ts, _ := newTestServiceIn(t, t.TempDir())
	if code := postStatus(t, ts,
		`{"app":"ftpd","scenario":"Client1","scheme":"x86","cacheMode":"write"}`); code != http.StatusBadRequest {
		t.Errorf("unknown cacheMode: status %d, want 400", code)
	}
	// Valid mode on a journal-backed daemon is accepted.
	v := postCampaign(t, ts, `{"app":"ftpd","scenario":"Client1","scheme":"x86","cacheMode":"read"}`)
	if got := waitDone(t, ts, v.ID); got.State != "done" {
		t.Fatalf("read-mode campaign: state %s, error %q", got.State, got.Error)
	}

	srv, err := newServer("")
	if err != nil {
		t.Fatalf("newServer without journals: %v", err)
	}
	bare := httptest.NewServer(srv)
	defer bare.Close()
	if code := postStatus(t, bare,
		`{"app":"ftpd","scenario":"Client1","scheme":"x86","cacheMode":"readwrite"}`); code != http.StatusBadRequest {
		t.Errorf("cacheMode without -journals: status %d, want 400", code)
	}
}
