package fleet_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"faultsec/internal/fleet"
	"faultsec/internal/target"
)

// TestWorkerRefusesRetiredKnobs: the VM ablation knobs (noUops,
// noSnapshot, and since vm.Tuning left the wire noICache, noDirtyTracking
// and noTraces) and the cache mode (workers run shards cache-free) are
// gone from the shard spec, so a coordinator from an older tree that
// still sends one is refused with 400 naming the key before any stream
// bytes, not silently run on the default path.
func TestWorkerRefusesRetiredKnobs(t *testing.T) {
	app, _ := ftpClient1(t)
	srv := httptest.NewServer(fleet.NewWorkerServer(map[string]*target.App{app.Name: app}, nil))
	defer srv.Close()
	for key, val := range map[string]string{"noUops": "true", "noSnapshot": "true", "noICache": "true",
		"noDirtyTracking": "true", "noTraces": "true", "cacheMode": `"readwrite"`} {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(
			`{"app":"ftpd","scenario":"Client1","scheme":"x86","`+key+`":`+val+`,"total":1,"indices":[0]}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // test
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s spec: status %d, want 400", key, resp.StatusCode)
		}
		if !strings.Contains(string(body), key) {
			t.Errorf("%s spec: 400 body %s does not name the key", key, body)
		}
	}
}
