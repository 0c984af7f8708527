package fleet_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"faultsec/internal/fleet"
	"faultsec/internal/target"
	"faultsec/internal/vm"
)

// TestShardSpecTuningWireForm pins the shard spec's knob keys: the
// embedded vm.Tuning flattens to the very bytes the spec carried when each
// knob was its own field, and a zero Tuning emits no knob key at all.
func TestShardSpecTuningWireForm(t *testing.T) {
	const head = `{"app":"ftpd","scenario":"Client1","scheme":"x86",`
	const tail = `"total":992,"shard":3,"indices":[0,1]}`
	cases := []struct {
		name   string
		tuning vm.Tuning
		want   string
	}{
		{"zero", vm.Tuning{}, head + tail},
		{"noICache", vm.Tuning{NoICache: true}, head + `"noICache":true,` + tail},
		{"noDirtyTracking", vm.Tuning{NoDirtyTracking: true}, head + `"noDirtyTracking":true,` + tail},
		{"noTraces", vm.Tuning{NoTraces: true}, head + `"noTraces":true,` + tail},
		{"all", vm.Tuning{NoICache: true, NoDirtyTracking: true, NoTraces: true},
			head + `"noICache":true,"noDirtyTracking":true,"noTraces":true,` + tail},
	}
	for _, c := range cases {
		spec := fleet.ShardSpec{
			App: "ftpd", Scenario: "Client1", Scheme: "x86", Tuning: c.tuning,
			Total: 992, Shard: 3, Indices: []int{0, 1},
		}
		got, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s: spec marshals to\n%s\nwant\n%s", c.name, got, c.want)
		}
		var back fleet.ShardSpec
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back.Tuning != c.tuning {
			t.Errorf("%s: round trip gave %+v, want %+v", c.name, back.Tuning, c.tuning)
		}
	}
}

// TestWorkerRefusesRetiredKnobs: the noUops and noSnapshot keys are gone
// from the shard spec, so a coordinator from an older tree that still
// sends them is refused with 400 before any stream bytes, not silently
// run on the default path.
func TestWorkerRefusesRetiredKnobs(t *testing.T) {
	app, _ := ftpClient1(t)
	srv := httptest.NewServer(fleet.NewWorkerServer(map[string]*target.App{app.Name: app}, nil))
	defer srv.Close()
	for _, key := range []string{"noUops", "noSnapshot"} {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(
			`{"app":"ftpd","scenario":"Client1","scheme":"x86","`+key+`":true,"total":1,"indices":[0]}`))
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
