package main

import (
	"bytes"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/faultmodel"
	"faultsec/internal/target"
)

// FuzzSubmitDecode feeds arbitrary POST /campaigns bodies to decodeSubmit.
// Every body must either be refused with an error or decode to a request
// whose names are normalized and a config the engine accepts: its app,
// scenario, scheme and fault model resolve, its identity resolves back to
// itself, and its experiments enumerate. Nothing may panic. The seed
// corpus is under testdata/fuzz.
func FuzzSubmitDecode(f *testing.F) {
	for _, body := range []string{
		`{"app":"ftpd","scenario":"Client1"}`,
		`{"app":"sshd","scenario":"Client2","scheme":"parity","faultModel":"regflip","parallelism":1}`,
		`{"app":"httpd","scenario":"Client3","scheme":"encbranch","cacheMode":"readwrite","journal":true}`,
		`{"app":"ftpd","scenario":"Client1","workers":["loopback"],"shardRuns":64,"noTraces":true}`,
		`{"app":"ftpd","scenario":"Client9"}`,
		`{"app":"ftpd","scenario":"Client1","bogus":1}`,
		`{"app":"ftpd","scenario":"Client1","shardRuns":-1}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, cfg, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		if cfg.App == nil || cfg.Scenario.New == nil {
			t.Fatalf("accepted %q without an app or scenario", body)
		}
		if req.Scheme != cfg.Scheme.Name() || req.FaultModel != cfg.Model || faultmodel.Canonical(cfg.Model) != cfg.Model {
			t.Fatalf("accepted %q with unnormalized names: request %+v", body, req)
		}
		id := cfg.Identity()
		if again, err := id.Resolve(target.Build); err != nil || again.Identity() != id {
			t.Fatalf("accepted %q, but its identity %v does not resolve back to itself: %v", body, id, err)
		}
		if _, err := campaign.EnumerateConfig(&cfg); err != nil {
			t.Fatalf("accepted %q, but the engine cannot enumerate it: %v", body, err)
		}
	})
}
