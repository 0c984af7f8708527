package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"faultsec/internal/campaign"
	"faultsec/internal/inject"
)

// TestJournalNameParts pins the journal file name of each identity part:
// a default campaign keeps its historical name, and the model, a
// non-default fuel and the watchdog each add a part.
func TestJournalNameParts(t *testing.T) {
	base := campaign.Identity{App: "ftpd", Scenario: "Client2", Scheme: "x86", Model: "bitflip", Fuel: inject.DefaultFuel}
	for _, c := range []struct {
		edit func(*campaign.Identity)
		want string
	}{
		{func(*campaign.Identity) {}, "ftpd-Client2-x86.jsonl"},
		{func(id *campaign.Identity) { id.Model = "instskip" }, "ftpd-Client2-x86-instskip.jsonl"},
		{func(id *campaign.Identity) { id.Fuel = 1_000_000 }, "ftpd-Client2-x86-fuel1000000.jsonl"},
		{func(id *campaign.Identity) { id.Watchdog = true }, "ftpd-Client2-x86-watchdog.jsonl"},
		{func(id *campaign.Identity) { id.Scheme, id.Model, id.Fuel, id.Watchdog = "parity", "regflip", 5, true },
			"ftpd-Client2-parity-regflip-fuel5-watchdog.jsonl"},
	} {
		id := base
		c.edit(&id)
		if got := journalName(id); got != c.want {
			t.Errorf("journalName(%v) = %s, want %s", id, got, c.want)
		}
	}
}

// TestJournalNameCarriesIdentity: two journaled submits that differ only
// in the watchdog journal to different files. The second starts fresh
// instead of resuming (and truncating) the first's journal, which keeps
// its header and runs, so resubmitting the first campaign resumes it
// fully.
func TestJournalNameCarriesIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("three full campaigns are not short")
	}
	dir := t.TempDir()
	ts, _ := newTestServiceIn(t, dir)
	plain := `{"app":"ftpd","scenario":"Client2","journal":true}`
	first := postCampaign(t, ts, plain)
	if got := waitDone(t, ts, first.ID); got.State != stateDone {
		t.Fatalf("first campaign ended %q: %s", got.State, got.Error)
	}
	path := filepath.Join(dir, "ftpd-Client2-x86.jsonl")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	watched := postCampaign(t, ts, `{"app":"ftpd","scenario":"Client2","journal":true,"watchdog":true}`)
	if watched.Resumed {
		t.Error("the watchdog campaign resumed the plain campaign's journal")
	}
	if got := waitDone(t, ts, watched.ID); got.State != stateDone {
		t.Fatalf("watchdog campaign ended %q: %s", got.State, got.Error)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("the watchdog campaign rewrote the plain campaign's journal (%d bytes, was %d)", len(after), len(before))
	}

	again := postCampaign(t, ts, plain)
	if !again.Resumed {
		t.Fatal("resubmitting the plain campaign did not resume its journal")
	}
	final := waitDone(t, ts, again.ID)
	if final.State != stateDone {
		t.Fatalf("resumed campaign ended %q: %s", final.State, final.Error)
	}
	var m metricsView
	getJSON(t, ts.URL+"/metrics", &m)
	if em := m.Campaigns[again.ID]; em.JournalAdopted != int64(final.Final.Total) || em.RunsTotal != 0 {
		t.Errorf("resume adopted %d and re-ran %d of %d runs", em.JournalAdopted, em.RunsTotal, final.Final.Total)
	}
}
