package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"faultsec/internal/classify"
)

// FuzzReadJournal feeds arbitrary bytes to the journal reader, with the
// identity taken from the input's own first line so mutated headers still
// reach the run records. The properties are checkJournalCut's. The seed
// corpus is each wire-compatibility fixture's header and first few
// records, and cuts of them: small seeds keep every execution cheap.
// TestReadJournalCutFixtures checks the whole fixtures.
func FuzzReadJournal(f *testing.F) {
	for _, data := range journalFixtures(f) {
		hdr := headerEnd(data)
		head := data[:hdr]
		for i := 0; i < 6 && len(head) < len(data); i++ {
			head = data[:len(head)+headerEnd(data[len(head):])]
		}
		f.Add(head, uint32(len(head)/2))
		for _, cut := range []int{hdr - 1, hdr, hdr + 1, hdr + 57, len(head) / 3, len(head)/2 + 7, len(head) - 1} {
			if cut < len(head) {
				f.Add(head[:cut], uint32(cut*7))
			}
		}
	}
	f.Fuzz(checkJournalCut)
}

// TestReadJournalCutFixtures checks the whole wire-compatibility fixtures,
// uncut and cut at fixed offsets, against checkJournalCut's properties.
func TestReadJournalCutFixtures(t *testing.T) {
	for _, data := range journalFixtures(t) {
		checkJournalCut(t, data, uint32(len(data)/2))
		hdr := headerEnd(data)
		for _, cut := range []int{hdr - 1, hdr, hdr + 1, hdr + 57, len(data) / 3, len(data)/2 + 7, len(data) - 1} {
			checkJournalCut(t, data[:cut], uint32(cut*7))
		}
	}
}

// journalFixtures reads the wire-compatibility journal fixtures.
func journalFixtures(tb testing.TB) [][]byte {
	tb.Helper()
	fixtures, err := filepath.Glob(filepath.Join("testdata", "wirecompat", "*.jsonl"))
	if err != nil || len(fixtures) == 0 {
		tb.Fatalf("no journal fixtures: %v", err)
	}
	var out [][]byte
	for _, fx := range fixtures {
		data, err := os.ReadFile(fx)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// checkJournalCut parses data as a journal and checks:
//
//   - the reader never panics;
//   - on success every index lies in [0, Total) and every outcome is one
//     of the five;
//   - a valid journal (it parses, and every line is a well-formed record)
//     cut anywhere after its header line parses to a subset of the uncut
//     journal's results, with equal values — the crash-truncation
//     guarantee Resume relies on. cut picks the cut offset.
func checkJournalCut(t *testing.T, data []byte, cut uint32) {
	t.Helper()
	var want journalRecord
	if err := json.Unmarshal(data[:headerEnd(data)], &want); err != nil {
		want = journalRecord{Type: recordHeader, App: "ftpd", Scenario: "Client1", Scheme: 1, Total: 992, Fuel: 400000}
	}
	full, err := parseJournal(bytes.NewReader(data), "fuzz", want)
	if err != nil {
		return
	}
	for idx, wr := range full {
		if idx < 0 || idx >= want.Total {
			t.Fatalf("index %d outside [0, %d)", idx, want.Total)
		}
		if wr == nil || wr.Outcome < classify.OutcomeNA || wr.Outcome > classify.OutcomeBRK {
			t.Fatalf("index %d: result %+v has no valid outcome", idx, wr)
		}
	}
	if !wellFormed(data) {
		return
	}
	hdr := headerEnd(data)
	c := hdr + int(cut%uint32(len(data)-hdr+1))
	part, err := parseJournal(bytes.NewReader(data[:c]), "fuzz", want)
	if err != nil {
		t.Fatalf("journal cut at byte %d of %d: %v", c, len(data), err)
	}
	for idx, wr := range part {
		if !reflect.DeepEqual(wr, full[idx]) {
			t.Fatalf("journal cut at byte %d: index %d reads %+v, uncut %+v", c, idx, wr, full[idx])
		}
	}
}

// headerEnd is the length of data's first line, newline included.
func headerEnd(data []byte) int {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1
	}
	return len(data)
}

// wellFormed reports whether every line of data is a JSON journal record,
// as the writer produces them (a trailing newline ends the last line).
func wellFormed(data []byte) bool {
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			return false
		}
	}
	return true
}
