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
// reach the run records. Properties:
//
//   - it never panics;
//   - on success every index lies in [0, Total) and every outcome is one
//     of the five;
//   - a valid journal (it parses, and every line is a well-formed record)
//     cut anywhere after its header line parses to a subset of the uncut
//     journal's results, with equal values — the crash-truncation
//     guarantee Resume relies on.
//
// The seed corpus is the wire-compatibility fixtures and prefixes of them
// cut at arbitrary bytes.
func FuzzReadJournal(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "wirecompat", "*.jsonl"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no journal fixtures: %v", err)
	}
	for _, fx := range fixtures {
		data, err := os.ReadFile(fx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint32(len(data)/2))
		hdr := headerEnd(data)
		for _, cut := range []int{hdr - 1, hdr, hdr + 1, hdr + 57, len(data) / 3, len(data)/2 + 7, len(data) - 1} {
			f.Add(data[:cut], uint32(cut*7))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
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
	})
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
