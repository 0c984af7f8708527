package inject

import (
	"fmt"
	"strings"

	"faultsec/internal/disasm"
	"faultsec/internal/target"
	"faultsec/internal/vm"
	"faultsec/internal/x86"
)

// TraceEntry is one traced instruction after error activation.
type TraceEntry struct {
	// Step is the retired-instruction index relative to activation.
	Step uint64
	// Addr is the instruction address.
	Addr uint32
	// Text is the disassembly (or a note for undecodable bytes).
	Text string
	// Raw is the instruction encoding as executed (post-corruption).
	Raw []byte
}

// Trace is the recorded tail of an injected run.
type Trace struct {
	Entries []TraceEntry
	// Truncated reports that the run continued past the entry budget.
	Truncated bool
	// End is the run-terminating condition.
	End error
}

// String renders the trace as a listing.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.Entries {
		fmt.Fprintf(&b, "%6d  %#08x  % -22x %s\n", e.Step, e.Addr, e.Raw, e.Text)
	}
	if t.Truncated {
		b.WriteString("        ... (trace budget exhausted; run continued)\n")
	}
	fmt.Fprintf(&b, "end: %v\n", t.End)
	return b.String()
}

// TraceRun executes one experiment and records up to maxEntries decoded
// instructions after error activation — a window into exactly what the
// corrupted server does between activation and its fate (the paper's
// transient-window investigation, instruction by instruction). Fuel 0
// means DefaultFuel.
func TraceRun(app *target.App, sc target.Scenario, ex Experiment,
	fuel uint64, maxEntries int) (*Trace, error) {
	s, err := Activate(app, sc, ex.Target.Addr, fuel, nil)
	if err != nil {
		return nil, fmt.Errorf("inject: trace: %w", err)
	}
	tr := &Trace{}
	mut := ex.Mutation()
	run, _, err := Execute(s, &ex.Target, &mut, tr.Recorder(s.ActivationSteps, maxEntries))
	if err != nil {
		return nil, fmt.Errorf("inject: trace: %w", err)
	}
	tr.End = run.Err
	return tr, nil
}

// Recorder returns an Execute observer that appends one entry per
// instruction to t, numbering steps from activationSteps, until t holds
// maxEntries entries; it then marks t truncated and declines. Each entry
// decodes the bytes as they are when the instruction runs, so a corrupted
// instruction shows as executed.
func (t *Trace) Recorder(activationSteps uint64, maxEntries int) Observer {
	return func(m *vm.Machine) bool {
		if len(t.Entries) >= maxEntries {
			t.Truncated = true
			return false
		}
		pc := m.EIP
		entry := TraceEntry{Step: m.Steps - activationSteps, Addr: pc, Text: "(unmapped)"}
		if r := m.Mem.Find(pc); r != nil {
			// Near the end of its region an instruction has fewer than
			// MaxInstLen bytes behind it. The clamped span lies inside r,
			// so Peek cannot fail.
			raw, _ := m.Mem.Peek(pc, min(x86.MaxInstLen, int(r.End()-pc)))
			if in, derr := x86.Decode(raw); derr == nil {
				entry.Raw = raw[:in.Len]
				entry.Text = disasm.Format(&in, pc)
			} else {
				entry.Raw = raw[:1]
				entry.Text = fmt.Sprintf("(bad %#02x)", raw[0])
			}
		}
		t.Entries = append(t.Entries, entry)
		return true
	}
}
