package inject

import (
	"errors"
	"fmt"
	"strings"

	"faultsec/internal/disasm"
	"faultsec/internal/kernel"
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
// transient-window investigation, instruction by instruction).
func TraceRun(app *target.App, sc target.Scenario, ex Experiment,
	fuel uint64, maxEntries int) (*Trace, error) {
	client := sc.New()
	k := kernel.New(client)
	ld, err := app.Image.Load(k, nil)
	if err != nil {
		return nil, fmt.Errorf("inject: trace load: %w", err)
	}
	m := ld.Machine
	if fuel != 0 {
		m.Fuel = fuel
	}
	m.SetBreakpoint(ex.Target.Addr)
	runErr := m.Run()
	var bp *vm.BreakpointHit
	if !errors.As(runErr, &bp) {
		return &Trace{End: runErr}, nil // never activated
	}
	mut := ex.Mutation()
	if err := mut.Apply(m, &ex.Target); err != nil {
		return nil, fmt.Errorf("inject: trace: %w", err)
	}
	m.ClearBreakpoint(ex.Target.Addr)

	tr := &Trace{}
	activationSteps := m.Steps
	for len(tr.Entries) < maxEntries {
		pc := m.EIP
		entry := TraceEntry{Step: m.Steps - activationSteps, Addr: pc}
		if raw, perr := m.Mem.Peek(pc, x86.MaxInstLen); perr == nil {
			if in, derr := x86.Decode(raw); derr == nil {
				entry.Raw = raw[:in.Len]
				entry.Text = disasm.Format(&in, pc)
			} else {
				entry.Raw = raw[:1]
				entry.Text = fmt.Sprintf("(bad %#02x)", raw[0])
			}
		} else {
			entry.Text = "(unmapped)"
		}
		tr.Entries = append(tr.Entries, entry)
		if stepErr := m.Step(); stepErr != nil {
			tr.End = stepErr
			return tr, nil
		}
	}
	tr.Truncated = true
	tr.End = m.Run()
	return tr, nil
}
