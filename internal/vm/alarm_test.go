package vm

import (
	"errors"
	"testing"
)

// runAlarm arms the alarm at steps and runs m, requiring it to stop there
// with an *AlarmHit.
func runAlarm(t *testing.T, m *Machine, steps uint64) *AlarmHit {
	t.Helper()
	m.SetAlarm(steps)
	err := m.Run()
	var hit *AlarmHit
	if !errors.As(err, &hit) {
		t.Fatalf("alarm at %d: run ended with %v, want an alarm", steps, err)
	}
	if hit.Steps != m.Steps {
		t.Fatalf("alarm reports step %d, machine is at %d", hit.Steps, m.Steps)
	}
	return hit
}

// TestAlarmStopsInsideTrace arms the alarm at every step of the counter
// program, whose loop body runs as fused traces. Each run must stop at
// exactly the alarm's step in the state single-stepping reaches there,
// and, continued, end exactly like a run with no alarm.
func TestAlarmStopsInsideTrace(t *testing.T) {
	plain := buildCounter(t)
	runToExit(t, plain)
	var traced bool
	for at := uint64(1); at < plain.Steps; at++ {
		m := buildCounter(t)
		runAlarm(t, m, at)
		if m.Steps != at {
			t.Fatalf("alarm at %d stopped at step %d", at, m.Steps)
		}
		traced = traced || m.TraceHits > 0
		ref := buildCounter(t)
		ref.NoTraces = true
		for ref.Steps < at {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if msg := endDiff(m, ref, nil, nil); msg != "" {
			t.Fatalf("alarm at %d: %s", at, msg)
		}
		err := m.Run()
		if msg := endDiff(m, plain, err, &ExitStatus{}); msg != "" {
			t.Fatalf("alarm at %d, continued: %s", at, msg)
		}
	}
	if !traced {
		t.Fatal("no run entered a fused trace before its alarm")
	}
}

// repStosb stores ECX bytes of AL at EDI and exits; the rep op is the
// fourth instruction and retires steps 4 to 12.
var repStosb = []byte{
	0xb9, 0x08, 0x00, 0x00, 0x00, // mov ecx, 8
	0xbf, 0x00, 0x20, 0x00, 0x00, // mov edi, 0x2000
	0xb0, 0x41, // mov al, 0x41
	0xf3, 0xaa, // rep stosb
	0xb8, 0x01, 0x00, 0x00, 0x00, // mov eax, 1
	0x31, 0xdb, // xor ebx, ebx
	0xcd, 0x80, // int 0x80
}

// TestAlarmAfterRepString arms the alarm inside a rep string op's
// iterations: the run stops at the boundary after the op, not in it, and
// continued ends like a plain run.
func TestAlarmAfterRepString(t *testing.T) {
	plain := codeMachine(t, repStosb)
	runToExit(t, plain)
	for _, at := range []uint64{4, 6, 12} {
		m := codeMachine(t, repStosb)
		runAlarm(t, m, at)
		if m.Steps != 12 || m.EIP != 0x100e {
			t.Errorf("alarm at %d stopped at step %d, eip %#x; want 12, 0x100e", at, m.Steps, m.EIP)
		}
		err := m.Run()
		if msg := endDiff(m, plain, err, &ExitStatus{}); msg != "" {
			t.Errorf("alarm at %d, continued: %s", at, msg)
		}
	}
}

// TestRestoreDisarmsAlarm checks that the alarm is not part of the state
// Restore rewinds to: a restored machine runs to its end.
func TestRestoreDisarmsAlarm(t *testing.T) {
	m := buildCounter(t)
	snap := m.Snapshot()
	m.SetAlarm(5)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	runToExit(t, m)
}

// TestAlarmKeepsFuelExact runs a one-instruction loop, a fused trace,
// with fuel 20 and the alarm before, at and past the fuel: OutOfFuel
// still fires at step 20, after the alarm when it comes first.
func TestAlarmKeepsFuelExact(t *testing.T) {
	for _, at := range []uint64{7, 20, 30} {
		m := codeMachine(t, []byte{0xeb, 0xfe}) // jmp $
		m.Fuel = 20
		if at < 20 {
			runAlarm(t, m, at)
			if m.Steps != at {
				t.Fatalf("alarm at %d stopped at step %d", at, m.Steps)
			}
		} else {
			m.SetAlarm(at)
		}
		err := m.Run()
		var oof *OutOfFuel
		if !errors.As(err, &oof) || oof.Steps != 20 || m.Steps != 20 {
			t.Errorf("alarm at %d: run ended with %v at step %d, want out of fuel at 20", at, err, m.Steps)
		}
	}
}
