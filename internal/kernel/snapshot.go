package kernel

import "bytes"

// Snapshot is a checkpoint of one session's kernel state: the connection
// transcript, the pending pipe bytes in both directions, output accounting,
// and the sequence of server lines already delivered to the client. It is
// the OS half of the campaign engine's fast-forward: paired with a
// vm.Snapshot taken at the same instant, it reconstructs the full
// machine+kernel+client state at the injection breakpoint.
//
// The client itself is not stored. Clients are deterministic state machines
// driven solely by server lines (the target.Client contract), so NewKernel
// rebuilds one mid-session by replaying the delivered lines into a fresh
// instance and discarding the replies it regenerates (they are already in
// the transcript and the input pipe).
//
// A Snapshot is immutable after capture and safe for concurrent NewKernel
// calls from multiple goroutines.
type Snapshot struct {
	events      []Event
	maxOutput   int
	inBuf       []byte
	lineBuf     []byte
	clientLines []string
	serverOut   int
	readsAtEOF  int
	exitedEarly bool
}

// Snapshot captures the kernel's session state.
func (k *Kernel) Snapshot() *Snapshot {
	s := &Snapshot{
		// Event headers are copied; the payload slices are shared. That is
		// safe: the kernel appends fresh payloads and never mutates old
		// ones.
		events:      append([]Event(nil), k.Transcript.Events...),
		maxOutput:   k.MaxOutput,
		inBuf:       append([]byte(nil), k.inBuf...),
		lineBuf:     append([]byte(nil), k.lineBuf...),
		clientLines: append([]string(nil), k.clientLines...),
		serverOut:   k.serverOut,
		readsAtEOF:  k.readsAtEOF,
		exitedEarly: k.exitedEarly,
	}
	return s
}

// NewKernel reconstructs a kernel mid-session from the snapshot, driving
// the given fresh client. The client must be a new instance of the same
// scenario the snapshot was taken under; it is fast-forwarded by replaying
// the delivered server lines.
func (s *Snapshot) NewKernel(fresh Client) *Kernel {
	for _, line := range s.clientLines {
		// Replies regenerated during replay are discarded: the originals
		// were already queued into inBuf and the transcript before capture.
		fresh.OnServerLine(line)
	}
	k := &Kernel{
		Transcript:  Transcript{Events: s.events[:len(s.events):len(s.events)]},
		MaxOutput:   s.maxOutput,
		client:      fresh,
		inBuf:       append([]byte(nil), s.inBuf...),
		lineBuf:     append([]byte(nil), s.lineBuf...),
		clientLines: s.clientLines[:len(s.clientLines):len(s.clientLines)],
		serverOut:   s.serverOut,
		readsAtEOF:  s.readsAtEOF,
		exitedEarly: s.exitedEarly,
	}
	return k
}

// Matches reports whether the kernel's session state equals the snapshot's
// exactly: every transcript event, the pending bytes in both directions,
// the delivered client lines, and the output and EOF accounting. The
// client needs no comparison of its own: it is a deterministic state
// machine driven solely by the delivered lines, so two clients of one
// scenario that were fed the same lines are in the same state.
func (k *Kernel) Matches(s *Snapshot) bool {
	if k.MaxOutput != s.maxOutput || k.serverOut != s.serverOut ||
		k.readsAtEOF != s.readsAtEOF || k.exitedEarly != s.exitedEarly ||
		len(k.Transcript.Events) != len(s.events) || len(k.clientLines) != len(s.clientLines) ||
		!bytes.Equal(k.inBuf, s.inBuf) || !bytes.Equal(k.lineBuf, s.lineBuf) {
		return false
	}
	for i, e := range k.Transcript.Events {
		if e.Dir != s.events[i].Dir || !bytes.Equal(e.Data, s.events[i].Data) {
			return false
		}
	}
	for i, l := range k.clientLines {
		if l != s.clientLines[i] {
			return false
		}
	}
	return true
}
