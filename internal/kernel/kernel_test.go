package kernel_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"faultsec/internal/kernel"
	"faultsec/internal/vm"
	"faultsec/internal/x86"
)

// echoClient replies "pong" to "ping" and records everything.
type echoClient struct {
	seen []string
	done bool
}

func (c *echoClient) OnServerLine(line string) []string {
	c.seen = append(c.seen, line)
	if line == "ping" {
		return []string{"pong"}
	}
	return nil
}

func (c *echoClient) Done() bool { return c.done }

// machine builds a machine with a data buffer the tests can use; EIP points
// at an int 0x80.
func machine(t *testing.T, k vm.SyscallHandler) *vm.Machine {
	t.Helper()
	mem := vm.NewMemory()
	if err := mem.Map(&vm.Region{Name: "text", Base: 0x1000,
		Perm: vm.PermRead | vm.PermExec, Data: []byte{0xCD, 0x80, 0x90}}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Map(&vm.Region{Name: "data", Base: 0x8000,
		Perm: vm.PermRead | vm.PermWrite, Data: make([]byte, 256)}); err != nil {
		t.Fatal(err)
	}
	m := vm.New(mem, k)
	m.EIP = 0x1000
	return m
}

// trap triggers one int 0x80 with the given registers.
func trap(t *testing.T, m *vm.Machine, nr, ebx, ecx, edx uint32) error {
	t.Helper()
	m.EIP = 0x1000
	m.Regs[x86.EAX] = nr
	m.Regs[x86.EBX] = ebx
	m.Regs[x86.ECX] = ecx
	m.Regs[x86.EDX] = edx
	return m.Step()
}

func TestWriteDeliversLinesToClient(t *testing.T) {
	client := &echoClient{}
	k := kernel.New(client)
	m := machine(t, k)
	msg := "ping\r\nsecond"
	if err := m.Mem.Poke(0x8000, []byte(msg)); err != nil {
		t.Fatal(err)
	}
	if err := trap(t, m, kernel.SysWrite, 1, 0x8000, uint32(len(msg))); err != nil {
		t.Fatal(err)
	}
	if len(client.seen) != 1 || client.seen[0] != "ping" {
		t.Errorf("client saw %q (partial line must be held back)", client.seen)
	}
	// Completing the partial line delivers it.
	if err := m.Mem.Poke(0x8000, []byte(" half\n")); err != nil {
		t.Fatal(err)
	}
	if err := trap(t, m, kernel.SysWrite, 1, 0x8000, 6); err != nil {
		t.Fatal(err)
	}
	if len(client.seen) != 2 || client.seen[1] != "second half" {
		t.Errorf("client saw %q", client.seen)
	}
}

func TestReadReturnsClientReply(t *testing.T) {
	client := &echoClient{}
	k := kernel.New(client)
	m := machine(t, k)
	if err := m.Mem.Poke(0x8000, []byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	if err := trap(t, m, kernel.SysWrite, 1, 0x8000, 5); err != nil {
		t.Fatal(err)
	}
	if err := trap(t, m, kernel.SysRead, 0, 0x8000, 64); err != nil {
		t.Fatal(err)
	}
	n := m.Regs[x86.EAX]
	if n != 6 { // "pong\r\n"
		t.Fatalf("read returned %d", int32(n))
	}
	got, _ := m.Mem.Peek(0x8000, int(n))
	if string(got) != "pong\r\n" {
		t.Errorf("read data = %q", got)
	}
}

func TestReadHangWhenNothingPending(t *testing.T) {
	client := &echoClient{}
	k := kernel.New(client)
	m := machine(t, k)
	err := trap(t, m, kernel.SysRead, 0, 0x8000, 64)
	var hang *kernel.HangError
	if !errors.As(err, &hang) {
		t.Errorf("read = %v, want hang", err)
	}
}

func TestReadEOFWhenClientDone(t *testing.T) {
	client := &echoClient{done: true}
	k := kernel.New(client)
	m := machine(t, k)
	if err := trap(t, m, kernel.SysRead, 0, 0x8000, 64); err != nil {
		t.Fatal(err)
	}
	if m.Regs[x86.EAX] != 0 {
		t.Errorf("read at EOF = %d, want 0", int32(m.Regs[x86.EAX]))
	}
}

func TestBadFDAndEFAULT(t *testing.T) {
	client := &echoClient{}
	k := kernel.New(client)
	m := machine(t, k)
	if err := trap(t, m, kernel.SysRead, 3, 0x8000, 8); err != nil {
		t.Fatal(err)
	}
	if int32(m.Regs[x86.EAX]) != -9 { // EBADF
		t.Errorf("read bad fd = %d, want -9", int32(m.Regs[x86.EAX]))
	}
	// Write from unmapped memory: -EFAULT.
	if err := trap(t, m, kernel.SysWrite, 1, 0xDEAD0000, 8); err != nil {
		t.Fatal(err)
	}
	if int32(m.Regs[x86.EAX]) != -14 { // EFAULT
		t.Errorf("write from bad buf = %d, want -14", int32(m.Regs[x86.EAX]))
	}
}

func TestUnknownSyscallENOSYS(t *testing.T) {
	k := kernel.New(&echoClient{})
	m := machine(t, k)
	if err := trap(t, m, 9999, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if int32(m.Regs[x86.EAX]) != -38 { // ENOSYS
		t.Errorf("unknown syscall = %d, want -38", int32(m.Regs[x86.EAX]))
	}
}

func TestExitSyscall(t *testing.T) {
	k := kernel.New(&echoClient{})
	m := machine(t, k)
	err := trap(t, m, kernel.SysExit, 3, 0, 0)
	var exit *vm.ExitStatus
	if !errors.As(err, &exit) || exit.Code != 3 {
		t.Errorf("exit = %v", err)
	}
}

func TestOutputFlood(t *testing.T) {
	k := kernel.New(&echoClient{})
	k.MaxOutput = 100
	m := machine(t, k)
	if err := m.Mem.Poke(0x8000, []byte(strings.Repeat("x", 64))); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = trap(t, m, kernel.SysWrite, 1, 0x8000, 64)
	}
	var flood *kernel.FloodError
	if !errors.As(err, &flood) {
		t.Errorf("sustained writes = %v, want flood", err)
	}
}

func TestTranscriptViews(t *testing.T) {
	tr := kernel.Transcript{Events: []kernel.Event{
		{Dir: kernel.DirServerToClient, Data: []byte("220 hello\r\n")},
		{Dir: kernel.DirClientToServer, Data: []byte("USER x\r\n")},
		{Dir: kernel.DirServerToClient, Data: []byte("331 ")},
		{Dir: kernel.DirServerToClient, Data: []byte("pass?\r\n")},
	}}
	if got := string(tr.ServerBytes()); got != "220 hello\r\n331 pass?\r\n" {
		t.Errorf("ServerBytes = %q", got)
	}
	if got := string(tr.ClientBytes()); got != "USER x\r\n" {
		t.Errorf("ClientBytes = %q", got)
	}
	lines := tr.ServerLines()
	if len(lines) != 2 || lines[0] != "220 hello" || lines[1] != "331 pass?" {
		t.Errorf("ServerLines = %q", lines)
	}
	rendered := tr.String()
	want := "S> 220 hello\nC> USER x\nS> 331 pass?\n"
	if rendered != want {
		t.Errorf("String() = %q, want %q", rendered, want)
	}
}

func TestStreamKernel(t *testing.T) {
	var in, out strings.Builder
	in.WriteString("hello server\n")
	rw := struct {
		*strings.Reader
		*strings.Builder
	}{strings.NewReader(in.String()), &out}
	k := kernel.NewStream(rw)
	m := machine(t, k)

	// Write a greeting.
	if err := m.Mem.Poke(0x8000, []byte("hi\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := trap(t, m, kernel.SysWrite, 1, 0x8000, 4); err != nil {
		t.Fatal(err)
	}
	if out.String() != "hi\r\n" {
		t.Errorf("stream out = %q", out.String())
	}
	// Read the client's bytes.
	if err := trap(t, m, kernel.SysRead, 0, 0x8000, 64); err != nil {
		t.Fatal(err)
	}
	n := m.Regs[x86.EAX]
	got, _ := m.Mem.Peek(0x8000, int(n))
	if string(got) != "hello server\n" {
		t.Errorf("stream read = %q", got)
	}
	// EOF afterwards.
	if err := trap(t, m, kernel.SysRead, 0, 0x8000, 64); err != nil {
		t.Fatal(err)
	}
	if m.Regs[x86.EAX] != 0 {
		t.Errorf("read at stream EOF = %d", int32(m.Regs[x86.EAX]))
	}
}

// TestSyscallReadsOnlyEAXToEDX pins what register liveness assumes of the
// kernel: a syscall's outcome — its error, EAX-EDX, memory, the transcript
// and the client's view — depends on no register but EAX-EDX, and it
// leaves ESP, EBP, ESI and EDI alone.
func TestSyscallReadsOnlyEAXToEDX(t *testing.T) {
	type call struct {
		name              string
		nr, ebx, ecx, edx uint32
	}
	script := []call{
		{"write", kernel.SysWrite, 1, 0x8000, 5},
		{"read", kernel.SysRead, 0, 0x8010, 64},
		{"write bad fd", kernel.SysWrite, 7, 0x8000, 5},
		{"read EFAULT", kernel.SysRead, 0, 0xDEAD0000, 64},
		{"time", kernel.SysTime, 0x8040, 0, 0},
		{"getpid", kernel.SysGetPID, 0, 0, 0},
		{"unknown", 9999, 1, 2, 3},
		{"exit", kernel.SysExit, 3, 0, 0},
	}
	type outcome struct {
		errs   []string
		regs   [][x86.NumRegs]uint32
		mem    []byte
		server string
		seen   []string
	}
	run := func(high [4]uint32) outcome {
		client := &echoClient{}
		k := kernel.New(client)
		m := machine(t, k)
		if err := m.Mem.Poke(0x8000, []byte("ping\n")); err != nil {
			t.Fatal(err)
		}
		var o outcome
		for _, c := range script {
			m.Regs[x86.ESP], m.Regs[x86.EBP], m.Regs[x86.ESI], m.Regs[x86.EDI] = high[0], high[1], high[2], high[3]
			err := trap(t, m, c.nr, c.ebx, c.ecx, c.edx)
			o.errs = append(o.errs, fmt.Sprint(err))
			o.regs = append(o.regs, m.Regs)
			if got := [4]uint32{m.Regs[x86.ESP], m.Regs[x86.EBP], m.Regs[x86.ESI], m.Regs[x86.EDI]}; got != high {
				t.Errorf("%s changed ESP/EBP/ESI/EDI %x to %x", c.name, high, got)
			}
		}
		o.mem, _ = m.Mem.Peek(0x8000, 256)
		o.server = string(k.Transcript.ServerBytes())
		o.seen = client.seen
		return o
	}
	a := run([4]uint32{0x8080, 0x8090, 0, 0})
	b := run([4]uint32{0x80F1, 0xFFFFFFFF, 0x8001, 0xDEADBEEF})
	for i := range script {
		a.regs[i][x86.ESP], a.regs[i][x86.EBP], a.regs[i][x86.ESI], a.regs[i][x86.EDI] = 0, 0, 0, 0
		b.regs[i][x86.ESP], b.regs[i][x86.EBP], b.regs[i][x86.ESI], b.regs[i][x86.EDI] = 0, 0, 0, 0
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("syscall outcomes depend on ESP/EBP/ESI/EDI:\n%+v\n%+v", a, b)
	}
}
