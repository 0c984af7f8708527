// Command ftpsim runs the study's miniature wu-ftpd. By default it plays
// one of the paper's scripted client patterns against the server and
// prints the transcript; with -listen it serves real TCP connections
// (one at a time, inetd-style), so you can log in with any FTP-speaking
// client or netcat.
//
// Usage:
//
//	ftpsim -scenario Client2            # scripted session + transcript
//	ftpsim -corrupt pass:13:0:0         # single-bit corrupted server
//	ftpsim -listen :2121                # serve real TCP clients
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"

	"faultsec/internal/encoding"
	"faultsec/internal/ftpd"
	"faultsec/internal/inject"
	"faultsec/internal/kernel"
	"faultsec/internal/target"
	"faultsec/internal/vm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftpsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario = flag.String("scenario", "Client1", "scripted client pattern (Client1..Client4)")
		listen   = flag.String("listen", "", "serve real TCP connections on this address instead")
		corrupt  = flag.String("corrupt", "", "apply a persistent single-bit corruption: func:index:byte:bit")
	)
	flag.Parse()

	app, err := ftpd.Build()
	if err != nil {
		return err
	}
	text, err := corruptedText(app, *corrupt)
	if err != nil {
		return err
	}
	if *listen != "" {
		return serveTCP(app, text, *listen)
	}

	sc, ok := app.Scenario(*scenario)
	if !ok {
		return fmt.Errorf("no scenario %q", *scenario)
	}
	client := sc.New()
	k := kernel.New(client)
	ld, err := app.Image.Load(k, text)
	if err != nil {
		return err
	}
	runErr := ld.Machine.Run()
	fmt.Print(k.Transcript.String())
	fmt.Printf("granted=%v, termination: %v, %d instructions\n",
		client.Granted(), runErr, ld.Machine.Steps)
	var exit *vm.ExitStatus
	if !errors.As(runErr, &exit) {
		return nil // abnormal end already reported
	}
	return nil
}

// corruptedText parses "func:index:byte:bit" and returns a corrupted copy
// of the text segment (nil when spec is empty).
func corruptedText(app *target.App, spec string) ([]byte, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("corrupt spec %q: want func:index:byte:bit", spec)
	}
	idx, err1 := strconv.Atoi(parts[1])
	byteIdx, err2 := strconv.Atoi(parts[2])
	bit, err3 := strconv.Atoi(parts[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("corrupt spec %q: bad numbers", spec)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		return nil, err
	}
	var inFunc []inject.Target
	for _, t := range targets {
		if t.Func == parts[0] {
			inFunc = append(inFunc, t)
		}
	}
	if idx < 0 || idx >= len(inFunc) {
		return nil, fmt.Errorf("corrupt spec: index %d out of range (%d targets in %s)",
			idx, len(inFunc), parts[0])
	}
	tgt := inFunc[idx]
	if byteIdx < 0 || byteIdx >= len(tgt.Raw) || bit < 0 || bit > 7 {
		return nil, fmt.Errorf("corrupt spec: byte %d bit %d outside the %d-byte instruction", byteIdx, bit, len(tgt.Raw))
	}
	ex := inject.BitFlip(tgt, byteIdx, bit, encoding.SchemeX86)
	text := make([]byte, len(app.Image.Text))
	copy(text, app.Image.Text)
	copy(text[tgt.Addr-app.Image.TextBase:], ex.CorruptedBytes())
	fmt.Fprintf(os.Stderr, "corrupted %s at %#x: % x -> % x\n",
		tgt.Func, tgt.Addr, tgt.Raw, ex.CorruptedBytes())
	return text, nil
}

// serveTCP accepts connections one at a time and runs a fresh server
// instance per connection (the inetd model).
func serveTCP(app *target.App, text []byte, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ln.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "ftpsim: close listener:", cerr)
		}
	}()
	fmt.Fprintf(os.Stderr, "ftpsim: serving on %s (one connection at a time)\n", addr)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		k := kernel.NewStream(conn)
		ld, err := app.Image.Load(k, text)
		if err != nil {
			return err
		}
		ld.Machine.Fuel = 50_000_000 // interactive sessions are long
		runErr := ld.Machine.Run()
		fmt.Fprintf(os.Stderr, "ftpsim: session ended: %v\n", runErr)
		if cerr := conn.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "ftpsim: close conn:", cerr)
		}
	}
}
