// Command inject runs a single error-injection experiment with full
// detail: the targeted instruction, the corrupted bytes, the session
// transcript, and the classified outcome. Useful for reproducing the
// paper's Figures 1-2 by hand.
//
// Usage:
//
//	inject -app ftpd -scenario Client1 -func pass -index 0 -byte 0 -bit 0
//	inject -app ftpd -scenario Client1 -list          # list branch targets
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"faultsec/internal/disasm"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/target"
	"faultsec/internal/x86"

	// Register the built-in target applications.
	_ "faultsec/internal/ftpd"
	_ "faultsec/internal/httpd"
	_ "faultsec/internal/sshd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inject:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appName  = flag.String("app", "ftpd", "target application: "+strings.Join(target.Names(), ", "))
		scenario = flag.String("scenario", "Client1", "client access pattern")
		funcName = flag.String("func", "", "restrict to this auth function")
		index    = flag.Int("index", 0, "branch-instruction index within the target set")
		byteIdx  = flag.Int("byte", 0, "byte within the instruction")
		bit      = flag.Int("bit", 0, "bit within the byte")
		parity   = flag.Bool("parity", false, "use the new (parity) encoding")
		list     = flag.Bool("list", false, "list injection targets and exit")
		trace    = flag.Int("trace", 0, "print up to N instructions executed after activation")
	)
	flag.Parse()

	app, err := target.Build(*appName)
	if err != nil {
		return err
	}

	targets, err := inject.Targets(app)
	if err != nil {
		return err
	}
	if *funcName != "" {
		var filtered []inject.Target
		for _, t := range targets {
			if t.Func == *funcName {
				filtered = append(filtered, t)
			}
		}
		targets = filtered
	}
	if *list {
		for i, t := range targets {
			fmt.Printf("%3d  %-18s %#08x  % -24x %s\n", i, t.Func, t.Addr, t.Raw,
				disasm.Format(&t.Inst, t.Addr))
		}
		return nil
	}
	if *index < 0 || *index >= len(targets) {
		return fmt.Errorf("index %d out of range (0..%d)", *index, len(targets)-1)
	}
	tgt := targets[*index]

	sc, ok := app.Scenario(*scenario)
	if !ok {
		return fmt.Errorf("app %s has no scenario %q", app.Name, *scenario)
	}
	scheme := encoding.SchemeX86
	if *parity {
		scheme = encoding.SchemeParity
	}
	ex := inject.Experiment{Target: tgt, ByteIdx: *byteIdx, Bit: *bit, Scheme: scheme}

	fmt.Printf("target:    %s at %#x: %s  (bytes % x)\n", tgt.Func, tgt.Addr,
		disasm.Format(&tgt.Inst, tgt.Addr), tgt.Raw)
	corrupted := ex.CorruptedBytes()
	fmt.Printf("corrupted: % x", corrupted)
	if in, derr := x86.Decode(corrupted); derr == nil {
		fmt.Printf("  (%s)", disasm.Format(&in, tgt.Addr))
	} else {
		fmt.Printf("  (illegal instruction)")
	}
	fmt.Println()

	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		return err
	}
	// One execution serves the outcome, the transcript and the trace.
	session, err := inject.Activate(app, sc, tgt.Addr, 0, nil)
	if err != nil {
		return err
	}
	tr := &inject.Trace{}
	var observe inject.Observer
	if *trace > 0 {
		observe = tr.Recorder(session.ActivationSteps, *trace)
	}
	mut := ex.Mutation()
	end, window, err := inject.Execute(session, &tgt, &mut, observe)
	if err != nil {
		return err
	}
	res := inject.ResultFromRun(golden, ex, &end, sc.ShouldGrant, window)
	fmt.Printf("scenario:  %s/%s (should grant: %v)\n", app.Name, sc.Name, sc.ShouldGrant)
	fmt.Printf("outcome:   %s  location=%s activated=%v granted=%v",
		res.Outcome, res.Location, res.Activated, res.Granted)
	if res.Crashed {
		fmt.Printf(" crash=%s latency=%d instructions", res.FaultKind, res.CrashLatency)
	}
	fmt.Println()

	fmt.Println("\ntranscript:")
	fmt.Print(session.Kernel.Transcript.String())
	fmt.Printf("termination: %v\n", end.Err)

	if *trace > 0 {
		tr.End = end.Err
		fmt.Println("\nexecution after activation:")
		fmt.Print(tr.String())
	}
	return nil
}
