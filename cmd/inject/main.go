// Command inject runs a single error-injection experiment with full
// detail: the targeted instruction, the corrupted bytes, the session
// transcript, and the classified outcome. Useful for reproducing the
// paper's Figures 1-2 by hand.
//
// Usage:
//
//	inject -app ftpd -scenario Client1 -func pass -index 0 -model bitflip -mut 0
//	inject -app ftpd -scenario Client1 -list          # list branch targets
//
// -scheme and -model take the registry names campaigns use; -mut is the
// model-local mutation index journals record (bitflip's is 8·byte+bit).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"faultsec/internal/campaign"
	"faultsec/internal/disasm"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
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
		scheme   = flag.String("scheme", "x86", "encoding scheme: "+strings.Join(encoding.Names(), ", "))
		model    = flag.String("model", "bitflip", "fault model: "+strings.Join(faultmodel.Names(), ", "))
		mutIdx   = flag.Int("mut", 0, "mutation index within the target under the model (bitflip: 8*byte+bit)")
		list     = flag.Bool("list", false, "list injection targets and exit")
		trace    = flag.Int("trace", 0, "print up to N instructions executed after activation")
	)
	flag.Parse()

	cfg, err := campaign.Identity{App: *appName, Scenario: *scenario, Scheme: *scheme,
		Model: *model}.Resolve(target.Build)
	if err != nil {
		return err
	}
	// Compile-time schemes rebuild the app; its targets are the hardened
	// image's.
	app, err := cfg.App.ForScheme(cfg.Scheme)
	if err != nil {
		return err
	}
	m, err := faultmodel.Get(cfg.Model)
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

	if n := m.Count(tgt); *mutIdx < 0 || *mutIdx >= n {
		return fmt.Errorf("%s mutation %d out of range (0..%d at this target)", m.Name(), *mutIdx, n-1)
	}
	ex := faultmodel.Experiment(m, tgt, *mutIdx, cfg.Scheme)
	mut := ex.Mutation()

	fmt.Printf("target:    %s at %#x: %s  (bytes % x)\n", tgt.Func, tgt.Addr,
		disasm.Format(&tgt.Inst, tgt.Addr), tgt.Raw)
	switch mut.Kind {
	case inject.MutSkip:
		fmt.Printf("mutation:  skip %d bytes\n", mut.SkipLen)
	case inject.MutReg:
		fmt.Printf("mutation:  %s ^= %#x\n", x86.RegName(mut.Reg, 4), mut.RegXor)
	default:
		fmt.Printf("corrupted: % x", mut.Bytes)
		if in, derr := x86.Decode(mut.Bytes); derr == nil {
			fmt.Printf("  (%s)", disasm.Format(&in, tgt.Addr))
		} else {
			fmt.Printf("  (illegal instruction)")
		}
		fmt.Println()
	}

	golden, err := inject.GoldenRun(app, cfg.Scenario, 0)
	if err != nil {
		return err
	}
	// One execution serves the outcome, the transcript and the trace.
	session, err := inject.Activate(app, cfg.Scenario, tgt.Addr, 0, nil)
	if err != nil {
		return err
	}
	tr := &inject.Trace{}
	var observe inject.Observer
	if *trace > 0 {
		observe = tr.Recorder(session.ActivationSteps, *trace)
	}
	end, window, err := inject.Execute(session, &tgt, &mut, observe)
	if err != nil {
		return err
	}
	res := inject.ResultFromRun(golden, ex, &end, cfg.Scenario.ShouldGrant, window)
	fmt.Printf("scenario:  %s/%s (should grant: %v)\n", app.Name, cfg.Scenario.Name, cfg.Scenario.ShouldGrant)
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
