// ssh-multientry reproduces the paper's Figure 2 / §5.3 analysis: sshd
// authenticates through several mechanisms (rhosts, RSA, password), so a
// control-flow error in ANY of them can admit an intruder. The example
// corrupts the branch on auth_rhosts()'s return value in
// do_authentication() (the paper's Figure 2 je->jne) and then compares the
// measured break-in rates of single-entry ftpd vs multi-entry sshd.
package main

import (
	"context"
	"fmt"
	"log"

	"faultsec"
	"faultsec/internal/classify"
	"faultsec/internal/disasm"
	"faultsec/internal/encoding"
	"faultsec/internal/inject"
	"faultsec/internal/x86"
)

func main() {
	study, err := faultsec.NewStudy()
	if err != nil {
		log.Fatal(err)
	}
	app := study.SSHD
	sc, _ := app.Scenario("Client1")
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		log.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		log.Fatal(err)
	}

	// Figure 2: the branch in do_authentication() that tests
	// auth_rhosts()'s return value. It is the first conditional branch of
	// the function that follows the call. Reverse it with one bit.
	fmt.Println("Figure 2: reversing do_authentication()'s rhosts decision branch")
	brk := 0
	for _, t := range targets {
		if t.Func != "do_authentication" || t.Inst.Op != x86.OpJcc {
			continue
		}
		ex := inject.BitFlip(t, 0, 0, encoding.SchemeX86)
		res, err := inject.RunOne(app, sc, golden, ex, 0)
		if err != nil {
			log.Fatal(err)
		}
		if res.Outcome == classify.OutcomeBRK {
			brk++
			fmt.Printf("  BREAK-IN via %s at %#x (flip bit 0: condition negated)\n",
				disasm.Format(&t.Inst, t.Addr), t.Addr)
		}
	}
	fmt.Printf("  %d single-bit reversals in do_authentication() admit the attacker\n\n", brk)

	// §5.3: multiple points of entry raise the break-in probability.
	ctx := context.Background()
	fmt.Println("Break-in rate, single entry point (ftpd) vs multiple (sshd):")
	for _, app := range []*faultsec.App{study.FTPD, study.SSHD} {
		stats, err := study.Campaign(ctx, app, "Client1", faultsec.SchemeX86, faultsec.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5s Client1: BRK %d of %d activated (%.2f%%)\n",
			app.Name, stats.Counts[faultsec.OutcomeBRK], stats.Activated(),
			stats.PctOfActivated(faultsec.OutcomeBRK))
	}
	fmt.Println("\nAs in the paper, the multi-entry sshd shows the higher break-in")
	fmt.Println("rate: an error in any of its entry checks can admit the client.")
}
