// ftp-breakin reproduces the paper's Figure 1 / Example 1: in ftpd's
// pass(), single-bit corruptions of the conditional branches around the
// strcmp() password check reverse the deny/grant decision, so a client
// with an existing user name and a *wrong password* is let in — a
// permanent security hole until the text page is reloaded.
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
	app := study.FTPD

	// Enumerate the branch instructions of pass() and try the paper's
	// exact corruption: flipping the low opcode bit of a jcc, turning the
	// condition into its negation (je <-> jne at Hamming distance 1).
	targets, err := inject.Targets(app)
	if err != nil {
		log.Fatal(err)
	}
	sc, _ := app.Scenario("Client1")
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Scanning pass() for single-bit branch reversals that grant access")
	fmt.Println("to a client logging in with a wrong password...")
	fmt.Println()
	found := 0
	for _, t := range targets {
		if t.Func != "pass" || t.Inst.Op != x86.OpJcc {
			continue
		}
		// The negation bit: bit 0 of the opcode byte (je=0x74 vs jne=0x75).
		ex := inject.BitFlip(t, 0, 0, encoding.SchemeX86)
		res, err := inject.RunOne(app, sc, golden, ex, 0)
		if err != nil {
			log.Fatal(err)
		}
		if res.Outcome != classify.OutcomeBRK {
			continue
		}
		found++
		fmt.Printf("BREAK-IN: %s at %#x\n", disasm.Format(&t.Inst, t.Addr), t.Addr)
		fmt.Printf("  pristine:  % x  (%s)\n", t.Raw, disasm.Format(&t.Inst, t.Addr))
		corr := ex.CorruptedBytes()
		if in, derr := x86.Decode(corr); derr == nil {
			fmt.Printf("  corrupted: % x  (%s)  — one bit flipped\n",
				corr, disasm.Format(&in, t.Addr))
		}
		fmt.Println()
	}
	if found == 0 {
		fmt.Println("no branch-reversal break-in found (unexpected)")
		return
	}
	fmt.Printf("%d single-bit branch reversals in pass() compromise the server.\n\n", found)

	// Demonstrate the *permanent* window: the corrupted page stays in
	// memory, so every subsequent attack connection succeeds until the
	// page is reloaded.
	fmt.Println("Permanent window of vulnerability (5 consecutive connections):")
	res, err := study.PersistentWindow(context.Background(), app, 5, faultsec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for i, g := range res.GrantedPerConnection {
		fmt.Printf("  connection %d: wrong-password login granted = %v\n", i+1, g)
	}
	fmt.Printf("  after page reload:                     granted = %v\n", res.GrantedAfterReload)
}
