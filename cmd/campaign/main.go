// Command campaign runs the study's injection campaigns and prints the
// paper's tables and figure.
//
// Usage:
//
//	campaign -all                 # everything: Tables 1-5, Figure 4
//	campaign -table 1             # outcome distributions (stock x86)
//	campaign -table 3             # BRK+FSV by error location
//	campaign -table 4             # the branch re-encoding map
//	campaign -table 5             # distributions under the new encoding
//	campaign -figure 4            # crash-latency histogram
//	campaign -random 30000        # §7 random-injection testbed
//	campaign -persistent          # §5.4 permanent-window demonstration
//	campaign -loadimpact          # §5.4 load-diversity experiment
//	campaign -models              # fault-model matrix (bitflip, doublebit, byteflip, instskip, cmpskip, regflip)
//	campaign -schemes             # hardening-scheme reduction matrix (x86, parity, dupcmp, encbranch)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"faultsec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		tableN     = flag.Int("table", 0, "print table 1, 2, 3, 4 or 5")
		figureN    = flag.Int("figure", 0, "print figure 4")
		randomN    = flag.Int("random", 0, "run N random whole-text injections (§7 testbed)")
		seed       = flag.Int64("seed", 2001, "random testbed seed")
		persistent = flag.Bool("persistent", false, "demonstrate the permanent vulnerability window (§5.4)")
		watchdog   = flag.Bool("watchdog", false, "run the control-flow watchdog ablation")
		loadImpact = flag.Bool("loadimpact", false, "run the load-diversity experiment (§5.4)")
		models     = flag.Bool("models", false, "run every registered fault model over FTP, SSH, and HTTP Client1 and print the BRK/SD/FSV matrix")
		schemes    = flag.Bool("schemes", false, "run every registered hardening scheme x fault model over FTP, SSH, and HTTP Client1 and print the reduction matrix")
		all        = flag.Bool("all", false, "run everything")
		jsonOut    = flag.String("json", "", "also write campaign stats as JSON to this file")
		fuel       = flag.Uint64("fuel", 0, "per-run instruction budget (0 = default)")
		parallel   = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	)
	flag.Parse()

	opts := faultsec.Options{Fuel: *fuel, Parallelism: *parallel}
	ctx := context.Background()

	study, err := faultsec.NewStudy()
	if err != nil {
		return err
	}

	if *all || *tableN == 2 {
		fmt.Println("== Table 2: Error Location Abbreviations ==")
		fmt.Println(faultsec.RenderTable2())
	}
	if *all || *tableN == 4 {
		fmt.Println("== Table 4: x86 Conditional Branch Instruction Encoding Mapping ==")
		fmt.Println(faultsec.RenderTable4())
	}

	var oldStats []*faultsec.Stats
	needOld := *all || *tableN == 1 || *tableN == 3 || *tableN == 5
	if needOld {
		start := time.Now()
		var table string
		table, oldStats, err = study.Table1(ctx, opts)
		if err != nil {
			return err
		}
		if *all || *tableN == 1 {
			fmt.Printf("== Table 1: FTP and SSH Result Distributions (stock x86, %.1fs) ==\n",
				time.Since(start).Seconds())
			fmt.Println(table)
		}
	}
	if *all || *tableN == 3 {
		fmt.Println("== Table 3: Break-ins and Fail Silence Violations by Location ==")
		fmt.Println(study.Table3(oldStats))
	}
	if *jsonOut != "" && oldStats != nil {
		data, err := faultsec.MarshalStats(oldStats)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "campaign: wrote %s\n", *jsonOut)
	}
	if *all || *tableN == 5 {
		start := time.Now()
		table, _, err := study.Table5(ctx, oldStats, opts)
		if err != nil {
			return err
		}
		fmt.Printf("== Table 5: FTP and SSH Results from New Encoding (%.1fs) ==\n",
			time.Since(start).Seconds())
		fmt.Println(table)
	}
	if *all || *figureN == 4 {
		stats, err := study.Campaign(ctx, study.FTPD, "Client1", faultsec.SchemeX86, opts)
		if err != nil {
			return err
		}
		h := faultsec.NewHistogram(stats.CrashLatencies)
		fmt.Println("== Figure 4: Number of Instructions between Error and Crash (FTP Client1) ==")
		fmt.Println(faultsec.RenderFigure4(h))
		w := stats.Window
		fmt.Printf("transient-window activity: %d crashes, %d beyond 100 instructions,\n", w.Crashes, w.LongLatency)
		fmt.Printf("%d sent network traffic inside the window (%d of those long-latency)\n\n",
			w.WroteInWindow, w.LongAndWrote)
	}
	if *randomN > 0 || *all {
		n := *randomN
		if n == 0 {
			n = 12000
		}
		start := time.Now()
		stats, err := study.RandomTestbed(ctx, n, *seed, opts)
		if err != nil {
			return err
		}
		brk := stats.Counts[faultsec.OutcomeBRK]
		fmt.Printf("== §7 random testbed: %d random single-bit errors, %d break-ins", n, brk)
		if brk > 0 {
			fmt.Printf(" (1 in %d)", n/brk)
		}
		fmt.Printf(" [%.1fs] ==\n\n", time.Since(start).Seconds())
	}
	if *persistent || *all {
		res, err := study.PersistentWindow(ctx, study.FTPD, 5, opts)
		if err != nil {
			return err
		}
		fmt.Println("== §5.4 permanent window of vulnerability (ftpd, Client1) ==")
		ex := res.Experiment
		b := ex.ModelIdx / 8 // a bitflip index is 8·byte+bit
		fmt.Printf("corruption: %s at %#x, byte %d bit %d (%#02x -> %#02x)\n",
			ex.Target.Func, ex.Target.Addr, b, ex.ModelIdx%8, ex.Target.Raw[b], ex.CorruptedBytes()[b])
		for i, g := range res.GrantedPerConnection {
			fmt.Printf("connection %d: unauthorized login granted=%v\n", i+1, g)
		}
		fmt.Printf("after page reload: granted=%v (window closed)\n\n", res.GrantedAfterReload)
	}
	if *watchdog || *all {
		res, err := study.WatchdogAblation(ctx, study.FTPD, opts)
		if err != nil {
			return err
		}
		fmt.Println("== ablation: control-flow watchdog (related-work countermeasure) ==")
		fmt.Printf("detected %d of %d activated errors (%.0f%%)\n",
			res.Watched.WatchdogDetections, res.Watched.Activated(), 100*res.DetectionRate())
		fmt.Printf("break-ins: %d without watchdog -> %d with watchdog\n",
			res.Baseline.Counts[faultsec.OutcomeBRK], res.Watched.Counts[faultsec.OutcomeBRK])
		fmt.Println("(valid-but-wrong branches defeat signature checking; hence the encoding fix)")
		fmt.Println()
	}
	if *loadImpact || *all {
		res, err := study.LoadImpact(ctx, study.FTPD, opts)
		if err != nil {
			return err
		}
		fmt.Println("== §5.4 impact of load diversity on latent-error manifestation (ftpd) ==")
		for i := range res.MixSizes {
			fmt.Printf("client mix size %d: P(activated)=%.3f P(manifested)=%.3f\n",
				res.MixSizes[i], res.ActivatedProb[i], res.ManifestProb[i])
		}
		fmt.Println()
	}
	if *models || *all {
		start := time.Now()
		matrix, _, err := study.FaultModelMatrix(ctx, nil, opts)
		if err != nil {
			return err
		}
		fmt.Printf("== fault-model matrix: BRK/SD/FSV per (model x target x location) (%.1fs) ==\n",
			time.Since(start).Seconds())
		fmt.Println(matrix)
	}
	if *schemes || *all {
		start := time.Now()
		matrix, _, err := study.SchemeMatrix(ctx, nil, nil, opts)
		if err != nil {
			return err
		}
		fmt.Printf("== hardening-scheme matrix: BRK/SD/FSV reduction per (scheme x model x target) (%.1fs) ==\n",
			time.Since(start).Seconds())
		fmt.Println(matrix)
	}
	if !*all && *tableN == 0 && *figureN == 0 && *randomN == 0 && !*persistent && !*loadImpact && !*watchdog && !*models && !*schemes {
		flag.Usage()
	}
	return nil
}
