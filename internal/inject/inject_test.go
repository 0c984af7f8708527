package inject_test

import (
	"context"
	"fmt"
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/ftpd"
	"faultsec/internal/inject"
	"faultsec/internal/sshd"
	"faultsec/internal/target"
	"faultsec/internal/x86"
)

func ftpApp(t *testing.T) *target.App {
	t.Helper()
	app, err := ftpd.Build()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func sshApp(t *testing.T) *target.App {
	t.Helper()
	app, err := sshd.Build()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func bitflip(t *testing.T) faultmodel.Model {
	t.Helper()
	m, err := faultmodel.Get("bitflip")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTargetsAreBranchInstructions(t *testing.T) {
	app := ftpApp(t)
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) < 40 {
		t.Errorf("only %d targets", len(targets))
	}
	var jcc8, jcc32, misc int
	for _, tgt := range targets {
		switch {
		case tgt.Inst.Op == x86.OpJcc && len(tgt.Raw) == 2:
			jcc8++
		case tgt.Inst.Op == x86.OpJcc && len(tgt.Raw) == 6:
			jcc32++
		case tgt.Inst.Op == x86.OpCall:
			t.Errorf("call at %#x should not be a target", tgt.Addr)
		default:
			misc++
		}
		// Every target must be inside an auth function.
		found := false
		for _, fn := range app.AuthFuncs {
			f, _ := app.Image.FuncByName(fn)
			if tgt.Addr >= f.Start && tgt.Addr < f.End {
				found = true
			}
		}
		if !found {
			t.Errorf("target %#x outside auth functions", tgt.Addr)
		}
	}
	if jcc8 == 0 {
		t.Error("no 2-byte conditional branches in target set")
	}
	if jcc32 == 0 {
		t.Error("no 6-byte conditional branches in target set (Table 3 needs 6BC2 rows)")
	}
	if misc == 0 {
		t.Error("no MISC targets (jmp rel8/ret)")
	}
	t.Logf("targets: %d jcc8, %d jcc32, %d misc, %d total bits",
		jcc8, jcc32, misc, faultmodel.Total(targets, bitflip(t)))
}

func TestGoldenRunsAllScenarios(t *testing.T) {
	for _, app := range []*target.App{ftpApp(t), sshApp(t)} {
		for _, sc := range app.Scenarios {
			g, err := inject.GoldenRun(app, sc, 0)
			if err != nil {
				t.Errorf("%s/%s: %v", app.Name, sc.Name, err)
				continue
			}
			if g.Granted != sc.ShouldGrant {
				t.Errorf("%s/%s: granted=%v, want %v", app.Name, sc.Name, g.Granted, sc.ShouldGrant)
			}
			if g.Steps == 0 || len(g.ServerBytes) == 0 {
				t.Errorf("%s/%s: empty golden run", app.Name, sc.Name)
			}
			if g.Steps > 350_000 {
				t.Errorf("%s/%s: golden run too long (%d steps) for default fuel", app.Name, sc.Name, g.Steps)
			}
		}
	}
}

// TestFigure1JeJneFlip reproduces the paper's Example 1 mechanically: the
// je at the "if (rval)" test in pass() flipped to jne admits a client with
// a wrong password.
func TestFigure1JeJneFlip(t *testing.T) {
	app := ftpApp(t)
	sc, _ := app.Scenario("Client1")
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	brk := 0
	for _, tgt := range targets {
		if tgt.Func != "pass" || tgt.Inst.Op != x86.OpJcc || len(tgt.Raw) != 2 {
			continue
		}
		ex := inject.BitFlip(tgt, 0, 0, encoding.SchemeX86)
		res, err := inject.RunOne(app, sc, golden, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == classify.OutcomeBRK {
			brk++
			if res.Location != classify.Loc2BC {
				t.Errorf("break-in at %#x classified as %s, want 2BC", tgt.Addr, res.Location)
			}
		}
	}
	if brk == 0 {
		t.Error("no je<->jne break-in found in pass() — Figure 1 not reproduced")
	}
	t.Logf("Figure 1: %d single-bit condition reversals in pass() break in", brk)
}

// TestFigure2SSHRhostsFlip reproduces the paper's Example 2: reversing the
// branch on auth_rhosts()'s result in do_authentication() grants a shell.
func TestFigure2SSHRhostsFlip(t *testing.T) {
	app := sshApp(t)
	sc, _ := app.Scenario("Client1")
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	brk := 0
	for _, tgt := range targets {
		if tgt.Inst.Op != x86.OpJcc {
			continue
		}
		b := 0
		if len(tgt.Raw) == 6 {
			b = 1 // condition lives in the second opcode byte
		}
		ex := inject.BitFlip(tgt, b, 0, encoding.SchemeX86)
		res, err := inject.RunOne(app, sc, golden, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == classify.OutcomeBRK {
			brk++
		}
	}
	if brk == 0 {
		t.Error("no condition-reversal break-in found in sshd auth — Figure 2 not reproduced")
	}
	t.Logf("Figure 2: %d condition reversals across sshd auth functions break in", brk)
}

// TestApplyRejectsPartialReplacement: a byte mutation must replace the
// whole target instruction. A zero Experiment carries no replacement
// bytes, and poking nothing would run the fault-free session as if it were
// an injection; a short replacement would leave part of the instruction
// pristine.
func TestApplyRejectsPartialReplacement(t *testing.T) {
	app := ftpApp(t)
	sc, _ := app.Scenario("Client1")
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	tgt := targets[0] // reached by Client1
	short := inject.BitFlip(tgt, 0, 0, encoding.SchemeX86)
	short.Mut.Bytes = short.Mut.Bytes[:len(tgt.Raw)-1]
	for name, ex := range map[string]inject.Experiment{"zero": {Target: tgt}, "short": short} {
		if _, err := inject.RunOne(app, sc, golden, ex, 0); err == nil {
			t.Errorf("%s replacement: RunOne succeeded, want an error", name)
		}
	}
	res, err := inject.RunOne(app, sc, golden, inject.BitFlip(tgt, 0, 0, encoding.SchemeX86), 0)
	if err != nil || !res.Activated {
		t.Fatalf("whole replacement: activated=%v err=%v", res.Activated, err)
	}
}

func TestNotActivatedClassification(t *testing.T) {
	// Client3 (unknown user) never reaches the guest-email checks in
	// pass(); injecting there must yield NA, and the run must match the
	// golden transcript bit for bit.
	app := ftpApp(t)
	sc, _ := app.Scenario("Client3")
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	// Find a target that is NA for Client3: try them all, require that at
	// least a third are NA (the paper's FTP campaigns had high NA rates).
	na := 0
	for _, tgt := range targets {
		ex := inject.BitFlip(tgt, 0, 0, encoding.SchemeX86)
		res, err := inject.RunOne(app, sc, golden, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == classify.OutcomeNA {
			na++
			if res.Activated {
				t.Errorf("NA result with Activated=true at %#x", tgt.Addr)
			}
		}
	}
	if na*3 < len(targets) {
		t.Errorf("only %d/%d targets NA for Client3", na, len(targets))
	}
}

func TestExperimentDeterminism(t *testing.T) {
	app := ftpApp(t)
	sc, _ := app.Scenario("Client1")
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	ex := inject.BitFlip(targets[3], 1, 4, encoding.SchemeX86)
	first, err := inject.RunOne(app, sc, golden, ex, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := inject.RunOne(app, sc, golden, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if again.Outcome != first.Outcome || again.CrashLatency != first.CrashLatency ||
			again.FaultKind != first.FaultKind {
			t.Fatalf("non-deterministic result: %+v vs %+v", first, again)
		}
	}
}

func TestEnumerateCoversEveryBit(t *testing.T) {
	app := ftpApp(t)
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	exps := faultmodel.Enumerate(targets, encoding.SchemeX86, bitflip(t))
	if want := faultmodel.Total(targets, bitflip(t)); len(exps) != want {
		t.Errorf("enumerated %d experiments, want %d", len(exps), want)
	}
	seen := make(map[string]bool, len(exps))
	for _, ex := range exps {
		key := fmt.Sprintf("%d:%d", ex.Target.Addr, ex.ModelIdx)
		if seen[key] {
			t.Fatalf("duplicate experiment %+v", ex)
		}
		seen[key] = true
		if ex.ModelIdx < 0 || ex.ModelIdx >= 8*len(ex.Target.Raw) {
			t.Fatalf("out-of-range experiment %+v", ex)
		}
	}
}

func TestSmallCampaignParallelMatchesSerial(t *testing.T) {
	app := sshApp(t)
	sc, _ := app.Scenario("Client2")
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	exps := faultmodel.Enumerate(targets[:4], encoding.SchemeX86, bitflip(t))
	ctx := context.Background()
	serial, err := inject.RunExperimentsNaive(ctx, inject.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, Parallelism: 1,
	}, exps)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := inject.RunExperimentsNaive(ctx, inject.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86, Parallelism: 8,
	}, exps)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range classify.Outcomes() {
		if serial.Counts[o] != parallel.Counts[o] {
			t.Errorf("%s: serial %d != parallel %d", o, serial.Counts[o], parallel.Counts[o])
		}
	}
	if serial.Total != len(exps) || parallel.Total != len(exps) {
		t.Errorf("totals %d/%d, want %d", serial.Total, parallel.Total, len(exps))
	}
}

func TestCampaignCancellation(t *testing.T) {
	app := ftpApp(t)
	sc, _ := app.Scenario("Client1")
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inject.RunExperimentsNaive(ctx, inject.Config{
		App: app, Scenario: sc, Scheme: encoding.SchemeX86,
	}, faultmodel.Enumerate(targets, encoding.SchemeX86, bitflip(t))); err == nil {
		t.Error("canceled campaign succeeded")
	}
}

func TestRandomExperimentsDeterministic(t *testing.T) {
	app := ftpApp(t)
	a, err := inject.RandomExperiments(app, encoding.SchemeX86, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inject.RandomExperiments(app, encoding.SchemeX86, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Target.Addr != b[i].Target.Addr || a[i].ModelIdx != b[i].ModelIdx {
			t.Fatalf("seeded experiments differ at %d", i)
		}
	}
	c, err := inject.RandomExperiments(app, encoding.SchemeX86, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Target.Addr == c[i].Target.Addr && a[i].ModelIdx%8 == c[i].ModelIdx%8 {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical experiment lists")
	}
}

func TestRandomExperimentBytesInRange(t *testing.T) {
	app := ftpApp(t)
	exps, err := inject.RandomExperiments(app, encoding.SchemeX86, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exps {
		if b := ex.ModelIdx / 8; ex.ModelIdx < 0 || b >= len(ex.Target.Raw) {
			t.Fatalf("byte index %d out of range for %d-byte instruction at %#x",
				b, len(ex.Target.Raw), ex.Target.Addr)
		}
		off := ex.Target.Addr - app.Image.TextBase
		if int(off)+len(ex.Target.Raw) > len(app.Image.Text) {
			t.Fatalf("target at %#x overruns text", ex.Target.Addr)
		}
	}
}
