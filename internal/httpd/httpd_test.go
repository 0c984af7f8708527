package httpd_test

import (
	"testing"

	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/httpd"
	"faultsec/internal/inject"
)

// TestGoldenRunsAllSchemes proves the HTTP daemon is functionally correct
// under every registered hardening scheme: all four client personas
// complete a fault-free session with the expected access result.
// GoldenRun itself fails when Granted() deviates from ShouldGrant.
func TestGoldenRunsAllSchemes(t *testing.T) {
	base, err := httpd.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range encoding.Names() {
		scheme, err := encoding.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		app, err := base.ForScheme(scheme)
		if err != nil {
			t.Fatalf("ForScheme(%s): %v", name, err)
		}
		for _, sc := range app.Scenarios {
			t.Run(name+"/"+sc.Name, func(t *testing.T) {
				if _, err := inject.GoldenRun(app, sc, 0); err != nil {
					t.Errorf("golden run %s under %s: %v", sc.Name, name, err)
				}
			})
		}
	}
}

// TestTargetsSpanBothAuthFuncs pins the injection target set: branch
// instructions from both check_basic and check_session, in address order.
func TestTargetsSpanBothAuthFuncs(t *testing.T) {
	app, err := httpd.Build()
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	perFunc := make(map[string]int)
	for _, tgt := range targets {
		perFunc[tgt.Func]++
	}
	for _, fn := range httpd.AuthFuncs {
		if perFunc[fn] == 0 {
			t.Errorf("no branch targets in %s", fn)
		}
	}
	if len(perFunc) != len(httpd.AuthFuncs) {
		t.Errorf("targets cover %v, want exactly %v", perFunc, httpd.AuthFuncs)
	}
}

// TestForgedCookieBreakInExists is the tentpole's security assertion: on
// the stock x86 encoding, at least one single-bit flip in check_session
// grants the forged-cookie attacker (Client3) the protected resource —
// the session-validation analog of the paper's Figure 1 break-in.
func TestForgedCookieBreakInExists(t *testing.T) {
	app, err := httpd.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := app.Scenario("Client3")
	if !ok {
		t.Fatal("no Client3")
	}
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	var session []inject.Target
	for _, tgt := range targets {
		if tgt.Func == "check_session" {
			session = append(session, tgt)
		}
	}
	bitflip, err := faultmodel.Get("bitflip")
	if err != nil {
		t.Fatal(err)
	}
	brk := 0
	for _, ex := range faultmodel.Enumerate(session, encoding.SchemeX86, bitflip) {
		res, err := inject.RunOne(app, sc, golden, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == classify.OutcomeBRK {
			brk++
		}
	}
	if brk == 0 {
		t.Fatal("no single-bit flip in check_session grants the forged-cookie client")
	}
	t.Logf("check_session bitflip break-ins for Client3: %d", brk)
}

// TestWrongPasswordBreakInExists mirrors the paper's original attack
// pattern on the basic-auth function: a single-bit flip in check_basic
// can log in the wrong-password prober, who then walks away with a valid
// session cookie and the protected resource.
func TestWrongPasswordBreakInExists(t *testing.T) {
	app, err := httpd.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := app.Scenario("Client2")
	if !ok {
		t.Fatal("no Client2")
	}
	golden, err := inject.GoldenRun(app, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := inject.Targets(app)
	if err != nil {
		t.Fatal(err)
	}
	var basic []inject.Target
	for _, tgt := range targets {
		if tgt.Func == "check_basic" {
			basic = append(basic, tgt)
		}
	}
	bitflip, err := faultmodel.Get("bitflip")
	if err != nil {
		t.Fatal(err)
	}
	brk := 0
	for _, ex := range faultmodel.Enumerate(basic, encoding.SchemeX86, bitflip) {
		res, err := inject.RunOne(app, sc, golden, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == classify.OutcomeBRK {
			brk++
		}
	}
	if brk == 0 {
		t.Fatal("no single-bit flip in check_basic grants the wrong-password client")
	}
	t.Logf("check_basic bitflip break-ins for Client2: %d", brk)
}
