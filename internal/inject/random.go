package inject

import (
	"math/rand"

	"faultsec/internal/disasm"
	"faultsec/internal/encoding"
	"faultsec/internal/target"
)

// RandomExperiments derives a deterministic list of N random single-bit
// experiments over the whole text segment: the paper's §7 testbed of
// massive random injections while the server is under attack load, which
// measures how many errors cause a security violation (the paper reports
// about 1 in 3,000). Each random (byte, bit) pick is mapped to the
// instruction containing that byte so the injector can watch for
// activation with a breakpoint, exactly as in the exhaustive campaign.
func RandomExperiments(app *target.App, scheme encoding.Scheme, n int, seed int64) ([]Experiment, error) {
	text := app.Image.Text
	entries := disasm.Sweep(text, app.Image.TextBase, 0, uint32(len(text)))
	// Index: text offset -> instruction entry.
	owner := make([]int, len(text))
	for i := range owner {
		owner[i] = -1
	}
	for idx, e := range entries {
		start := e.Addr - app.Image.TextBase
		n := len(e.Raw)
		for j := 0; j < n; j++ {
			owner[int(start)+j] = idx
		}
	}

	rng := rand.New(rand.NewSource(seed)) //nolint:gosec // reproducible experiment, not crypto
	out := make([]Experiment, 0, n)
	for len(out) < n {
		off := rng.Intn(len(text))
		bit := rng.Intn(8)
		idx := owner[off]
		if idx < 0 {
			continue // alignment padding that failed to decode; re-pick
		}
		e := entries[idx]
		raw := make([]byte, len(e.Raw))
		copy(raw, e.Raw)
		funcName := ""
		for _, f := range app.Image.Funcs {
			if e.Addr >= f.Start && e.Addr < f.End {
				funcName = f.Name
				break
			}
		}
		t := Target{Func: funcName, Addr: e.Addr, Raw: raw, Inst: e.Inst}
		out = append(out, BitFlip(t, off-int(e.Addr-app.Image.TextBase), bit, scheme))
	}
	return out, nil
}
