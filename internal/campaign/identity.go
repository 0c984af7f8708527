package campaign

import (
	"fmt"

	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/target"
)

// Identity is what determines a campaign: its experiment enumeration (the
// index space journals, shards and cache entries key into) and every
// run's outcome. The journal header, the fleet shard spec, the campaignd
// submit body and the cache key each carry it in their own wire form.
//
// Resolve also accepts "" for the default scheme and model and 0 for the
// default fuel; Config.Identity reports the canonical form: "x86",
// "bitflip" and the effective fuel.
type Identity struct {
	App      string // target registry name
	Scenario string // one of the app's scenario names
	Scheme   string // encoding registry name
	Model    string // faultmodel registry name
	Fuel     uint64 // per-run instruction budget
	Watchdog bool
}

// Identity returns the campaign identity of c in canonical form.
func (c *Config) Identity() Identity {
	return Identity{
		App:      c.App.Name,
		Scenario: c.Scenario.Name,
		Scheme:   encoding.SchemeName(c.Scheme),
		Model:    faultmodel.Canonical(c.Model),
		Fuel:     c.effectiveFuel(),
		Watchdog: c.Watchdog,
	}
}

// Resolve returns the campaign config id names, its engine knobs zero:
// the app through build (target.Build, or a worker's fixed app set), its
// scenario, and the scheme and fault model through their registries. An
// unknown name fails with the registry's own error, which lists the
// registered names (an unknown scenario, with the app's scenario names).
func (id Identity) Resolve(build func(string) (*target.App, error)) (Config, error) {
	app, err := build(id.App)
	if err != nil {
		return Config{}, err
	}
	sc, ok := app.Scenario(id.Scenario)
	if !ok {
		names := make([]string, len(app.Scenarios))
		for i := range app.Scenarios {
			names[i] = app.Scenarios[i].Name
		}
		return Config{}, fmt.Errorf("campaign: app %s has no scenario %q (have %v)", id.App, id.Scenario, names)
	}
	scheme, err := encoding.Parse(id.Scheme)
	if err != nil {
		return Config{}, err
	}
	model, err := faultmodel.Get(id.Model)
	if err != nil {
		return Config{}, err
	}
	return Config{App: app, Scenario: sc, Scheme: scheme, Model: model.Name(),
		Fuel: id.Fuel, Watchdog: id.Watchdog}, nil
}

// String names the identity in errors.
func (id Identity) String() string {
	return fmt.Sprintf("%s/%s scheme=%s model=%s fuel=%d watchdog=%v",
		id.App, id.Scenario, id.Scheme, id.Model, id.Fuel, id.Watchdog)
}
