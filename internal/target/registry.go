package target

import (
	"fmt"
	"sort"
	"strings"
)

// The app registry maps application names to their build functions, so
// every layer that resolves a target by wire name — CLI flags, campaignd
// submit bodies, fleet shard specs — shares one lookup instead of a
// hardcoded switch per binary. Build packages (internal/ftpd,
// internal/sshd, internal/httpd) self-register at init time; their Build
// functions memoize, so registry lookups never recompile.
var buildRegistry = make(map[string]func() (*App, error))

// Register adds an application build function under its wire name. It
// panics on a duplicate or empty name — apps register at package init
// time, and a collision is a programming error, not a runtime condition.
// Registration is init-time only; no lock guards the map.
func Register(name string, build func() (*App, error)) {
	if name == "" {
		panic("target: Register with empty name")
	}
	if build == nil {
		panic("target: Register " + name + " with nil build func")
	}
	if _, dup := buildRegistry[name]; dup {
		panic("target: duplicate app " + name)
	}
	buildRegistry[name] = build
}

// Build resolves an application by registry name and builds it. Build
// functions cache their compiled image, so repeated lookups share one
// immutable *App. Unknown names report the registered list.
func Build(name string) (*App, error) {
	build, ok := buildRegistry[name]
	if !ok {
		return nil, fmt.Errorf("target: unknown app %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return build()
}

// Names returns the registered application names, sorted.
func Names() []string {
	names := make([]string, 0, len(buildRegistry))
	for n := range buildRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
