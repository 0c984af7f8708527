// Package faultmodel generalizes the study's error model into a registry
// of pluggable fault models over the deterministic campaign tree. The
// paper hardwires one model — flip a single bit of one instruction — but
// crash/surface rates depend heavily on the model: instruction-skip and
// test/compare-skip are the standard fault-attack models (SoK, arXiv
// 2509.18341), and real-world mistakes motivate coarser corruptions than
// single bits (Barbosa et al., arXiv 1912.01948).
//
// A model is a deterministic, indexable enumeration of mutations per
// target instruction:
//
//   - Count(t) is a pure function of the target (no global state, no
//     randomness), so every process — engine, fleet worker, journal
//     resume — derives the same per-target experiment count.
//   - Mutation(t, i, scheme) is pure for 0 <= i < Count(t), so
//     experiment index i means the same injection everywhere, forever.
//     The campaign-global index space (the one journals and fleet shard
//     specs key into) is the concatenation of per-target index ranges in
//     target-enumeration (address) order.
//
// The scheme is the campaign's encoding scheme. Only bitflip reads it: its
// flip is mapped through the scheme's re-encoding (inject.BitFlip, paper
// §6.2). Bitflip's index is 8·byte+bit, the index journals written before
// fault models existed already keyed on, so they replay under it unchanged.
package faultmodel

import (
	"fmt"
	"sort"
	"sync"

	"faultsec/internal/encoding"
	"faultsec/internal/inject"
)

// Mutation is what a model produces per experiment index: the injection
// action the campaign executor applies at the breakpoint. The concrete
// type lives in inject so the executor needs no import of this package.
type Mutation = inject.Mutation

// Model is one deterministic, indexable fault model.
type Model interface {
	// Name is the registry key ("bitflip", "instskip", ...), also the
	// wire name in journal headers, fleet shard specs, and campaignd
	// submit bodies.
	Name() string
	// Count returns the number of mutations this model derives from one
	// target instruction. It must be a pure function of the target.
	Count(t inject.Target) int
	// Mutation returns the i-th mutation for the target under the
	// campaign's encoding scheme, 0 <= i < Count(t). It must be pure: the
	// same (target, i, scheme) yields the same mutation in every process.
	Mutation(t inject.Target, i int, scheme encoding.Scheme) Mutation
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Model)
)

// Register adds a model to the registry. It panics on a duplicate or
// empty name — models register at package init time, and a collision is a
// programming error, not a runtime condition.
func Register(m Model) {
	mu.Lock()
	defer mu.Unlock()
	name := m.Name()
	if name == "" {
		panic("faultmodel: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic("faultmodel: duplicate model " + name)
	}
	registry[name] = m
}

// Get resolves a model by name. The empty string canonicalizes to
// "bitflip", the paper's model, so configs that predate fault models keep
// working unchanged.
func Get(name string) (Model, error) {
	if name == "" {
		name = "bitflip"
	}
	mu.RLock()
	m, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("faultmodel: unknown model %q (have %v)", name, Names())
	}
	return m, nil
}

// Canonical normalizes a model name for identity comparisons: "" and
// "bitflip" are the same model (the journal header omits the canonical
// default so legacy journals match).
func Canonical(name string) string {
	if name == "" {
		return "bitflip"
	}
	return name
}

// Names lists the registered models, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Enumerate lists every experiment for the target set under the given
// scheme and model, in the deterministic campaign-tree order: targets in
// address-enumeration order, mutation indices ascending within each
// target. This order is the campaign's global index space, the one
// journals record, fleet shards lease, and Resume replays.
func Enumerate(targets []inject.Target, scheme encoding.Scheme, m Model) []inject.Experiment {
	out := make([]inject.Experiment, 0, Total(targets, m))
	for _, t := range targets {
		for i, n := 0, m.Count(t); i < n; i++ {
			out = append(out, Experiment(m, t, i, scheme))
		}
	}
	return out
}

// Experiment returns model m's experiment i at target t under scheme,
// 0 <= i < m.Count(t): the one Enumerate lists at that index.
func Experiment(m Model, t inject.Target, i int, scheme encoding.Scheme) inject.Experiment {
	return inject.Experiment{Target: t, Model: m.Name(), ModelIdx: i, Mut: m.Mutation(t, i, scheme)}
}

// Total returns the experiment count of a target set under a model — the
// campaign size the fleet validates against shard specs.
func Total(targets []inject.Target, m Model) int {
	n := 0
	for _, t := range targets {
		n += m.Count(t)
	}
	return n
}
