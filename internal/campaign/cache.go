package campaign

// This file is the FastFlip seam (arXiv 2403.13989): a content-addressed
// cache of per-target-group injection results, so a resubmitted campaign
// over a rebuilt image re-executes only the groups whose keyed context
// changed and adopts everything else from the store — merged through the
// same finish/Stats path as fresh runs, byte-identical to a cold run.
//
// The unit of caching is the engine's own shard: one target instruction's
// full local mutation range under one fault model. The key digests the
// code-section bytes of the function containing the target (not the whole
// image — that is the entire point: a one-function rebuild leaves every
// other function's entry key unchanged) together with everything else a
// run's outcome depends on: campaign identity (app, scenario, scheme,
// fault model, fuel, watchdog), the target's address and pristine bytes,
// the mutation count, an enumeration version, and a digest of the
// fault-free session's observables. The golden-observables digest is the
// coherence backstop for cross-section effects: results of a cached group
// also depend on code *outside* its section (the golden prefix executes
// it; a corrupted branch can jump into it), and any rebuild that changes
// what the fault-free session does changes this digest and invalidates
// every entry. See DESIGN.md §3i for the residual assumption.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"faultsec/internal/castore"
	"faultsec/internal/classify"
	"faultsec/internal/encoding"
	"faultsec/internal/faultmodel"
	"faultsec/internal/image"
	"faultsec/internal/inject"
	"faultsec/internal/x86"
)

// Cache modes. The zero value ("") means off, so existing configs are
// unaffected; "read" adopts entries but never writes, "readwrite" also
// persists completed groups.
const (
	CacheOff       = "off"
	CacheRead      = "read"
	CacheReadWrite = "readwrite"
)

// enumerationVersion is baked into every cache key; bump it whenever the
// meaning of a target's local mutation index changes (enumeration order,
// mutation semantics, classification), which invalidates every entry
// written by older code.
const enumerationVersion = 1

// NormalizeCacheMode canonicalizes a cache-mode string ("" → off) and
// rejects unknown values.
func NormalizeCacheMode(s string) (string, error) {
	switch s {
	case "", CacheOff:
		return CacheOff, nil
	case CacheRead, CacheReadWrite:
		return s, nil
	default:
		return "", fmt.Errorf("campaign: unknown cache mode %q (want off, read, or readwrite)", s)
	}
}

// cacheActive reports whether the config enables the result cache.
func (c *Config) cacheActive() bool {
	return c.Cache != nil && (c.CacheMode == CacheRead || c.CacheMode == CacheReadWrite)
}

// Entry classes. A target group's mutations are partitioned by the escape
// analysis (mutationEscapes): "local" mutations provably keep execution on
// the program's own control-flow graph and are keyed over the containing
// function's bytes; "fulltext" mutations can land anywhere in the text
// section and are keyed over the whole section. The split is what keeps
// the paper's bitflip model incremental: one wild branch flip in a group
// no longer drags the group's dozens of local flips onto the whole-image
// key.
const (
	classLocal    = "local"
	classFullText = "fulltext"
)

// cacheEntry is the stored form of one class of one target group: the
// WireResults of the class's local mutation indices plus their outcome
// summary (the class's per-shard Stats contribution). The identity fields
// double the key material in readable form for debugging; validation
// trusts only the recomputed key and the internal consistency checks.
type cacheEntry struct {
	Key      string `json:"key"`
	App      string `json:"app"`
	Scenario string `json:"scenario"`
	Scheme   string `json:"scheme"`
	Model    string `json:"model"`
	Func     string `json:"func"`
	Addr     uint32 `json:"addr"`
	// Count is the full local mutation range size for this target under
	// the model; Class and Indices identify the subset this entry holds:
	// Results[i] is the outcome of local mutation index Indices[i].
	Count   int            `json:"count"`
	Class   string         `json:"class"`
	Indices []int          `json:"indices"`
	Results []*WireResult  `json:"results"`
	Counts  map[string]int `json:"counts"`
}

// localIndex maps an experiment to its model-local mutation index within
// its target — the position of its WireResult in a cacheEntry. Bitflip
// carries the index as (ByteIdx, Bit) with bit-within-byte minor order
// (inject.Enumerate's order); every other model carries ModelIdx.
func localIndex(ex inject.Experiment) int {
	if ex.Model != "" {
		return ex.ModelIdx
	}
	return ex.ByteIdx*8 + ex.Bit
}

// classRef is the key material of one class of one target group: the
// content address plus the ascending local mutation indices the entry
// covers.
type classRef struct {
	class string
	key   string
	lis   []int
}

// cacheTarget is one cacheable target's precomputed key material: the
// full-range index map plus up to two class entries (nil when a class is
// empty — e.g. regflip groups never escape, so escape is nil).
type cacheTarget struct {
	count  int   // full local range size
	byLi   []int // exps index per local mutation index; len == count
	local  *classRef
	escape *classRef
}

// classes iterates the target's non-nil class refs.
func (ct *cacheTarget) classes() []*classRef {
	refs := make([]*classRef, 0, 2)
	if ct.local != nil {
		refs = append(refs, ct.local)
	}
	if ct.escape != nil {
		refs = append(refs, ct.escape)
	}
	return refs
}

// engineCache is one run's view of the store: per-target keys for every
// cacheable target group, built once before execution starts. The
// identity fields are copied out of the config so entry construction
// does not need the engine back.
type engineCache struct {
	store *castore.Store
	write bool
	// targets maps target address to key material; addresses absent here
	// are uncacheable for this run (incomplete local range in exps — a
	// random campaign — or no containing function) and bypass the cache
	// entirely, counted neither as hits nor misses.
	targets map[uint32]*cacheTarget

	app      string
	scenario string
	scheme   string
	model    string
	img      *image.Image
}

// buildCache derives the per-target cache keys for this run from the
// fault-free session golden. Targets whose experiments do not cover their
// full local mutation range exactly once (random campaigns, hand-built
// experiment lists) are skipped: an entry must always hold a target's
// complete range so any subset of pending indices can adopt from it.
func (e *Engine) buildCache(exps []inject.Experiment, golden *classify.Golden) (*CacheView, error) {
	model, err := faultmodel.Get(e.cfg.Model)
	if err != nil {
		return nil, err
	}
	img := e.cfg.App.Image
	goldenDig := goldenDigest(golden)

	byAddr := make(map[uint32][]int)
	var order []uint32
	for i := range exps {
		addr := exps[i].Target.Addr
		if _, seen := byAddr[addr]; !seen {
			order = append(order, addr)
		}
		byAddr[addr] = append(byAddr[addr], i)
	}

	ec := &engineCache{
		store:    e.cfg.Cache,
		write:    e.cfg.CacheMode == CacheReadWrite,
		targets:  make(map[uint32]*cacheTarget, len(order)),
		app:      e.cfg.App.Name,
		scenario: e.cfg.Scenario.Name,
		scheme:   encoding.SchemeName(e.cfg.Scheme),
		model:    faultmodel.Canonical(e.cfg.Model),
		img:      img,
	}
	for _, addr := range order {
		indices := byAddr[addr]
		t := exps[indices[0]].Target
		count := model.Count(t)
		if len(indices) != count || !coversRange(exps, indices, count) {
			continue
		}
		fn, ok := funcContaining(img, addr)
		if !ok {
			continue
		}
		ct := &cacheTarget{count: count, byLi: make([]int, count)}
		for _, idx := range indices {
			ct.byLi[localIndex(exps[idx])] = idx
		}
		// Partition the local range by the escape analysis: each class gets
		// its own entry so one escaping mutation does not drag the rest of
		// the group onto the whole-text key.
		var localLis, escLis []int
		for li := 0; li < count; li++ {
			if mutationEscapes(exps[ct.byLi[li]], fn) {
				escLis = append(escLis, li)
			} else {
				localLis = append(localLis, li)
			}
		}
		if len(localLis) > 0 {
			key, err := e.groupKey(img, fn, t, count, goldenDig, classLocal, localLis)
			if err != nil {
				return nil, err
			}
			ct.local = &classRef{class: classLocal, key: key, lis: localLis}
		}
		if len(escLis) > 0 {
			key, err := e.groupKey(img, fn, t, count, goldenDig, classFullText, escLis)
			if err != nil {
				return nil, err
			}
			ct.escape = &classRef{class: classFullText, key: key, lis: escLis}
		}
		ec.targets[addr] = ct
	}
	return &CacheView{ec: ec}, nil
}

// coversRange reports whether the experiments at indices cover local
// mutation indices [0, count) exactly once.
func coversRange(exps []inject.Experiment, indices []int, count int) bool {
	seen := make([]bool, count)
	for _, idx := range indices {
		li := localIndex(exps[idx])
		if li < 0 || li >= count || seen[li] {
			return false
		}
		seen[li] = true
	}
	return true
}

// funcContaining finds the image function whose extent contains addr.
func funcContaining(img *image.Image, addr uint32) (image.Func, bool) {
	for _, f := range img.Funcs {
		if f.Start <= addr && addr < f.End {
			return f, true
		}
	}
	return image.Func{}, false
}

// goldenDigest hashes the fault-free session's observables — the
// cross-section coherence backstop described at the top of this file.
func goldenDigest(g *classify.Golden) string {
	h := sha256.New()
	fmt.Fprintf(h, "golden\x00%d\x00", len(g.ServerBytes))
	h.Write(g.ServerBytes)
	fmt.Fprintf(h, "\x00%v\x00%d\x00%d", g.Granted, g.ExitCode, g.Steps)
	return hex.EncodeToString(h.Sum(nil))
}

// mutationEscapes reports whether one experiment's corrupted execution can
// transfer control outside its containing function in a way that makes the
// run's outcome depend on code bytes beyond the function's section: a
// corrupted branch/call/return, a corrupted encoding that desynchronizes
// the instruction stream (different length than the pristine instruction),
// or a skip landing past the function's end. Such a group is still cached,
// but keyed over the whole text section (see groupKey), so any rebuild
// re-executes it. Corruptions that fault at the target (#UD on a dead
// encoding, privileged ops) and plain data-flow corruptions are local:
// execution continues on the program's own control-flow graph, whose
// post-rebuild semantics the golden digest vouches for. The residual
// assumption — a locally-corrupted run whose *data* flow reaches into
// changed code, e.g. a corrupted store landing inside the text section —
// is documented in DESIGN.md §3i and enforced empirically by the
// incremental identity tests.
func mutationEscapes(ex inject.Experiment, fn image.Func) bool {
	mu := ex.Mutation()
	switch mu.Kind {
	case inject.MutReg:
		// Register corruption leaves the instruction stream intact.
		return false
	case inject.MutSkip:
		land := ex.Target.Addr + uint32(mu.SkipLen)
		return land < fn.Start || land >= fn.End
	}
	corr := ex.CorruptedBytes()
	var inst x86.Inst
	if err := x86.DecodeInto(&inst, corr); err != nil {
		var de *x86.DecodeError
		if errors.As(err, &de) && !de.Truncated {
			// #UD: the run faults at the target without executing foreign
			// bytes.
			return false
		}
		// Truncated: the corrupted encoding wants bytes beyond the pristine
		// instruction — the stream desynchronizes.
		return true
	}
	if int(inst.Len) != len(ex.Target.Raw) {
		// Length change: the successor stream re-decodes from mid-
		// instruction bytes; where it goes is unknowable statically.
		return true
	}
	switch inst.Op {
	case x86.OpJmp, x86.OpJcc, x86.OpJCXZ, x86.OpLoop, x86.OpLoopE, x86.OpLoopNE, x86.OpCall:
		if inst.Form != x86.FormRel {
			return true // indirect target: state-dependent
		}
		tgt := ex.Target.Addr + uint32(inst.Len) + uint32(inst.Rel)
		if tgt < fn.Start || tgt >= fn.End {
			return true
		}
		if inst.Op == x86.OpJmp {
			return false // unconditional, in-range: no fall-through edge
		}
	case x86.OpRet:
		return true // returns through a possibly-misaligned stack
	}
	// Fall-through: the corrupted instruction's successor must itself lie
	// inside the function. A terminator corrupted into a plain data op — a
	// ret turned push at the function's last byte — sails off the end into
	// whatever function the linker placed next.
	next := ex.Target.Addr + uint32(inst.Len)
	return next < fn.Start || next >= fn.End
}

// groupKey derives the content address of one class of one target group.
// For the "local" class — mutations whose corrupted execution provably
// stays inside the containing function — the section material is the
// function's bytes: the FastFlip seam that lets entries survive rebuilds
// of other functions. The "fulltext" class digests the whole text section
// instead: still perfectly cacheable across identical rebuilds, but
// invalidated by any text change, because its corrupted control flow can
// land anywhere. The covered index list is key material too, so a stale
// partition (different decode, different escape verdicts) can never
// validate against a fresh key.
func (e *Engine) groupKey(img *image.Image, fn image.Func, t inject.Target,
	count int, goldenDig, class string, lis []int) (string, error) {
	lo, hi := fn.Start-img.TextBase, fn.End-img.TextBase
	if int(hi) > len(img.Text) || lo > hi {
		return "", fmt.Errorf("campaign: function %s extent [%#x,%#x) outside text", fn.Name, fn.Start, fn.End)
	}
	h := sha256.New()
	writeKeyField(h, "campaigncache", fmt.Sprint(enumerationVersion))
	writeKeyField(h, "app", e.cfg.App.Name)
	writeKeyField(h, "scenario", e.cfg.Scenario.Name)
	writeKeyField(h, "scheme", encoding.SchemeName(e.cfg.Scheme))
	writeKeyField(h, "model", faultmodel.Canonical(e.cfg.Model))
	writeKeyField(h, "fuel", fmt.Sprint(e.cfg.effectiveFuel()))
	writeKeyField(h, "watchdog", fmt.Sprint(e.cfg.Watchdog))
	writeKeyField(h, "golden", goldenDig)
	writeKeyField(h, "func", fmt.Sprintf("%s %#x %#x", fn.Name, fn.Start, fn.End))
	writeKeyField(h, "section", "")
	h.Write(img.Text[lo:hi])
	if class == classFullText {
		writeKeyField(h, "fulltext", fmt.Sprint(img.TextBase))
		h.Write(img.Text)
	}
	writeKeyField(h, "addr", fmt.Sprint(t.Addr))
	writeKeyField(h, "raw", string(t.Raw))
	writeKeyField(h, "count", fmt.Sprint(count))
	writeKeyField(h, "class", class)
	writeKeyField(h, "indices", fmt.Sprint(lis))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeKeyField frames one labeled field into the key hash (length-free
// framing is fine here: the NUL separators cannot appear in the labels and
// every variable-length value is either last in its field or hashed).
func writeKeyField(w io.Writer, label, value string) {
	fmt.Fprintf(w, "%s\x00%s\x00", label, value)
}

// errEntryInvalid reports an entry that decoded but failed semantic
// validation (wrong count, impossible outcome, summary mismatch).
var errEntryInvalid = errors.New("campaign: cache entry failed validation")

// load fetches and validates one class entry. Every failure is a miss; a
// corrupted or semantically invalid entry can never surface results.
func (ec *engineCache) load(ref *classRef, count int) (*cacheEntry, error) {
	payload, err := ec.store.Get(ref.key)
	if err != nil {
		return nil, err
	}
	var ent cacheEntry
	if err := json.Unmarshal(payload, &ent); err != nil {
		return nil, fmt.Errorf("%w: %v", errEntryInvalid, err)
	}
	if ent.Key != ref.key || ent.Count != count || ent.Class != ref.class ||
		len(ent.Indices) != len(ref.lis) || len(ent.Results) != len(ref.lis) {
		return nil, errEntryInvalid
	}
	for i, li := range ent.Indices {
		if li != ref.lis[i] {
			return nil, errEntryInvalid
		}
	}
	recount := make(map[string]int, len(ent.Counts))
	for _, wr := range ent.Results {
		if wr == nil || wr.Outcome < classify.OutcomeNA || wr.Outcome > classify.OutcomeBRK {
			return nil, errEntryInvalid
		}
		recount[wr.Outcome.String()]++
	}
	if len(recount) != len(ent.Counts) {
		return nil, errEntryInvalid
	}
	for k, n := range ent.Counts {
		if recount[k] != n {
			return nil, errEntryInvalid
		}
	}
	return &ent, nil
}

// writeBack persists one completed group's classes (up to two entries).
// results is the campaign-wide result slice; the group's slots were filled
// by this worker's finish calls (and journal or cache adoption before
// workers started), so the read is race-free even when only part of the
// group re-executed. Returns how many new entries landed on disk —
// duplicate writes of identical content are verified no-ops, and a
// content mismatch under the same key fails loudly (it would mean the
// key missed an input the outcome depends on).
func (ec *engineCache) writeBack(addr uint32, exps []inject.Experiment,
	results []inject.Result) (int, error) {
	if !ec.write {
		return 0, nil
	}
	ct, ok := ec.targets[addr]
	if !ok {
		return 0, nil
	}
	var fnName string
	if fn, ok := funcContaining(ec.img, addr); ok {
		fnName = fn.Name
	}
	wrote := 0
	for _, ref := range ct.classes() {
		ent := &cacheEntry{
			Key:      ref.key,
			App:      ec.app,
			Scenario: ec.scenario,
			Scheme:   ec.scheme,
			Model:    ec.model,
			Func:     fnName,
			Addr:     addr,
			Count:    ct.count,
			Class:    ref.class,
			Indices:  ref.lis,
			Results:  make([]*WireResult, len(ref.lis)),
			Counts:   make(map[string]int, 4),
		}
		for i, li := range ref.lis {
			r := results[ct.byLi[li]]
			ent.Results[i] = Wire(r)
			ent.Counts[r.Outcome.String()]++
		}
		payload, err := json.Marshal(ent)
		if err != nil {
			return wrote, err
		}
		w, err := ec.store.Put(ref.key, payload)
		if err != nil {
			return wrote, err
		}
		if w {
			wrote++
		}
	}
	return wrote, nil
}

// CacheCounters is the result cache's counter record: runs adopted from
// the store, runs executed because their target group had no usable
// entry, entries persisted, and entries rejected as corrupt or internally
// inconsistent (each rejection also surfaces as misses for the group's
// runs). Every key is omitted while zero, so cache-less deployments keep
// the pre-cache wire shape.
type CacheCounters struct {
	CacheHits    int64 `json:"cacheHits,omitempty"`
	CacheMisses  int64 `json:"cacheMisses,omitempty"`
	CacheWrites  int64 `json:"cacheWrites,omitempty"`
	CacheInvalid int64 `json:"cacheInvalid,omitempty"`
}

// Add adds o to c.
func (c *CacheCounters) Add(o CacheCounters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheWrites += o.CacheWrites
	c.CacheInvalid += o.CacheInvalid
}

// CacheView is one campaign's handle on the result cache: the key
// derivation and entry validation per target group, with the counters of
// every adoption and write-back made through it. The engine adopts
// through it before scheduling any group and writes back as groups
// complete; a fleet coordinator adopts before leasing any shard and
// writes back when shards settle. Its methods are safe for concurrent
// use.
type CacheView struct {
	ec *engineCache

	mu sync.Mutex
	n  CacheCounters
}

// NewCacheView builds a cache view for cfg over its full experiment
// enumeration (cfg.App must already be scheme-resolved — EnumerateConfig
// does that). It returns (nil, nil) when cfg's cache is off. The
// fault-free golden session runs once here: its observables are part of
// every key (see the coherence discussion at the top of this file).
func NewCacheView(cfg Config, exps []inject.Experiment) (*CacheView, error) {
	if !cfg.cacheActive() {
		return nil, nil
	}
	golden, err := inject.GoldenRun(cfg.App, cfg.Scenario, cfg.effectiveFuel())
	if err != nil {
		return nil, err
	}
	return New(cfg).buildCache(exps, golden)
}

func (v *CacheView) count(d CacheCounters) {
	v.mu.Lock()
	v.n.Add(d)
	v.mu.Unlock()
}

// Adopt consults the store for the target group at addr, class by class,
// and calls adopt with the rehydrated result of every pending experiment
// a valid entry covers (indices already adopted from a journal are simply
// not requested), in class order and pending order within a class. It
// returns the indices still pending, in their original order. A partial
// adoption is normal on a rebuilt image: the function-keyed local class
// hits while the whole-text-keyed escape class misses, and only the
// latter's mutations re-execute.
func (v *CacheView) Adopt(addr uint32, exps []inject.Experiment, pending []int,
	adopt func(idx int, res inject.Result)) []int {
	ct, ok := v.ec.targets[addr]
	if !ok {
		return pending
	}
	rem := pending
	for _, ref := range ct.classes() {
		pos := make(map[int]int, len(ref.lis)) // local index -> entry slot
		for i, li := range ref.lis {
			pos[li] = i
		}
		var mine, rest []int
		for _, idx := range rem {
			if _, member := pos[localIndex(exps[idx])]; member {
				mine = append(mine, idx)
			} else {
				rest = append(rest, idx)
			}
		}
		if len(mine) == 0 {
			continue
		}
		ent, err := v.ec.load(ref, ct.count)
		if err != nil {
			miss := CacheCounters{CacheMisses: int64(len(mine))}
			var ce *castore.CorruptError
			if errors.As(err, &ce) || errors.Is(err, errEntryInvalid) {
				miss.CacheInvalid = 1
			}
			v.count(miss)
			continue
		}
		v.count(CacheCounters{CacheHits: int64(len(mine))})
		for _, idx := range mine {
			adopt(idx, ent.Results[pos[localIndex(exps[idx])]].ToResult(exps[idx]))
		}
		rem = rest
	}
	return rem
}

// StoreGroup persists the completed target group at addr (up to one entry
// per class) when the view is in readwrite mode, the group is cacheable,
// and every index of its full local range has a result (have). Duplicate
// identical writes are verified no-ops; a same-key content mismatch fails
// loudly.
func (v *CacheView) StoreGroup(addr uint32, exps []inject.Experiment,
	results []inject.Result, have []bool) error {
	if ct, ok := v.ec.targets[addr]; ok {
		for _, idx := range ct.byLi {
			if !have[idx] {
				return nil
			}
		}
	}
	return v.store(addr, exps, results)
}

// store persists the target group at addr, whose every result is in
// results, and counts the entries that landed on disk.
func (v *CacheView) store(addr uint32, exps []inject.Experiment, results []inject.Result) error {
	wrote, err := v.ec.writeBack(addr, exps, results)
	v.count(CacheCounters{CacheWrites: int64(wrote)})
	return err
}

// Counters reports the view's counters.
func (v *CacheView) Counters() CacheCounters {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}
