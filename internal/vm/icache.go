package vm

import (
	"faultsec/internal/x86"
)

// This file implements the predecoded instruction cache (icache): a dense
// per-region table mapping every executable address to the micro-op its
// decode binds to (see exec_uop.go), filled lazily by Machine.Step and
// consulted before the fetch+decode+bind slow path. The text segment is
// immutable apart from the injector's pokes, so almost every retirement
// after warm-up is a hit.
//
// Correctness rests on invalidation. Two mutation channels exist:
//
//   - Memory.Poke (the injector's ptrace-POKETEXT analog), and
//   - a successful program write to a region mapped PermExec
//     (self-modifying code; regular images map text r-x, so this only
//     fires for deliberately rwx-mapped regions).
//
// Both funnel through Memory.icacheInvalidate, which voids every cached
// decode whose instruction span could overlap the written bytes — an
// instruction starting up to MaxInstLen-1 bytes before the first written
// byte may straddle it.
//
// Snapshots share decode work: Machine.Snapshot freezes the machine's
// tables (marking them shared/read-only) and records a reference in the
// snapshot, so every machine restored from it executes from one immutable
// base table instead of re-decoding the prefix. Once a table is shared, a
// machine's own decodes — the capturing machine's post-freeze fills, and a
// restored run's decodes of poked or post-activation code — land in a
// private per-region overlay array (`local`) laid out identically to the
// base table, so overlay hits stay a single indexed load on the Step hot
// path. Pokes over a shared base are tracked as dirty spans masking the
// stale base entries; Restore resets spans and overlay together, which
// keeps cross-run decode reuse exact.

// icacheSpan is a half-open invalidated address range [lo, hi).
type icacheSpan struct{ lo, hi uint32 }

// islot is one predecoded cache slot: the micro-op the instruction's
// decode was bound to at fill time. Warm retirements dispatch straight
// through uop.H. uop.Len == 0 marks an empty slot; every successfully
// decoded instruction has Len >= 1.
type islot struct {
	uop x86.Uop
}

// icacheRegion is the decode table for one executable region: entries[i]
// caches the instruction starting at base+i.
type icacheRegion struct {
	base    uint32
	entries []islot
	// shared marks entries as owned by a Snapshot: read-only for this
	// machine, potentially read concurrently by other restored machines.
	// New decodes then land in the private local overlay instead.
	shared bool
	// dirty lists address spans whose base entries must not be trusted
	// (bytes under them were poked or written since they were decoded).
	// Only shared regions carry spans; a private region drops stale
	// entries in place.
	dirty []icacheSpan
	// local is the private overlay, indexed like entries and allocated on
	// the first fill after the base went shared. It always reflects the
	// region's current bytes: invalidation zeroes it in place.
	local []islot
	// traces holds the fused superblock traces (trace.go), indexed like
	// entries by start address. Always private to this machine — a
	// Snapshot never shares them — and allocated on the first fuse.
	// Invalidation zeroes trace pointers with a back-span widened to
	// maxTraceBytes-1, since a trace may extend that far past its start.
	traces []*trace
}

func (rt *icacheRegion) contains(pc uint32) bool {
	return pc >= rt.base && pc-rt.base < uint32(len(rt.entries))
}

func (rt *icacheRegion) inDirty(pc uint32) bool {
	for _, sp := range rt.dirty {
		if pc >= sp.lo && pc < sp.hi {
			return true
		}
	}
	return false
}

// zeroLocal drops local-overlay decodes under the given spans (already
// clamped to the region by icacheInvalidate).
func (rt *icacheRegion) zeroLocal(spans []icacheSpan) {
	if rt.local == nil {
		return
	}
	for _, sp := range spans {
		for a := sp.lo; a < sp.hi; a++ {
			rt.local[a-rt.base] = islot{}
		}
	}
}

// zeroTraces drops fused traces that could overlap the given spans. The
// spans carry only the islot back-span (MaxInstLen-1); a trace starting up
// to maxTraceBytes-1 bytes before a written byte can extend across it, so
// each span's low edge is widened by the difference (conservatively by the
// full maxTraceBytes) and re-clamped to the region.
func (rt *icacheRegion) zeroTraces(spans []icacheSpan) {
	if rt.traces == nil {
		return
	}
	for _, sp := range spans {
		lo := sp.lo - maxTraceBytes
		if lo > sp.lo || lo < rt.base { // underflow or region edge
			lo = rt.base
		}
		for a := lo; a < sp.hi; a++ {
			rt.traces[a-rt.base] = nil
		}
	}
}

// ICache is one machine's predecoded instruction cache.
type ICache struct {
	regions []*icacheRegion
}

// icacheSnap is the frozen view of a machine's icache captured by
// Snapshot: immutable base tables shared (by reference) with every
// machine restored from the snapshot.
type icacheSnap struct {
	regions []icacheSnapRegion
}

type icacheSnapRegion struct {
	base    uint32
	entries []islot
	dirty   []icacheSpan
}

func (c *ICache) findRegion(pc uint32) *icacheRegion {
	for _, rt := range c.regions {
		if rt.contains(pc) {
			return rt
		}
	}
	return nil
}

// icacheLookup returns the cached slot (decode + bound micro-op) of the
// instruction at pc, or nil on a miss. The returned slot may live in a
// table shared across machines; callers must treat it as read-only.
func (m *Memory) icacheLookup(pc uint32) *islot {
	c := m.icache
	if c == nil {
		return nil
	}
	for _, rt := range c.regions {
		// Unsigned wrap folds the two range compares into one: pc below
		// base underflows to a huge index and fails the length check.
		i := pc - rt.base
		if i >= uint32(len(rt.entries)) {
			continue
		}
		if rt.local != nil {
			if e := &rt.local[i]; e.uop.Len != 0 {
				return e
			}
		}
		if e := &rt.entries[i]; e.uop.Len != 0 && (len(rt.dirty) == 0 || !rt.inDirty(pc)) {
			return e
		}
		return nil // regions never overlap
	}
	return nil
}

// icacheFill records the decoded-and-bound slot for the instruction at pc,
// creating the cache and the covering region table on first use. Fills for
// shared (snapshot-frozen) base tables go to the private local overlay.
func (m *Memory) icacheFill(pc uint32, s *islot) {
	c := m.icache
	if c == nil {
		c = &ICache{}
		m.icache = c
	}
	rt := c.findRegion(pc)
	if rt == nil {
		r := m.Find(pc)
		if r == nil || r.Perm&PermExec == 0 {
			return
		}
		rt = &icacheRegion{base: r.Base, entries: make([]islot, len(r.Data))}
		c.regions = append(c.regions, rt)
	}
	if rt.shared {
		if rt.local == nil {
			rt.local = make([]islot, len(rt.entries))
		}
		rt.local[pc-rt.base] = *s
		return
	}
	rt.entries[pc-rt.base] = *s
}

// icacheInvalidate voids every cached decode that could cover the n bytes
// written at addr: instructions start at most MaxInstLen-1 bytes before
// the first written byte. Private tables drop the entries in place;
// shared base tables (read-only) record a dirty span instead. Local
// overlay decodes under the span are zeroed either way, so the overlay
// always reflects the region's current bytes.
func (m *Memory) icacheInvalidate(addr uint32, n int) {
	if n <= 0 {
		return
	}
	// Bump the invalidation generation before anything else: an in-flight
	// fused trace polls it between micro-ops and must see the change even
	// when the write lands outside every cached table.
	m.invalGen++
	c := m.icache
	if c == nil {
		return
	}
	lo := addr - (x86.MaxInstLen - 1)
	if lo > addr { // underflow below address zero
		lo = 0
	}
	hi := addr + uint32(n)
	for _, rt := range c.regions {
		rlo, rhi := lo, hi
		if rlo < rt.base {
			rlo = rt.base
		}
		if end := rt.base + uint32(len(rt.entries)); rhi > end {
			rhi = end
		}
		if rlo >= rhi {
			continue
		}
		sp := icacheSpan{lo: rlo, hi: rhi}
		if rt.shared {
			rt.dirty = append(rt.dirty, sp)
			rt.zeroLocal([]icacheSpan{sp})
		} else {
			for a := rlo; a < rhi; a++ {
				rt.entries[a-rt.base] = islot{}
			}
		}
		rt.zeroTraces([]icacheSpan{sp})
	}
}

// icacheFreeze marks every region's base table shared (read-only from now
// on; subsequent decodes by this machine go to its local overlay) and
// returns an immutable view for a Snapshot to hand to restored machines.
// Returns nil when no cache has been built. Overlay decodes made after an
// earlier freeze stay private: successive snapshots of one machine share
// the base tables of the first freeze.
func (m *Memory) icacheFreeze() *icacheSnap {
	c := m.icache
	if c == nil || len(c.regions) == 0 {
		return nil
	}
	s := &icacheSnap{regions: make([]icacheSnapRegion, 0, len(c.regions))}
	for _, rt := range c.regions {
		rt.shared = true
		s.regions = append(s.regions, icacheSnapRegion{
			base:    rt.base,
			entries: rt.entries,
			dirty:   append([]icacheSpan(nil), rt.dirty...),
		})
	}
	return s
}

// icacheSameBase reports whether the machine's region tables are backed
// by the very same frozen base tables as the snapshot view (pointer
// identity on the entries arrays). Snapshots captured at successive
// breakpoints of one golden run all share the first freeze's tables, so
// this holds across a whole snapshot sweep, not just for re-restores of
// one snapshot.
func icacheSameBase(rts []*icacheRegion, srs []icacheSnapRegion) bool {
	if len(rts) != len(srs) {
		return false
	}
	for i, rt := range rts {
		sr := &srs[i]
		if !rt.shared || rt.base != sr.base ||
			len(rt.entries) != len(sr.entries) || &rt.entries[0] != &sr.entries[0] {
			return false
		}
	}
	return true
}

// icacheInstall points the address space at a snapshot's frozen decode
// tables (Restore just copied the snapshot's bytes back, so they are
// coherent again). When the machine's cache already sits on the same
// frozen base tables it resets in place: overlay decodes under the
// machine's dirty spans (the previous run's poked instruction) and under
// the snapshot's spans are dropped, and the rest of the overlay —
// decodes of pristine post-activation code — survives across the runs of
// a target's experiment group and across same-sweep snapshots. A nil
// snap (the snapshot machine had no cache) drops the cache entirely: the
// restored bytes may not match whatever was cached.
func (m *Memory) icacheInstall(snap *icacheSnap) {
	if snap == nil {
		m.icache = nil
		return
	}
	if c := m.icache; c != nil && icacheSameBase(c.regions, snap.regions) {
		for i, rt := range c.regions {
			sr := &snap.regions[i]
			// An overlay decode is stale if its bytes were poked during
			// the previous run (rt.dirty) or differ between the snapshot
			// this cache last served and the one being installed — the
			// latter is always inside the installed snapshot's spans,
			// since the golden run only appends to its dirty list. Fused
			// traces follow the same rule (pokes already zeroed the spans
			// under rt.dirty at poke time, but a trace fused *after* the
			// poke from the poked bytes starts inside the widened span and
			// is dropped here); traces over pristine bytes survive the
			// restore, which is what makes cross-run trace reuse work.
			rt.zeroLocal(rt.dirty)
			rt.zeroLocal(sr.dirty)
			rt.zeroTraces(rt.dirty)
			rt.zeroTraces(sr.dirty)
			rt.dirty = append(rt.dirty[:0], sr.dirty...)
		}
		return
	}
	c := &ICache{regions: make([]*icacheRegion, 0, len(snap.regions))}
	for i := range snap.regions {
		sr := &snap.regions[i]
		c.regions = append(c.regions, &icacheRegion{
			base:    sr.base,
			entries: sr.entries,
			shared:  true,
			dirty:   append([]icacheSpan(nil), sr.dirty...),
		})
	}
	m.icache = c
}
