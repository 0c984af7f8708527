// Package vm implements a deterministic 32-bit x86-subset interpreter used
// as the study's hardware substrate. It models user-mode execution under a
// Linux-like personality: protected memory regions, precise faults
// (translated to the usual POSIX signals), a breakpoint facility for the
// NFTAPE-style injector, and a retired-instruction counter used to measure
// the paper's transient windows of vulnerability (Figure 4).
package vm

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
)

// Perm is a bit set of region permissions.
type Perm uint8

// Region permissions.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// String renders the permission set in ls -l style ("r-x").
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Dirty-page geometry: writes are tracked at 64-byte granularity, one bit
// per page, 64 pages per bitmap word. Coarse enough that a word of bitmap
// covers 4 KiB of region, fine enough that a run touching a few stack and
// data cells restores a few hundred bytes instead of the whole image.
const (
	dirtyPageShift = 6 // log2(page size)
	dirtyPageSize  = 1 << dirtyPageShift
)

// Region is a contiguous mapped range of the 32-bit address space.
type Region struct {
	Name string
	Base uint32
	Perm Perm
	Data []byte

	// dirty, when non-nil, is the write-tracking bitmap: bit p set means
	// page p (bytes [p*64, p*64+64) of Data) was written since the bitmap
	// was last cleared. Armed by Restore when dirty tracking is on;
	// maintained by every guest store and by Poke. nil means untracked.
	dirty []uint64
}

// armDirty allocates the region's dirty bitmap, or clears it in place when
// already sized for the region.
func (r *Region) armDirty() {
	pages := (len(r.Data) + dirtyPageSize - 1) >> dirtyPageShift
	words := (pages + 63) >> 6
	if len(r.dirty) == words {
		for i := range r.dirty {
			r.dirty[i] = 0
		}
		return
	}
	r.dirty = make([]uint64, words)
}

// markDirty records an n-byte write at offset off into the bitmap. The
// caller has already bounds-checked the write; n >= 1.
func (r *Region) markDirty(off uint32, n int) {
	lo := off >> dirtyPageShift
	hi := (off + uint32(n) - 1) >> dirtyPageShift
	// Almost every store fits one page; mark it without loop setup.
	r.dirty[lo>>6] |= 1 << (lo & 63)
	for p := lo + 1; p <= hi; p++ {
		r.dirty[p>>6] |= 1 << (p & 63)
	}
}

// copyDirtyFrom copies the dirty pages of the region back from src (the
// snapshot's pristine bytes, same length as Data), clearing the bitmap as
// it goes, and returns the number of bytes copied.
func (r *Region) copyDirtyFrom(src []byte) int {
	n := 0
	for wi, w := range r.dirty {
		if w == 0 {
			continue
		}
		r.dirty[wi] = 0
		for w != 0 {
			b := uint32(bits.TrailingZeros64(w))
			w &^= 1 << b
			lo, hi := r.page(uint32(wi)<<6 | b)
			n += copy(r.Data[lo:hi], src[lo:hi])
		}
	}
	return n
}

// page returns the byte range [lo, hi) of dirty page p; only a region's
// last page can be short.
func (r *Region) page(p uint32) (lo, hi uint32) {
	lo = p << dirtyPageShift
	hi = lo + dirtyPageSize
	if hi > uint32(len(r.Data)) {
		hi = uint32(len(r.Data))
	}
	return lo, hi
}

// dirtyPageCount returns the number of pages currently marked dirty.
func (r *Region) dirtyPageCount() int {
	n := 0
	for _, w := range r.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// End returns the first address past the region.
func (r *Region) End() uint32 { return r.Base + uint32(len(r.Data)) }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint32) bool {
	return addr >= r.Base && addr < r.End()
}

// Memory is a sparse 32-bit address space made of non-overlapping regions.
type Memory struct {
	regions []*Region // sorted by Base

	// icache holds the lazily built predecoded instruction tables (see
	// icache.go), one per executable region the machine has decoded in.
	icache []*icacheRegion

	// invalGen counts icache invalidations. A fused trace (trace.go) reads
	// it before executing each micro-op: a change mid-trace means a store
	// just landed in an executable region, so the rest of the trace may
	// have been decoded from bytes that no longer exist — the trace aborts
	// and execution resumes through the per-step path.
	invalGen uint64

	// hot is the region that served the last access: a search hint, never
	// consulted without revalidation. Cleared whenever the region set is
	// replaced (fresh-mapping Restore).
	hot *Region
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// Map adds a region. It returns an error if the region overlaps an existing
// mapping or wraps around the address space.
func (m *Memory) Map(r *Region) error {
	if len(r.Data) == 0 {
		return fmt.Errorf("vm: map %q: empty region", r.Name)
	}
	if r.Base+uint32(len(r.Data)) < r.Base {
		return fmt.Errorf("vm: map %q: region wraps address space", r.Name)
	}
	for _, ex := range m.regions {
		if r.Base < ex.End() && ex.Base < r.End() {
			return fmt.Errorf("vm: map %q: overlaps region %q", r.Name, ex.Name)
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool {
		return m.regions[i].Base < m.regions[j].Base
	})
	return nil
}

// Regions returns the mapped regions in address order. The caller must not
// mutate the returned slice.
func (m *Memory) Regions() []*Region { return m.regions }

// Find returns the region containing addr, or nil.
func (m *Memory) Find(addr uint32) *Region {
	// Linear scan: region count is tiny (text/rodata/data/bss/stack).
	for _, r := range m.regions {
		if r.Contains(addr) {
			return r
		}
	}
	return nil
}

// FindByName returns the region with the given name, or nil.
func (m *Memory) FindByName(name string) *Region {
	for _, r := range m.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// access validates an n-byte access at addr with permission p and returns
// the backing slice. This is the VM's hottest memory path (every load,
// store, push and pop), so the region resolution is inlined — unsigned
// wrap folds the two range compares into one — and the last region served
// is tried first: guest accesses run in bursts against one region (stack
// frames, buffer fills), and the hot-region probe skips the scan for
// them. The cache is only a search hint; every hit revalidates bounds and
// permissions.
func (m *Memory) access(addr uint32, n int, p Perm) ([]byte, *Fault) {
	r := m.hot
	if r != nil {
		if off := addr - r.Base; off < uint32(len(r.Data)) {
			return m.accessIn(r, addr, off, n, p)
		}
	}
	for _, r := range m.regions {
		off := addr - r.Base
		if off >= uint32(len(r.Data)) {
			continue
		}
		m.hot = r
		return m.accessIn(r, addr, off, n, p)
	}
	return nil, &Fault{Kind: faultKindForPerm(p), Addr: addr}
}

// accessIn validates and serves an access known to start inside r.
func (m *Memory) accessIn(r *Region, addr, off uint32, n int, p Perm) ([]byte, *Fault) {
	if r.Perm&p != p {
		return nil, &Fault{Kind: faultKindForPerm(p), Addr: addr}
	}
	if int(off)+n > len(r.Data) {
		// Access straddles the end of the region: fault at first bad byte.
		return nil, &Fault{Kind: faultKindForPerm(p), Addr: r.End()}
	}
	if p&PermWrite != 0 {
		if r.dirty != nil {
			r.markDirty(off, n)
		}
		if r.Perm&PermExec != 0 {
			// Self-modifying code: a successful store into an executable
			// region voids the covering predecoded cache lines.
			m.icacheInvalidate(addr, n)
		}
	}
	return r.Data[off : off+uint32(n)], nil
}

func faultKindForPerm(p Perm) FaultKind {
	if p&PermExec != 0 {
		return FaultFetch
	}
	return FaultMemory
}

// Read returns n bytes starting at addr, checking read permission.
func (m *Memory) Read(addr uint32, n int) ([]byte, *Fault) {
	return m.access(addr, n, PermRead)
}

// The width-specific Read/Write methods below open-code the hot-region
// probe before falling back to access: loads and stores are the VM's
// dominant operation and the extra call layers measurably cost. The fast
// path serves only plain in-bounds accesses against the hinted region
// with exactly the permissions required — writes additionally require the
// region non-executable (so self-modifying stores always take the slow
// path and invalidate the icache) — and performs the same dirty marking.

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) (uint32, *Fault) {
	if r := m.hot; r != nil && r.Perm&PermRead != 0 {
		if off := addr - r.Base; off < uint32(len(r.Data)) {
			return uint32(r.Data[off]), nil
		}
	}
	b, f := m.access(addr, 1, PermRead)
	if f != nil {
		return 0, f
	}
	return uint32(b[0]), nil
}

// Read16 reads a little-endian 16-bit value.
func (m *Memory) Read16(addr uint32) (uint32, *Fault) {
	b, f := m.access(addr, 2, PermRead)
	if f != nil {
		return 0, f
	}
	return uint32(b[0]) | uint32(b[1])<<8, nil
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint32) (uint32, *Fault) {
	if r := m.hot; r != nil && r.Perm&PermRead != 0 {
		if off := addr - r.Base; off < uint32(len(r.Data)) && int(off)+4 <= len(r.Data) {
			b := r.Data[off : off+4 : off+4]
			return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
		}
	}
	b, f := m.access(addr, 4, PermRead)
	if f != nil {
		return 0, f
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// ReadW reads a w-byte little-endian value (w in {1,2,4}).
func (m *Memory) ReadW(addr uint32, w uint8) (uint32, *Fault) {
	switch w {
	case 1:
		return m.Read8(addr)
	case 2:
		return m.Read16(addr)
	default:
		return m.Read32(addr)
	}
}

// Write8 writes one byte, checking write permission.
func (m *Memory) Write8(addr uint32, v uint32) *Fault {
	if r := m.hot; r != nil && r.Perm&(PermWrite|PermExec) == PermWrite {
		if off := addr - r.Base; off < uint32(len(r.Data)) {
			if r.dirty != nil {
				r.markDirty(off, 1)
			}
			r.Data[off] = byte(v)
			return nil
		}
	}
	b, f := m.access(addr, 1, PermWrite)
	if f != nil {
		return f
	}
	b[0] = byte(v)
	return nil
}

// Write16 writes a little-endian 16-bit value.
func (m *Memory) Write16(addr uint32, v uint32) *Fault {
	b, f := m.access(addr, 2, PermWrite)
	if f != nil {
		return f
	}
	b[0], b[1] = byte(v), byte(v>>8)
	return nil
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint32, v uint32) *Fault {
	if r := m.hot; r != nil && r.Perm&(PermWrite|PermExec) == PermWrite {
		if off := addr - r.Base; off < uint32(len(r.Data)) && int(off)+4 <= len(r.Data) {
			if r.dirty != nil {
				r.markDirty(off, 4)
			}
			b := r.Data[off : off+4 : off+4]
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			return nil
		}
	}
	b, f := m.access(addr, 4, PermWrite)
	if f != nil {
		return f
	}
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// WriteW writes a w-byte little-endian value (w in {1,2,4}).
func (m *Memory) WriteW(addr uint32, v uint32, w uint8) *Fault {
	switch w {
	case 1:
		return m.Write8(addr, v)
	case 2:
		return m.Write16(addr, v)
	default:
		return m.Write32(addr, v)
	}
}

// Fetch returns up to n instruction bytes at addr, checking execute
// permission. Fewer bytes are returned when the region ends before n; the
// decoder reports truncation, which becomes a fetch fault.
func (m *Memory) Fetch(addr uint32, n int) ([]byte, *Fault) {
	r := m.Find(addr)
	if r == nil || r.Perm&PermExec == 0 {
		return nil, &Fault{Kind: FaultFetch, Addr: addr}
	}
	off := addr - r.Base
	end := off + uint32(n)
	if end > uint32(len(r.Data)) {
		end = uint32(len(r.Data))
	}
	return r.Data[off:end], nil
}

// Poke writes bytes at addr ignoring permissions. It is the injector's
// (debugger's) memory access: ptrace POKETEXT can modify read-only text.
// Predecoded cache lines covering the poked bytes are invalidated, so the
// next fetch decodes the corrupted encoding.
func (m *Memory) Poke(addr uint32, data []byte) error {
	r := m.Find(addr)
	if r == nil || int(addr-r.Base)+len(data) > len(r.Data) {
		return fmt.Errorf("vm: poke at %#x: not mapped", addr)
	}
	copy(r.Data[addr-r.Base:], data)
	if r.dirty != nil && len(data) > 0 {
		r.markDirty(addr-r.Base, len(data))
	}
	m.icacheInvalidate(addr, len(data))
	return nil
}

// Peek reads bytes at addr ignoring permissions (debugger read).
func (m *Memory) Peek(addr uint32, n int) ([]byte, error) {
	r := m.Find(addr)
	if r == nil || int(addr-r.Base)+n > len(r.Data) {
		return nil, fmt.Errorf("vm: peek at %#x: not mapped", addr)
	}
	out := make([]byte, n)
	copy(out, r.Data[addr-r.Base:])
	return out, nil
}

// CString reads a NUL-terminated string at addr with a length cap,
// checking read permission. Used by the kernel for diagnostics. The
// region is resolved once and its backing slice scanned directly (the
// naive per-byte Read8 loop cost one full region lookup per character);
// fault semantics are unchanged: running past the last readable byte
// faults at the first unreadable address, and a string may span
// contiguously mapped regions.
func (m *Memory) CString(addr uint32, maxLen int) (string, *Fault) {
	out := make([]byte, 0, 32)
	for maxLen > 0 {
		r := m.Find(addr)
		if r == nil || r.Perm&PermRead == 0 {
			return "", &Fault{Kind: FaultMemory, Addr: addr}
		}
		data := r.Data[addr-r.Base:]
		if len(data) > maxLen {
			data = data[:maxLen]
		}
		if i := bytes.IndexByte(data, 0); i >= 0 {
			return string(append(out, data[:i]...)), nil
		}
		out = append(out, data...)
		maxLen -= len(data)
		addr += uint32(len(data))
	}
	return string(out), nil
}
