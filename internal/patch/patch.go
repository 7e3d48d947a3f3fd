// Package patch implements Exterminator's runtime patches (paper §6).
//
// A patch set holds two tables keyed by call sites:
//
//   - the pad table maps an allocation site to the number of extra bytes
//     every allocation from that site receives, containing buffer
//     overflows (§6.1);
//   - the deferral table maps an (allocation site, deallocation site) pair
//     to an allocation-clock delay applied to frees from that pair,
//     preventing premature reuse by dangling pointers (§6.2).
//
// Patches compose by taking maxima, which makes Merge a join on a
// semilattice: commutative, associative and idempotent. That is what
// enables collaborative correction (§6.4) — users merge patch files
// freely and the result covers every observed error.
//
// This package holds the set and its text form, for people. The one
// binary encoding is the codec's PatchSet frame (internal/fleet/codec):
// what GET /v1/patches serves and what a patch file holds
// (engine.PatchFile, engine.LoadPatchFile).
package patch

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"exterminator/internal/site"
)

// Set is a runtime patch set. The zero value is not usable; call New.
type Set struct {
	// Pads maps allocation site → trailing pad bytes (forward overflows).
	Pads map[site.ID]uint32
	// FrontPads maps allocation site → leading pad bytes. Front pads
	// contain *backward* overflows (underflows) — the extension the
	// paper's §2.1 describes but does not implement: the allocator
	// over-allocates and returns an interior pointer, so writes before
	// the object land in owned space.
	FrontPads map[site.ID]uint32
	// Deferrals maps (alloc site, free site) → allocation-clock deferral.
	Deferrals map[site.Pair]uint64
}

// New returns an empty patch set.
func New() *Set {
	return &Set{
		Pads:      make(map[site.ID]uint32),
		FrontPads: make(map[site.ID]uint32),
		Deferrals: make(map[site.Pair]uint64),
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := New()
	for k, v := range s.Pads {
		c.Pads[k] = v
	}
	for k, v := range s.FrontPads {
		c.FrontPads[k] = v
	}
	for k, v := range s.Deferrals {
		c.Deferrals[k] = v
	}
	return c
}

// AddPad records a pad for an allocation site, keeping the maximum pad
// seen so far (§6.1). It reports whether the set changed.
func (s *Set) AddPad(a site.ID, pad uint32) bool {
	if pad == 0 {
		return false
	}
	if cur, ok := s.Pads[a]; ok && cur >= pad {
		return false
	}
	s.Pads[a] = pad
	return true
}

// AddFrontPad records a leading pad for an allocation site, keeping the
// maximum. It reports whether the set changed.
func (s *Set) AddFrontPad(a site.ID, pad uint32) bool {
	if pad == 0 {
		return false
	}
	if cur, ok := s.FrontPads[a]; ok && cur >= pad {
		return false
	}
	s.FrontPads[a] = pad
	return true
}

// AddDeferral records a deallocation deferral for a site pair, keeping the
// maximum (§6.2). It reports whether the set changed.
func (s *Set) AddDeferral(p site.Pair, d uint64) bool {
	if d == 0 {
		return false
	}
	if cur, ok := s.Deferrals[p]; ok && cur >= d {
		return false
	}
	s.Deferrals[p] = d
	return true
}

// Pad returns the trailing pad for an allocation site (0 if none).
func (s *Set) Pad(a site.ID) uint32 { return s.Pads[a] }

// FrontPad returns the leading pad for an allocation site (0 if none).
func (s *Set) FrontPad(a site.ID) uint32 { return s.FrontPads[a] }

// Deferral returns the deferral for a site pair (0 if none).
func (s *Set) Deferral(p site.Pair) uint64 { return s.Deferrals[p] }

// Len returns the total number of patch entries.
func (s *Set) Len() int { return len(s.Pads) + len(s.FrontPads) + len(s.Deferrals) }

// Merge folds other into s by taking maxima (§6.4). It reports whether s
// changed.
func (s *Set) Merge(other *Set) bool {
	changed := false
	for k, v := range other.Pads {
		if s.AddPad(k, v) {
			changed = true
		}
	}
	for k, v := range other.FrontPads {
		if s.AddFrontPad(k, v) {
			changed = true
		}
	}
	for k, v := range other.Deferrals {
		if s.AddDeferral(k, v) {
			changed = true
		}
	}
	return changed
}

// Diff returns the entries in s that are absent from (or stronger than
// in) base — the delta that Merge(base, diff) needs to reconstruct s.
// Like Merge, it compares by the semilattice order: an entry counts only
// if its value exceeds base's.
func (s *Set) Diff(base *Set) *Set {
	out := New()
	if base == nil {
		base = out
	}
	for k, v := range s.Pads {
		if v > base.Pad(k) {
			out.Pads[k] = v
		}
	}
	for k, v := range s.FrontPads {
		if v > base.FrontPad(k) {
			out.FrontPads[k] = v
		}
	}
	for k, v := range s.Deferrals {
		if v > base.Deferral(k) {
			out.Deferrals[k] = v
		}
	}
	return out
}

// Equal reports whether two sets contain identical patches.
func (s *Set) Equal(other *Set) bool {
	if len(s.Pads) != len(other.Pads) || len(s.FrontPads) != len(other.FrontPads) ||
		len(s.Deferrals) != len(other.Deferrals) {
		return false
	}
	for k, v := range s.Pads {
		if other.Pads[k] != v {
			return false
		}
	}
	for k, v := range s.FrontPads {
		if other.FrontPads[k] != v {
			return false
		}
	}
	for k, v := range s.Deferrals {
		if other.Deferrals[k] != v {
			return false
		}
	}
	return true
}

// String renders the set in the text format (sorted, deterministic).
func (s *Set) String() string {
	var b strings.Builder
	s.encodeText(&b)
	return b.String()
}

// EncodeText writes a human-readable line-oriented format:
//
//	pad <allocsite-hex> <bytes>
//	defer <allocsite-hex> <freesite-hex> <allocations>
func (s *Set) EncodeText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s.encodeText(bw)
	return bw.Flush()
}

func (s *Set) encodeText(w io.Writer) {
	for _, k := range sortedPadSites(s.Pads) {
		fmt.Fprintf(w, "pad %08x %d\n", uint32(k), s.Pads[k])
	}
	for _, k := range sortedPadSites(s.FrontPads) {
		fmt.Fprintf(w, "fpad %08x %d\n", uint32(k), s.FrontPads[k])
	}
	for _, k := range sortedPairs(s.Deferrals) {
		fmt.Fprintf(w, "defer %08x %08x %d\n", uint32(k.Alloc), uint32(k.Free), s.Deferrals[k])
	}
}

// DecodeText parses the text format. Blank lines and #-comments are
// ignored.
func DecodeText(r io.Reader) (*Set, error) {
	s := New()
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "pad", "fpad":
			if len(fields) != 3 {
				return nil, fmt.Errorf("patch: line %d: want 'pad <site> <bytes>'", line)
			}
			var sid uint32
			var pad uint32
			if _, err := fmt.Sscanf(fields[1], "%x", &sid); err != nil {
				return nil, fmt.Errorf("patch: line %d: bad site: %v", line, err)
			}
			if _, err := fmt.Sscanf(fields[2], "%d", &pad); err != nil {
				return nil, fmt.Errorf("patch: line %d: bad pad: %v", line, err)
			}
			if fields[0] == "fpad" {
				s.AddFrontPad(site.ID(sid), pad)
			} else {
				s.AddPad(site.ID(sid), pad)
			}
		case "defer":
			if len(fields) != 4 {
				return nil, fmt.Errorf("patch: line %d: want 'defer <alloc> <free> <n>'", line)
			}
			var a, f uint32
			var d uint64
			if _, err := fmt.Sscanf(fields[1], "%x", &a); err != nil {
				return nil, fmt.Errorf("patch: line %d: bad alloc site: %v", line, err)
			}
			if _, err := fmt.Sscanf(fields[2], "%x", &f); err != nil {
				return nil, fmt.Errorf("patch: line %d: bad free site: %v", line, err)
			}
			if _, err := fmt.Sscanf(fields[3], "%d", &d); err != nil {
				return nil, fmt.Errorf("patch: line %d: bad deferral: %v", line, err)
			}
			s.AddDeferral(site.Pair{Alloc: site.ID(a), Free: site.ID(f)}, d)
		default:
			return nil, fmt.Errorf("patch: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func sortedPadSites(m map[site.ID]uint32) []site.ID {
	keys := make([]site.ID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortedPairs(m map[site.Pair]uint64) []site.Pair {
	keys := make([]site.Pair, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Alloc != keys[j].Alloc {
			return keys[i].Alloc < keys[j].Alloc
		}
		return keys[i].Free < keys[j].Free
	})
	return keys
}
