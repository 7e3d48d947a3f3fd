package cumulative

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"exterminator/internal/site"
)

// History persistence: §3.4 says cumulative mode "computes relevant
// statistics about each run and stores them in its patch file. The
// retained data is on the order of a few kilobytes per execution" —
// isolation must survive process restarts, so the (X, Y) observations,
// pad hints and deferral hints round-trip through a compact binary
// format.

const (
	persistMagic = 0x48435458 // "XTCH"
	// persistVersion is the only version DecodeHistory accepts: the
	// evidence, then the fleet upload watermark (watermark.go) led by
	// the history's lineage. Files of any other version are rejected.
	persistVersion = 3
)

// Encode writes the history.
func (hist *History) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	u32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	u64 := func(v uint64) { binary.Write(bw, binary.LittleEndian, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	u32(persistMagic)
	u32(persistVersion)
	f64(hist.cfg.C)
	f64(hist.cfg.P)
	u32(uint32(hist.Runs))
	u32(uint32(hist.FailedRuns))
	u32(uint32(hist.CorruptRuns))

	// Sites.
	u32(uint32(len(hist.sites)))
	for _, s := range sortedIDKeys(hist.sites) {
		u32(uint32(s))
	}

	// Overflow observations.
	u32(uint32(len(hist.overflow)))
	for _, s := range sortedIDKeys(hist.overflow) {
		obs := hist.overflow[s]
		u32(uint32(s))
		u32(uint32(len(obs)))
		for _, o := range obs {
			f64(o.X)
			if o.Y {
				u32(1)
			} else {
				u32(0)
			}
		}
	}

	// Dangling observations.
	u32(uint32(len(hist.dangling)))
	for _, p := range sortedPairKeys(hist.dangling) {
		obs := hist.dangling[p]
		u32(uint32(p.Alloc))
		u32(uint32(p.Free))
		u32(uint32(len(obs)))
		for _, o := range obs {
			f64(o.X)
			if o.Y {
				u32(1)
			} else {
				u32(0)
			}
		}
	}

	// Hints.
	u32(uint32(len(hist.padHint)))
	for _, s := range sortedIDKeys(hist.padHint) {
		u32(uint32(s))
		u32(hist.padHint[s])
	}
	u32(uint32(len(hist.dferHint)))
	for _, p := range sortedPairKeys(hist.dferHint) {
		u32(uint32(p.Alloc))
		u32(uint32(p.Free))
		u64(hist.dferHint[p])
	}

	// Upload watermark.
	m := &hist.uploaded
	u64(m.lineage)
	u32(uint32(m.runs))
	u32(uint32(m.failed))
	u32(uint32(m.corrupt))
	u32(uint32(len(m.sites)))
	for _, s := range sortedIDKeys(m.sites) {
		u32(uint32(s))
	}
	u32(uint32(len(m.overflow)))
	for _, s := range sortedIDKeys(m.overflow) {
		u32(uint32(s))
		u32(uint32(m.overflow[s]))
	}
	u32(uint32(len(m.dangling)))
	for _, p := range sortedPairKeys(m.dangling) {
		u32(uint32(p.Alloc))
		u32(uint32(p.Free))
		u32(uint32(m.dangling[p]))
	}
	u32(uint32(len(m.pad)))
	for _, s := range sortedIDKeys(m.pad) {
		u32(uint32(s))
		u32(m.pad[s])
	}
	u32(uint32(len(m.dfer)))
	for _, p := range sortedPairKeys(m.dfer) {
		u32(uint32(p.Alloc))
		u32(uint32(p.Free))
		u64(m.dfer[p])
	}
	return bw.Flush()
}

// DecodeHistory reads a history written by Encode.
func DecodeHistory(r io.Reader) (*History, error) {
	br := bufio.NewReader(r)
	var err error
	u32 := func() uint32 {
		var v uint32
		if err == nil {
			err = binary.Read(br, binary.LittleEndian, &v)
		}
		return v
	}
	u64 := func() uint64 {
		var v uint64
		if err == nil {
			err = binary.Read(br, binary.LittleEndian, &v)
		}
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }

	if m := u32(); err != nil || m != persistMagic {
		if err == nil {
			err = errors.New("bad magic")
		}
		return nil, fmt.Errorf("cumulative: %w", err)
	}
	version := u32()
	if err != nil || version != persistVersion {
		if err == nil {
			err = fmt.Errorf("unsupported version %d", version)
		}
		return nil, fmt.Errorf("cumulative: %w", err)
	}
	cfg := Config{C: f64(), P: f64()}
	hist := NewHistory(cfg)
	hist.Runs = int(u32())
	hist.FailedRuns = int(u32())
	hist.CorruptRuns = int(u32())

	const maxEntries = 1 << 22
	nSites := u32()
	if err != nil || nSites > maxEntries {
		return nil, fmt.Errorf("cumulative: sites: %w", orImplausible(err))
	}
	for i := uint32(0); i < nSites; i++ {
		hist.sites[site.ID(u32())] = true
	}

	nOvf := u32()
	if err != nil || nOvf > maxEntries {
		return nil, fmt.Errorf("cumulative: overflow keys: %w", orImplausible(err))
	}
	for i := uint32(0); i < nOvf; i++ {
		s := site.ID(u32())
		n := u32()
		if err != nil || n > maxEntries {
			return nil, fmt.Errorf("cumulative: overflow obs: %w", orImplausible(err))
		}
		// Capacity capped: a forged count must not pre-allocate beyond
		// what the bytes present can actually fill.
		obs := make([]Observation, 0, min(n, 1024))
		for j := uint32(0); j < n && err == nil; j++ {
			x := f64()
			y := u32() == 1
			obs = append(obs, Observation{X: x, Y: y})
		}
		hist.overflow[s] = obs
		hist.touchOverflow(s)
	}

	nDan := u32()
	if err != nil || nDan > maxEntries {
		return nil, fmt.Errorf("cumulative: dangling keys: %w", orImplausible(err))
	}
	for i := uint32(0); i < nDan; i++ {
		p := site.Pair{Alloc: site.ID(u32()), Free: site.ID(u32())}
		n := u32()
		if err != nil || n > maxEntries {
			return nil, fmt.Errorf("cumulative: dangling obs: %w", orImplausible(err))
		}
		obs := make([]Observation, 0, min(n, 1024))
		for j := uint32(0); j < n && err == nil; j++ {
			x := f64()
			y := u32() == 1
			obs = append(obs, Observation{X: x, Y: y})
		}
		hist.dangling[p] = obs
		hist.touchDangling(p)
	}

	nPadH := u32()
	if err != nil || nPadH > maxEntries {
		return nil, fmt.Errorf("cumulative: pad hints: %w", orImplausible(err))
	}
	for i := uint32(0); i < nPadH; i++ {
		s := site.ID(u32())
		hist.padHint[s] = u32()
	}
	nDefH := u32()
	if err != nil || nDefH > maxEntries {
		return nil, fmt.Errorf("cumulative: deferral hints: %w", orImplausible(err))
	}
	for i := uint32(0); i < nDefH; i++ {
		p := site.Pair{Alloc: site.ID(u32()), Free: site.ID(u32())}
		hist.dferHint[p] = u64()
	}

	hist.uploaded.init()
	m := &hist.uploaded
	m.lineage = u64()
	m.runs = int(u32())
	m.failed = int(u32())
	m.corrupt = int(u32())
	nUpSites := u32()
	if err != nil || nUpSites > maxEntries {
		return nil, fmt.Errorf("cumulative: watermark sites: %w", orImplausible(err))
	}
	for i := uint32(0); i < nUpSites; i++ {
		m.sites[site.ID(u32())] = true
	}
	nUpOvf := u32()
	if err != nil || nUpOvf > maxEntries {
		return nil, fmt.Errorf("cumulative: watermark overflow: %w", orImplausible(err))
	}
	for i := uint32(0); i < nUpOvf; i++ {
		s := site.ID(u32())
		m.overflow[s] = int(u32())
	}
	nUpDan := u32()
	if err != nil || nUpDan > maxEntries {
		return nil, fmt.Errorf("cumulative: watermark dangling: %w", orImplausible(err))
	}
	for i := uint32(0); i < nUpDan; i++ {
		p := site.Pair{Alloc: site.ID(u32()), Free: site.ID(u32())}
		m.dangling[p] = int(u32())
	}
	nUpPad := u32()
	if err != nil || nUpPad > maxEntries {
		return nil, fmt.Errorf("cumulative: watermark pads: %w", orImplausible(err))
	}
	for i := uint32(0); i < nUpPad; i++ {
		s := site.ID(u32())
		m.pad[s] = u32()
	}
	nUpDfer := u32()
	if err != nil || nUpDfer > maxEntries {
		return nil, fmt.Errorf("cumulative: watermark deferrals: %w", orImplausible(err))
	}
	for i := uint32(0); i < nUpDfer; i++ {
		p := site.Pair{Alloc: site.ID(u32()), Free: site.ID(u32())}
		m.dfer[p] = u64()
	}
	// A corrupt file could carry a watermark ahead of the evidence it
	// claims was uploaded; clamping keeps upload deltas non-negative
	// and guarantees evidence can never be silently un-uploadable.
	hist.clampWatermark()
	if err != nil {
		return nil, fmt.Errorf("cumulative: %w", err)
	}
	return hist, nil
}

func orImplausible(err error) error {
	if err != nil {
		return err
	}
	return errors.New("implausible entry count")
}

// Equal compares two histories field by field (for tests).
func (hist *History) Equal(other *History) bool {
	if hist.Runs != other.Runs || hist.FailedRuns != other.FailedRuns ||
		hist.CorruptRuns != other.CorruptRuns ||
		hist.cfg != other.cfg ||
		len(hist.sites) != len(other.sites) ||
		len(hist.overflow) != len(other.overflow) ||
		len(hist.dangling) != len(other.dangling) ||
		len(hist.padHint) != len(other.padHint) ||
		len(hist.dferHint) != len(other.dferHint) {
		return false
	}
	for s := range hist.sites {
		if !other.sites[s] {
			return false
		}
	}
	for s, obs := range hist.overflow {
		if !sameObs(obs, other.overflow[s]) {
			return false
		}
	}
	for p, obs := range hist.dangling {
		if !sameObs(obs, other.dangling[p]) {
			return false
		}
	}
	for s, v := range hist.padHint {
		if other.padHint[s] != v {
			return false
		}
	}
	for p, v := range hist.dferHint {
		if other.dferHint[p] != v {
			return false
		}
	}
	return true
}

func sameObs(a, b []Observation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedIDKeys returns a map's site.ID keys in ascending order — the
// single canonical key order every encoder and snapshot in this package
// shares.
func sortedIDKeys[V any](m map[site.ID]V) []site.ID {
	out := make([]site.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedPairKeys returns a map's site.Pair keys ordered by (Alloc, Free).
func sortedPairKeys[V any](m map[site.Pair]V) []site.Pair {
	out := make([]site.Pair, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Alloc != out[j].Alloc {
			return out[i].Alloc < out[j].Alloc
		}
		return out[i].Free < out[j].Free
	})
	return out
}
