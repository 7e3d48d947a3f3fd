package codec

import (
	"math"

	"exterminator/internal/cumulative"
	"exterminator/internal/site"
)

// Snapshot payload layout (embedded in FrameBatch, FrameDelta and
// FrameState payloads; it is self-delimiting):
//
//	f64 c | f64 p
//	uvarint runs | failedRuns | corruptRuns
//	sites:    uvarint n | n × svarint site delta
//	overflow: uvarint groups | uvarint totalObs
//	          groups × (svarint site delta | uvarint obsCount)
//	          totalObs × f64 X | ceil(totalObs/8) bytes Y bits
//	dangling: uvarint groups | uvarint totalObs
//	          groups × (svarint alloc delta | uvarint free | uvarint obsCount)
//	          totalObs × f64 X | ceil(totalObs/8) bytes Y bits
//	padHints:      uvarint n | n × (svarint site delta | uvarint pad)
//	deferralHints: uvarint n | n × (svarint alloc delta | uvarint free | uvarint deferral)
//
// Site columns are zigzag deltas against the previous entry in the same
// column (first entry deltas against zero). Observation X values are
// one contiguous float64 run and Y one packed bit run, in group order —
// the columnar shape that lets the decoder allocate a single backing
// observation array per section and hand out exact sub-slices.

// appendSnapshot encodes s (nil encodes as an all-zero snapshot guarded
// by the caller's has-snapshot flag) into buf.
func appendSnapshot(buf *Buffer, s *cumulative.Snapshot) {
	buf.f64(s.C)
	buf.f64(s.P)
	buf.uvarint(uint64(s.Runs))
	buf.uvarint(uint64(s.FailedRuns))
	buf.uvarint(uint64(s.CorruptRuns))

	buf.uvarint(uint64(len(s.Sites)))
	prev := int64(0)
	for _, id := range s.Sites {
		buf.svarint(int64(id) - prev)
		prev = int64(id)
	}

	total := 0
	for _, g := range s.Overflow {
		total += len(g.Obs)
	}
	buf.uvarint(uint64(len(s.Overflow)))
	buf.uvarint(uint64(total))
	prev = 0
	for _, g := range s.Overflow {
		buf.svarint(int64(g.Site) - prev)
		prev = int64(g.Site)
		buf.uvarint(uint64(len(g.Obs)))
	}
	for _, g := range s.Overflow {
		for _, o := range g.Obs {
			buf.f64(o.X)
		}
	}
	appendYBits(buf, total, func(yield func(bool)) {
		for _, g := range s.Overflow {
			for _, o := range g.Obs {
				yield(o.Y)
			}
		}
	})

	total = 0
	for _, g := range s.Dangling {
		total += len(g.Obs)
	}
	buf.uvarint(uint64(len(s.Dangling)))
	buf.uvarint(uint64(total))
	prev = 0
	for _, g := range s.Dangling {
		buf.svarint(int64(g.Alloc) - prev)
		prev = int64(g.Alloc)
		buf.uvarint(uint64(g.Free))
		buf.uvarint(uint64(len(g.Obs)))
	}
	for _, g := range s.Dangling {
		for _, o := range g.Obs {
			buf.f64(o.X)
		}
	}
	appendYBits(buf, total, func(yield func(bool)) {
		for _, g := range s.Dangling {
			for _, o := range g.Obs {
				yield(o.Y)
			}
		}
	})

	buf.uvarint(uint64(len(s.PadHints)))
	prev = 0
	for _, h := range s.PadHints {
		buf.svarint(int64(h.Site) - prev)
		prev = int64(h.Site)
		buf.uvarint(uint64(h.Pad))
	}

	buf.uvarint(uint64(len(s.DeferralHints)))
	prev = 0
	for _, h := range s.DeferralHints {
		buf.svarint(int64(h.Alloc) - prev)
		prev = int64(h.Alloc)
		buf.uvarint(uint64(h.Free))
		buf.uvarint(h.Deferral)
	}
}

// appendYBits packs total booleans produced by walk into buf, LSB
// first within each byte.
func appendYBits(buf *Buffer, total int, walk func(yield func(bool))) {
	start := len(buf.B)
	buf.B = append(buf.B, make([]byte, (total+7)/8)...)
	i := 0
	walk(func(y bool) {
		if y {
			buf.B[start+i/8] |= 1 << (i % 8)
		}
		i++
	})
}

// readSnapshot decodes one snapshot payload from r's current position,
// allocating each output slice at its exact final size. An observation
// section allocates its group slice and one backing observation array,
// both sized from its header, and each group's observations are a
// full-capacity sub-slice of that array.
func readSnapshot(r *reader) *cumulative.Snapshot {
	s := &cumulative.Snapshot{}
	s.C = r.f64()
	s.P = r.f64()
	s.Runs = r.nonNeg("run counter")
	s.FailedRuns = r.nonNeg("run counter")
	s.CorruptRuns = r.nonNeg("run counter")

	if n := r.count(1, "site"); n > 0 {
		s.Sites = make([]site.ID, n)
		prev := int64(0)
		for i := range s.Sites {
			s.Sites[i] = r.siteID(&prev)
		}
	}

	if groups, obs := readObsHeader(r, 2); groups > 0 {
		s.Overflow = make([]cumulative.SiteObservations, groups)
		prev, off := int64(0), 0
		for i := range s.Overflow {
			s.Overflow[i].Site = r.siteID(&prev)
			s.Overflow[i].Obs, off = r.groupObs(obs, off)
		}
		readObsColumns(r, obs, off)
	}
	if groups, obs := readObsHeader(r, 3); groups > 0 {
		s.Dangling = make([]cumulative.PairObservations, groups)
		prev, off := int64(0), 0
		for i := range s.Dangling {
			s.Dangling[i].Alloc = r.siteID(&prev)
			s.Dangling[i].Free = r.freeSite()
			s.Dangling[i].Obs, off = r.groupObs(obs, off)
		}
		readObsColumns(r, obs, off)
	}

	if n := r.count(2, "pad hint"); n > 0 {
		s.PadHints = make([]cumulative.PadHint, n)
		prev := int64(0)
		for i := range s.PadHints {
			s.PadHints[i].Site = r.siteID(&prev)
			s.PadHints[i].Pad = r.pad()
		}
	}
	if n := r.count(3, "deferral hint"); n > 0 {
		s.DeferralHints = make([]cumulative.DeferralHint, n)
		prev := int64(0)
		for i := range s.DeferralHints {
			s.DeferralHints[i].Alloc = r.siteID(&prev)
			s.DeferralHints[i].Free = r.freeSite()
			s.DeferralHints[i].Deferral = r.uvarint()
		}
	}
	return s
}

// pad reads a uint32 pad value.
func (r *reader) pad() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("pad %d out of range", v)
		return 0
	}
	return uint32(v)
}

// freeSite reads an absolute (non-delta) site ID.
func (r *reader) freeSite() site.ID {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("site id %d out of range", v)
		return 0
	}
	return site.ID(v)
}

// readObsHeader reads an observation section's group count (each group
// header costs at least perGroup bytes) and observation total, and
// returns the group count with the section's backing observation array.
// The total precedes the group headers, so the array is sized once, from
// a total the remaining bytes can hold; the groups are carved from it as
// their headers arrive (groupObs). groups is 0 when the section is empty
// or r has failed.
func readObsHeader(r *reader, perGroup int) (groups int, obs []cumulative.Observation) {
	groups = r.count(perGroup, "observation group")
	total := r.uvarint()
	if r.err != nil {
		return 0, nil
	}
	// Each observation costs 8 bytes of X column alone; a total the
	// remaining bytes cannot hold is a forgery.
	if total > uint64(r.rem()/8) {
		r.fail("forged observation total %d exceeds remaining %d bytes", total, r.rem())
		return 0, nil
	}
	if groups == 0 {
		if total != 0 {
			r.fail("observation total %d with zero groups", total)
		}
		return 0, nil
	}
	return groups, make([]cumulative.Observation, total)
}

// groupObs reads one group header's observation count and carves that
// many observations from obs at off, as a full-capacity sub-slice. A
// count that overruns the section total fails r.
func (r *reader) groupObs(obs []cumulative.Observation, off int) ([]cumulative.Observation, int) {
	n := r.uvarint()
	if r.err != nil {
		return nil, off
	}
	if n > uint64(len(obs)-off) {
		r.fail("observation group counts exceed section total %d", len(obs))
		return nil, off
	}
	end := off + int(n)
	return obs[off:end:end], end
}

// readObsColumns checks that the group counts, summing to carved, add up
// to the section total, then reads the section's columnar X run and Y
// bits into obs.
func readObsColumns(r *reader, obs []cumulative.Observation, carved int) {
	if r.err != nil {
		return
	}
	if carved != len(obs) {
		r.fail("observation group counts sum %d, header says %d", carved, len(obs))
		return
	}
	for i := range obs {
		obs[i].X = r.f64()
		// The negated test also rejects NaN.
		if r.probs && !(obs[i].X >= 0 && obs[i].X <= 1) {
			r.fail("observation X %v is not a probability in [0, 1]", obs[i].X)
			return
		}
	}
	readYBits(r, obs)
}

// readYBits unpacks len(obs) Y bits into obs.
func readYBits(r *reader, obs []cumulative.Observation) {
	nbytes := (len(obs) + 7) / 8
	if r.rem() < nbytes {
		r.fail("truncated Y bit column")
		return
	}
	bits := r.b[r.off : r.off+nbytes]
	r.off += nbytes
	for i := range obs {
		obs[i].Y = bits[i/8]&(1<<(i%8)) != 0
	}
}
