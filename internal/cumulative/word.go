package cumulative

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// word is how a History stores one observation: eight bytes, X's float64
// bits in bits 0–62 and Y in bit 63. An Observation value takes sixteen
// (8 for X, 1 for Y, 7 of padding), so every observation list a history
// holds, copies and regrows is half that size.
//
// X is a probability in [0, 1], so its sign bit carries nothing, and
// packing clears it: a −0 (which the codec's X >= 0 check admits) is
// stored, and reads back, as +0. Words compare as integers, so a hit at
// X = 0 (bit 63 alone) never equals a miss at X = 0 (no bit set), as it
// would if the word were read as a float64 (−0 == +0).
//
// Evidence is packed where it enters a history (Absorb, RecordRun) and
// unpacked where it leaves (Snapshot, UploadDelta, Split, Extract,
// ObservationsFor); the scorer reads words directly.
type word uint64

const hitBit word = 1 << 63

// pack stores o as a word. o.X must lie in [0, 1].
func pack(o Observation) word {
	w := word(math.Float64bits(o.X)) &^ hitBit
	if o.Y {
		w |= hitBit
	}
	return w
}

// hit reports the observation's Y.
func (w word) hit() bool { return w&hitBit != 0 }

// x returns the observation's X.
func (w word) x() float64 { return math.Float64frombits(uint64(w &^ hitBit)) }

// appendPacked appends obs to ws as words, growing ws at most once.
func appendPacked(ws []word, obs []Observation) []word {
	ws = slices.Grow(ws, len(obs))
	for _, o := range obs {
		ws = append(ws, pack(o))
	}
	return ws
}

// unpack returns ws's observations, in ws's order, in a new slice (nil
// for none).
func unpack(ws []word) []Observation {
	if len(ws) == 0 {
		return nil
	}
	obs := make([]Observation, len(ws))
	for i, w := range ws {
		obs[i] = Observation{X: w.x(), Y: w.hit()}
	}
	return obs
}

// order is w's place in the canonical order: by X, then misses before
// hits. Rotated left by one bit, a word holds X's bits above Y, and the
// float64 bits of values in [0, 1] order as the values do.
func (w word) order() uint64 { return bits.RotateLeft64(uint64(w), 1) }

// sortWords sorts words into canonical order.
func sortWords(ws []word) {
	slices.SortFunc(ws, func(a, b word) int { return cmp.Compare(a.order(), b.order()) })
}

// canonical returns ws's observations in canonical order, leaving ws as
// it is: it sorts a copy in *buf, which it grows as needed, so a caller
// exporting many keys reuses one buffer for all of them.
func canonical(ws []word, buf *[]word) []Observation {
	*buf = append((*buf)[:0], ws...)
	sortWords(*buf)
	return unpack(*buf)
}
