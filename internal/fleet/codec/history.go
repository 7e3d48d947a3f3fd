package codec

import "exterminator/internal/cumulative"

// A history file (exterminate -save-history, -resume-history) is one
// FrameHistory frame: a cumulative.History divided at its upload
// watermark by History.Split, so a resumed session uploads only the
// evidence no fleet acknowledged.
//
// Payload layout:
//
//	u64 lineage
//	uploaded snapshot payload
//	pending snapshot payload
//
// Both halves list each key's observations in the history's stored
// order, not the canonical order: the watermark counts a key's uploaded
// observations from the front of its list, and sorting would move that
// boundary.

// EncodeHistory appends h as a complete FrameHistory frame; the returned
// bytes alias buf.
func EncodeHistory(buf *Buffer, h *cumulative.History) []byte {
	uploaded, pending := h.Split()
	start := buf.beginFrame(FrameHistory)
	buf.u64(uploaded.Lineage)
	appendSnapshot(buf, uploaded)
	appendSnapshot(buf, pending)
	return buf.endFrame(start)
}

// DecodeHistory decodes a FrameHistory frame into the history it holds
// (cumulative.Restore). Like DecodeBatch it rejects any observation X
// that is not a finite number in [0, 1].
func DecodeHistory(data []byte) (*cumulative.History, error) {
	payload, err := expectFrame(data, FrameHistory)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	lineage := r.u64()
	uploaded := readSnapshot(r)
	pending := readSnapshot(r)
	if err := r.finish(); err != nil {
		return nil, err
	}
	uploaded.Lineage = lineage
	return cumulative.Restore(uploaded, pending), nil
}
