package fleet

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"exterminator/internal/fleet/codec"
)

// The binary v2 frame (internal/fleet/codec, spec in docs/PROTOCOL.md
// "Binary v2 frames") is the one representation of evidence and of every
// tier-internal poll: observation batches, delta polls, the drained
// evidence POST /v1/evict answers, and the patch polls fleet clients and
// replicas send. Only GET /v1/patches still answers JSON, to a request
// that does not ask for frames, because people read that endpoint with
// curl. Each frame's message is declared once, in the codec package;
// this file only moves those messages between HTTP bodies and frames.

// writePatchSet answers a patch poll: a v2 frame when the request's
// Accept header names the v2 media type, the JSON document otherwise.
func writePatchSet(w http.ResponseWriter, r *http.Request, ps *codec.PatchSet) {
	if !strings.Contains(r.Header.Get("Accept"), codec.ContentTypeV2) {
		WriteJSON(w, ps)
		return
	}
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	writeFrame(w, codec.EncodePatches(buf, ps))
}

// writeDelta answers a delta poll with a v2 frame, whatever the
// request's Accept header says.
func writeDelta(w http.ResponseWriter, d *codec.Delta) {
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	writeFrame(w, codec.EncodeDelta(buf, d))
}

// writeFrame writes an encoded frame as the response body, declaring its
// length: a body over net/http's 2 KB buffer would otherwise go out
// chunked, and readBody would have to grow its slice to fit.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", codec.ContentTypeV2)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// maxResponseBytes bounds client-side reads of response bodies. Every
// body fleet.Client decodes or keeps whole (frames, JSON replies, triage
// pages) is read by readBody under it.
const maxResponseBytes = 64 << 20

// readBody reads a whole response body under maxResponseBytes, and
// refuses a longer one rather than hand a prefix to a decoder. A body
// that declares its Content-Length is read into one slice of exactly
// that size.
func readBody(resp *http.Response, what string) ([]byte, error) {
	var data []byte
	var err error
	switch n := resp.ContentLength; {
	case n > maxResponseBytes:
		err = fmt.Errorf("%d bytes exceed the %d-byte limit", n, maxResponseBytes)
	case n >= 0:
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	default:
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
		if err == nil && len(data) > maxResponseBytes {
			err = fmt.Errorf("an undeclared body exceeds the %d-byte limit", maxResponseBytes)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: read %s: %w", what, err)
	}
	return data, nil
}
