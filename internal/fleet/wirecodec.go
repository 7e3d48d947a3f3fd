package fleet

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"exterminator/internal/fleet/codec"
)

// The binary v2 frame (internal/fleet/codec, spec in docs/PROTOCOL.md
// "Binary v2 frames") is the one representation on every upload and every
// tier-internal poll: observation batches, delta polls and the patch
// polls fleet clients and replicas send. Only GET /v1/patches still
// answers JSON, to a request that does not ask for frames, because
// people read that endpoint with curl.

// The conversions between the fleet wire structs and the codec's
// neutral forms are shape-preserving field copies: the codec package
// cannot import fleet (fleet imports it), so each side owns its own
// struct and a conversion pays a few slice copies, never a re-encode.

// encodeBatchFrame appends b to buf as a FrameBatch frame; the returned
// bytes alias buf.
func encodeBatchFrame(buf *codec.Buffer, b *ObservationBatch) []byte {
	return codec.EncodeBatch(buf, &codec.Batch{
		Client:      b.Client,
		BatchID:     b.BatchID,
		RingVersion: b.RingVersion,
		Snapshot:    b.Snapshot,
	})
}

func patchSetToCodec(w *WirePatchSet) *codec.PatchSet {
	ps := &codec.PatchSet{Version: w.Version, Epoch: w.Epoch}
	if len(w.Pads) > 0 {
		ps.Pads = make([]codec.PadEntry, len(w.Pads))
		for i, e := range w.Pads {
			ps.Pads[i] = codec.PadEntry{Site: e.Site, Pad: e.Pad}
		}
	}
	if len(w.FrontPads) > 0 {
		ps.FrontPads = make([]codec.PadEntry, len(w.FrontPads))
		for i, e := range w.FrontPads {
			ps.FrontPads[i] = codec.PadEntry{Site: e.Site, Pad: e.Pad}
		}
	}
	if len(w.Deferrals) > 0 {
		ps.Deferrals = make([]codec.DeferralEntry, len(w.Deferrals))
		for i, e := range w.Deferrals {
			ps.Deferrals[i] = codec.DeferralEntry{Alloc: e.Alloc, Free: e.Free, Deferral: e.Deferral}
		}
	}
	return ps
}

func patchSetFromCodec(ps *codec.PatchSet) *WirePatchSet {
	w := &WirePatchSet{Version: ps.Version, Epoch: ps.Epoch}
	if len(ps.Pads) > 0 {
		w.Pads = make([]PadEntry, len(ps.Pads))
		for i, e := range ps.Pads {
			w.Pads[i] = PadEntry{Site: e.Site, Pad: e.Pad}
		}
	}
	if len(ps.FrontPads) > 0 {
		w.FrontPads = make([]PadEntry, len(ps.FrontPads))
		for i, e := range ps.FrontPads {
			w.FrontPads[i] = PadEntry{Site: e.Site, Pad: e.Pad}
		}
	}
	if len(ps.Deferrals) > 0 {
		w.Deferrals = make([]DeferralEntry, len(ps.Deferrals))
		for i, e := range ps.Deferrals {
			w.Deferrals[i] = DeferralEntry{Alloc: e.Alloc, Free: e.Free, Deferral: e.Deferral}
		}
	}
	return w
}

func deltaToCodec(d *SnapshotDelta) *codec.Delta {
	cd := &codec.Delta{
		Epoch:    d.Epoch,
		Seq:      d.Seq,
		Full:     d.Full,
		Snapshot: d.Snapshot,
		ReqIDs:   d.ReqIDs,
	}
	if len(d.Ops) > 0 {
		cd.Ops = make([]codec.DeltaOp, len(d.Ops))
		for i, op := range d.Ops {
			cd.Ops[i] = codec.DeltaOp{Evict: op.Evict, Snapshot: op.Snapshot}
		}
	}
	return cd
}

func deltaFromCodec(cd *codec.Delta) *SnapshotDelta {
	d := &SnapshotDelta{
		Epoch:    cd.Epoch,
		Seq:      cd.Seq,
		Full:     cd.Full,
		Snapshot: cd.Snapshot,
		ReqIDs:   cd.ReqIDs,
	}
	if len(cd.Ops) > 0 {
		d.Ops = make([]DeltaOp, len(cd.Ops))
		for i, op := range cd.Ops {
			d.Ops[i] = DeltaOp{Evict: op.Evict, Snapshot: op.Snapshot}
		}
	}
	return d
}

// writePatchSet answers a patch poll: a v2 frame when the request's
// Accept header names the v2 media type, the JSON document otherwise.
func writePatchSet(w http.ResponseWriter, r *http.Request, wire *WirePatchSet) {
	if !strings.Contains(r.Header.Get("Accept"), codec.ContentTypeV2) {
		WriteJSON(w, wire)
		return
	}
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	w.Header().Set("Content-Type", codec.ContentTypeV2)
	w.Write(codec.EncodePatches(buf, patchSetToCodec(wire)))
}

// WriteSnapshotDelta answers a delta poll with a v2 frame, whatever the
// request's Accept header says.
func WriteSnapshotDelta(w http.ResponseWriter, d *SnapshotDelta) {
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	w.Header().Set("Content-Type", codec.ContentTypeV2)
	w.Write(codec.EncodeDelta(buf, deltaToCodec(d)))
}

// maxResponseBytes bounds client-side reads of v2 response bodies:
// frames are decoded from one in-memory buffer, so the read must be
// capped first.
const maxResponseBytes = 64 << 20

// readFrame reads a v2 response body under maxResponseBytes.
func readFrame(resp *http.Response, what string) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, fmt.Errorf("fleet: read %s: %w", what, err)
	}
	return data, nil
}

// decodePatchSetResponse decodes the v2 frame of a GET /v1/patches
// response.
func decodePatchSetResponse(resp *http.Response) (*WirePatchSet, error) {
	data, err := readFrame(resp, "patch set")
	if err != nil {
		return nil, err
	}
	ps, err := codec.DecodePatches(data)
	if err != nil {
		return nil, err
	}
	return patchSetFromCodec(ps), nil
}

// DecodeSnapshotDeltaResponse decodes the v2 frame of a GET /v1/deltas
// response.
func DecodeSnapshotDeltaResponse(resp *http.Response) (*SnapshotDelta, error) {
	data, err := readFrame(resp, "delta")
	if err != nil {
		return nil, err
	}
	cd, err := codec.DecodeDelta(data)
	if err != nil {
		return nil, err
	}
	return deltaFromCodec(cd), nil
}
