package triage

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"exterminator/internal/telemetry"
)

// requestIDHeader mirrors fleet.RequestIDHeader (this package sits
// below internal/fleet in the import graph, so the constant is
// duplicated rather than imported).
const requestIDHeader = "X-Request-ID"

// ServeHTTP serves the triage read API. Mount it at both "/v1/triage"
// (ranking) and "/v1/triage/" ({cluster} detail). A nil engine serves
// an empty ranking — partition-mode fleetds answer consistently rather
// than 404ing generic tooling.
//
// Read requests echo their X-Request-ID (minting one when absent) and
// log it, extending PR 6's write-path correlation to reads.
func (e *Engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reqID := strings.TrimSpace(r.Header.Get(requestIDHeader))
	if len(reqID) > 128 {
		reqID = reqID[:128]
	}
	if reqID == "" {
		reqID = telemetry.NewRequestID()
	}
	w.Header().Set(requestIDHeader, reqID)

	rest := strings.TrimPrefix(r.URL.Path, "/v1/triage")
	rest = strings.Trim(rest, "/")
	if rest != "" {
		d, ok := e.Detail(rest)
		if !ok {
			http.Error(w, "triage: no such cluster", http.StatusNotFound)
			return
		}
		if e != nil {
			e.logger.Debug("triage detail served", "cluster", rest, "requestId", reqID)
		}
		writeJSON(w, d)
		return
	}

	q := r.URL.Query()
	offset, _ := strconv.Atoi(q.Get("offset"))
	limit, _ := strconv.Atoi(q.Get("limit"))
	reply := e.Rankings(offset, limit)
	if e != nil {
		e.logger.Debug("triage ranking served",
			"offset", reply.Offset, "limit", reply.Limit, "total", reply.Total,
			"requestId", reqID)
	}
	writeJSON(w, reply)
}

// replyBufs recycles the buffers replies are rendered into; a buffer
// grown past maxPooledReply is left to the collector.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledReply = 4 << 20

// writeJSON answers with v as JSON, rendered whole before anything is
// sent, so the reply carries its Content-Length and a value that cannot
// be encoded still answers 500 rather than an empty 200.
func writeJSON(w http.ResponseWriter, v any) {
	buf := replyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledReply {
			replyBufs.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, "triage: encode reply: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}
