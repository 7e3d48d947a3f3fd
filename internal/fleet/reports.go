package fleet

import (
	"net/http"
	"sync"
	"sync/atomic"

	"exterminator/internal/report"
	"exterminator/internal/triage"
)

// Reports is the bug-report intake behind /v1/reports on fleetd and the
// cluster coordinator. A POST is authorized, decoded (gzip allowed),
// redacted — clients redact before upload, redacting again keeps the
// retained set clean even for hand-rolled uploaders — and its findings'
// call stacks go to the triage engine, so clusters can group by
// callsite signature. The newest reports stay in a bounded ring, whose
// length the reply carries. A GET lists the ring.
type Reports struct {
	authorize func(http.ResponseWriter, *http.Request) bool
	triage    *triage.Engine
	maxBody   int64
	max       int
	seen      atomic.Int64

	mu   sync.Mutex
	ring []*report.Report
}

// NewReports returns an intake that retains the newest max reports
// (0 = 128) of at most maxBody bytes each. authorize gates POSTs and
// writes its own rejection; eng (nil allowed) receives call stacks.
func NewReports(max int, maxBody int64, eng *triage.Engine, authorize func(http.ResponseWriter, *http.Request) bool) *Reports {
	if max <= 0 {
		max = 128
	}
	return &Reports{authorize: authorize, triage: eng, maxBody: maxBody, max: max}
}

// Seen counts the reports received, retained or since dropped.
func (rs *Reports) Seen() int64 { return rs.seen.Load() }

func (rs *Reports) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if !rs.authorize(w, r) {
			return
		}
		var rep report.Report
		if err := DecodeJSONBody(w, r, rs.maxBody, &rep); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		report.Redact(&rep)
		for _, f := range rep.Findings {
			for _, t := range f.Sites {
				rs.triage.RecordFrames(t.Site, t.Frames)
			}
		}
		rs.seen.Add(1)
		rs.mu.Lock()
		rs.ring = append(rs.ring, &rep)
		if len(rs.ring) > rs.max {
			rs.ring = append([]*report.Report(nil), rs.ring[len(rs.ring)-rs.max:]...)
		}
		retained := len(rs.ring)
		rs.mu.Unlock()
		WriteJSON(w, map[string]any{"ok": true, "retained": retained})
	case http.MethodGet:
		rs.mu.Lock()
		out := append([]*report.Report{}, rs.ring...)
		rs.mu.Unlock()
		WriteJSON(w, out)
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}
