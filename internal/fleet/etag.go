package fleet

import (
	"net/http"
	"strconv"
)

// PatchETag formats the strong validator every patch-serving tier
// (fleetd, coordinator, read replica) stamps on GET /v1/patches: the
// serving incarnation's epoch and its patch-log version. The pair
// changes exactly when the body could — a version bump within an epoch,
// or a failover to a new epoch — so If-None-Match revalidation is
// correct by construction.
func PatchETag(epoch, version uint64) string {
	return `"e` + strconv.FormatUint(epoch, 10) + ".v" + strconv.FormatUint(version, 10) + `"`
}

// MatchETag stamps etag on the response and, when the request's
// If-None-Match presents the same validator, answers 304 Not Modified
// and reports true — the caller must not write a body. CDN-style
// fan-out lives on this: an unchanged patch log costs a replica (and
// the coordinator behind it) a handful of header bytes per poller.
func MatchETag(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == etag {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}
