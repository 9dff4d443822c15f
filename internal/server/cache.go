package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// encodeJSONBody renders v exactly as writeJSON's json.Encoder would
// (compact, HTML-escaped, trailing newline), so cached responses are
// byte-identical to uncached ones.
func encodeJSONBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// cacheKey assembles a full cache key: endpoint kind, dataset name, the
// DB instance's process-unique ID, its mutation version, and the
// canonicalized request. Keying is the whole invalidation story — an
// AddSeries bumps the version, making every pre-ingest entry unreachable,
// and replacing a dataset under the same name (the load endpoint's AddDB)
// changes the instance ID, making every entry of the old incarnation
// unreachable even though the fresh instance's version starts back at 1.
// A stale answer can thus never be served; orphaned generations age out
// of the LRU under byte pressure rather than being flushed. The name is
// redundant next to the unique ID but kept for debuggability.
func cacheKey(kind, dataset string, id, version uint64, canonical string) string {
	return kind + "|" + strconv.Quote(dataset) + "|" + strconv.FormatUint(id, 10) +
		"@" + strconv.FormatUint(version, 10) + "|" + canonical
}

// noCacheRequest reports whether the client opted out of a cache read for
// this request (Cache-Control: no-cache). The response is still computed
// fresh and stored, mirroring HTTP revalidation semantics; the cache tests
// use this to cross-check cached answers against fresh ones.
func noCacheRequest(r *http.Request) bool {
	return strings.Contains(strings.ToLower(r.Header.Get("Cache-Control")), "no-cache")
}

// cacheLookup consults the result cache and maintains the hit/miss
// counters. It returns the cached response body on a hit.
func (s *Server) cacheLookup(r *http.Request, key string) ([]byte, bool) {
	if noCacheRequest(r) {
		s.metrics.cacheMisses.Add(1)
		return nil, false
	}
	if body, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		return body, true
	}
	s.metrics.cacheMisses.Add(1)
	return nil, false
}

// writeJSONBody writes a pre-encoded JSON response body (as produced by
// encodeJSONBody), byte-identical to what writeJSON would emit for the
// same value.
func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
