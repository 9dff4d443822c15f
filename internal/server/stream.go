package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/replica"
	"repro/onex"
)

// streamWriteTimeout bounds how long one NDJSON update may take to reach
// the client; the deadline is re-armed per update, so slow-but-alive
// clients keep their stream while dead ones are cut within one update.
// It is deliberately below onex's 30s consumer-stall bound: the HTTP
// layer severs a non-reading client first (failing the Encode, which
// Closes the exploration cleanly), leaving the library stall valve as a
// backstop rather than the operative cut.
const streamWriteTimeout = 20 * time.Second

// handleQueryStream is the progressive query endpoint: the request body is
// an onex.Query (like /query), the response is NDJSON — one onex.Update
// per line, flushed as emitted. The first line is the approximate answer,
// then one line per certified refinement wave, and the last line is the
// exact result (final=true), identical to what POST /query returns in
// exact mode. Closing the request — a disconnecting client — cancels the
// underlying walk within one pruning round.
//
// Errors before the first update (unknown dataset, malformed query) are
// ordinary JSON error responses. Once streaming has begun the status is
// committed, so a mid-stream failure is reported as a terminating
// `{"error": "..."}` line instead.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	var q onex.Query
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if s.cache != nil {
		// Streams bypass the result cache (each response is consumed as it
		// is produced) but are counted as misses, so the hit-rate metric
		// reflects the whole query-class workload.
		s.metrics.cacheMisses.Add(1)
	}
	x, err := db.Stream(r.Context(), q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer x.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// The server's global WriteTimeout fixes one deadline for the whole
	// response, which would sever a long walk mid-stream; re-arm it per
	// update instead, so the timeout bounds per-update stalls rather than
	// total stream duration. (SetWriteDeadline errors — e.g. under a
	// recording ResponseWriter in tests — just leave the global deadline
	// in place.)
	rc := http.NewResponseController(w)
	for u := range x.Updates() {
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if err := enc.Encode(u); err != nil {
			// The client is gone; Close cancels the walk.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := x.Err(); err != nil {
		_ = enc.Encode(map[string]string{"error": err.Error()})
	}
}

// HealthResponse is the healthz payload: enough for a load balancer to
// gate traffic on, and for an operator to tell which build is running.
type HealthResponse struct {
	Status    string `json:"status"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Datasets  int    `json:"datasets"`
	// Persistence reports each dataset's durability state (engine kind,
	// snapshot age, WAL backlog); see PersistenceInfo. Empty with no
	// datasets loaded.
	Persistence map[string]PersistenceInfo `json:"persistence,omitempty"`
	// Leader is set on serving followers: the URL writes should go to.
	Leader string `json:"leader,omitempty"`
	// Replication reports each followed dataset's lag and stream health
	// (only on serving followers; see replica.Status).
	Replication map[string]replica.Status `json:"replication,omitempty"`
}

// buildVersion resolves the module build version once; it cannot change
// for the lifetime of the process, and health probes arrive continuously.
var buildVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "devel"
})

// handleHealthz serves GET /healthz (and /api/v1/healthz): build/version
// information, the loaded-dataset count, and each dataset's persistence
// state. It takes no locks beyond the dataset map read and runs no queries
// (StoreStatus is a counter read plus one stat call), so it stays responsive
// while the server preprocesses a large load.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := len(s.dbs)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		Version:     buildVersion(),
		GoVersion:   runtime.Version(),
		Datasets:    n,
		Persistence: s.persistenceInfo(),
		Leader:      s.leaderURL,
		Replication: s.replicationInfo(),
	})
}
