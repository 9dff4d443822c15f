// Package server exposes the ONEX engine over HTTP, reproducing the demo's
// client-server architecture (paper §4): loading a dataset triggers server-
// side preprocessing into the ONEX base, after which the analyst explores
// via near-real-time JSON queries and SVG chart endpoints.
//
// Endpoints (all JSON unless noted):
//
//	GET  /                                          demo HTML page
//	GET  /healthz                                   liveness: build info + dataset count
//	GET  /api/v1/healthz                            the same, under the API prefix
//	GET  /metrics                                   Prometheus text metrics (requests, latency, cache, admission)
//	GET  /api/v1/datasets                           loaded datasets + stats
//	POST /api/v1/datasets/load                      load+preprocess (see LoadRequest)
//	GET  /api/v1/datasets/{name}/series             series names
//	POST /api/v1/datasets/{name}/series             append + index a series
//	GET  /api/v1/datasets/{name}/series/{series}    one series' values
//	POST /api/v1/datasets/{name}/query              unified query (onex.Query → onex.Result)
//	POST /api/v1/datasets/{name}/query/stream       progressive query (onex.Query → NDJSON onex.Update lines)
//	POST /api/v1/datasets/{name}/analyze            unified analytics (onex.Analysis → onex.AnalysisResult)
//	GET  /replication/v1/datasets/{name}/snapshot   leader snapshot shipping (see replication.go)
//	GET  /replication/v1/datasets/{name}/wal        leader WAL tail, long-polled by followers
//	GET  /viz/{name}/overview.svg                   overview grid       ?length=&k=
//	GET  /viz/{name}/match.svg                      warp chart          ?series=&start=&len=
//	GET  /viz/{name}/radial.svg                     radial chart        ?a=&b=
//	GET  /viz/{name}/scatter.svg                    connected scatter   ?a=&b=
//	GET  /viz/{name}/seasonal.svg                   seasonal view       ?series=&len=
//	GET  /viz/{name}/thresholds.svg                 threshold histogram
//	GET  /explore/{name}                            similarity view page ?series=&start=&len=
//
// The query and analyze endpoints are the whole analyst API: their bodies
// map 1:1 onto onex.Query and onex.Analysis, their responses are the full
// onex.Result / onex.AnalysisResult (payload, resolved request, stats),
// and cancelling the HTTP request cancels the underlying walk — as it does
// for every SVG and explore page, which run the same Find and Analyze
// calls. Under load they are defended by the serving tier: WithCache
// answers repeated requests from a dataset-version-keyed result cache,
// WithRateLimit and WithMaxInflight shed excess traffic with 429/503 +
// Retry-After, and GET /metrics exports the whole picture in Prometheus
// text format. The query/stream endpoint is the progressive variant: the
// same body, answered as NDJSON — the approximate top-k first, one line
// per certified refinement wave, terminating with the exact result — with
// a flush per update, so a client renders the answer while it refines.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/gen"
	"repro/internal/replica"
	"repro/internal/servecache"
	"repro/internal/ts"
	"repro/onex"
)

// Server holds the loaded ONEX databases. Safe for concurrent use.
type Server struct {
	mu         sync.RWMutex
	dbs        map[string]*onex.DB
	mux        *http.ServeMux
	dataDir    string // when set, "file:" load sources must resolve inside it
	storeDir   string // when set, loaded datasets persist under storeDir/<name> (WithStore)
	fsyncEvery int    // WAL group-commit stride for store-backed datasets (WithFsyncEvery)
	mmapValues bool   // RestoreStored opens datasets with mmap-backed values (WithMmap)

	// Serving tier (see docs/ARCHITECTURE.md, "serving tier"): a versioned
	// result cache, per-client rate limiting, concurrent-query admission
	// control, and the /metrics registry. cache, limiter, and gate are nil
	// when the corresponding option is off; metrics is always live.
	cache      *servecache.Cache
	limiter    *rateLimiter
	gate       *gate
	metrics    *metrics
	trustProxy bool // rate-limit on X-Forwarded-For (WithTrustedProxy)

	// Replication (see replication.go): leaderURL marks a serving follower
	// (writes 503 there); replicaStatus samples follower telemetry for
	// /healthz and the onex_replica_* metric families.
	leaderURL     string
	replicaStatus func() map[string]replica.Status
}

// Option customizes a Server at construction.
type Option func(*Server)

// WithDataDir restricts POST /api/v1/datasets/load "file:" sources to
// paths inside dir: requests escaping it (via "..", absolute paths, or any
// other traversal) are rejected with 403. The default — no data directory
// — keeps the historical behaviour of loading any server-readable path,
// which is only appropriate when the operator and the analyst are the same
// person (the CLI demo).
func WithDataDir(dir string) Option {
	return func(s *Server) { s.dataDir = dir }
}

// WithCache enables the versioned result cache for the unified query and
// analyze endpoints, bounded to maxBytes of encoded responses. Entries are
// keyed by (dataset, DB instance ID, dataset version, canonicalized
// request), so an ingest — which bumps the dataset version — makes every
// earlier entry unreachable, and reloading a dataset under the same name —
// which produces a fresh instance ID — orphans the old incarnation's
// entries wholesale: a stale answer is never served, with no flush to race
// against. Streaming responses are never cached (each is consumed once)
// but count as cache misses in /metrics. maxBytes <= 0 leaves caching off.
func WithCache(maxBytes int64) Option {
	return func(s *Server) {
		if maxBytes > 0 {
			s.cache = servecache.New(maxBytes)
		}
	}
}

// WithRateLimit applies a per-client token bucket to the query-class
// endpoints (query, query/stream, and analyze):
// each client accrues rps tokens per second up to burst, and a request
// with no token available is rejected with 429 and a Retry-After header.
// Clients are keyed by their remote IP; behind a reverse proxy (where
// every connection shares the proxy's IP) add WithTrustedProxy to key on
// the forwarded client address instead. rps <= 0 leaves rate limiting
// off; burst < 1 is raised to 1.
func WithRateLimit(rps float64, burst int) Option {
	return func(s *Server) {
		if rps > 0 {
			s.limiter = newRateLimiter(rps, burst)
		}
	}
}

// WithTrustedProxy keys rate limiting on the first X-Forwarded-For hop
// instead of the remote IP. Enable it only when the server sits behind a
// proxy that overwrites (not appends to) client-supplied X-Forwarded-For
// headers: the header is otherwise attacker-controlled, and trusting it
// from directly-connected clients lets anyone bypass the limiter by
// rotating values. The default is to ignore the header entirely.
func WithTrustedProxy() Option {
	return func(s *Server) { s.trustProxy = true }
}

// WithMaxInflight bounds concurrent query-class execution to n slots with
// a wait queue of queue requests layered on top: requests beyond n wait
// their turn (bounded by their own context), and requests beyond n+queue
// are rejected immediately with 503 and a Retry-After header. Every query
// runs on its request's goroutine, so this caps the server's total query
// parallelism at n regardless of offered load. n <= 0 leaves admission
// control off; queue < 0 is treated as 0.
func WithMaxInflight(n, queue int) Option {
	return func(s *Server) {
		if n > 0 {
			s.gate = newGate(n, max(queue, 0))
		}
	}
}

// New builds an empty server.
func New(opts ...Option) *Server {
	s := &Server{dbs: make(map[string]*onex.DB), mux: http.NewServeMux(), metrics: newMetrics()}
	for _, opt := range opts {
		opt(s)
	}
	s.routes()
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// AddDB registers an already-opened database under a name (used by cmd
// wiring and tests). Replacing a registered dataset releases the old
// incarnation's persistence engine: two live engines on one store directory
// would mean two WAL writers. The replaced DB itself keeps serving any
// in-flight queries from memory.
func (s *Server) AddDB(name string, db *onex.DB) {
	s.mu.Lock()
	old := s.dbs[name]
	s.dbs[name] = db
	s.mu.Unlock()
	if old != nil && old != db {
		_ = old.Close()
	}
}

func (s *Server) db(name string) (*onex.DB, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db, ok := s.dbs[name]
	return db, ok
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /api/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/v1/datasets", s.instrument("meta", false, s.handleListDatasets))
	s.mux.HandleFunc("POST /api/v1/datasets/load", s.instrument("load", false, s.handleLoad))
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/series", s.instrument("meta", false, s.handleSeriesNames))
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/series", s.instrument("ingest", false, s.handleAddSeries))
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/series/{series}", s.instrument("meta", false, s.handleSeriesValues))
	// The query-class endpoints carry the heavy walks: they are the ones
	// rate limiting and admission control defend.
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/query", s.instrument("query", true, s.handleQuery))
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/query/stream", s.instrument("query_stream", true, s.handleQueryStream))
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/analyze", s.instrument("analyze", true, s.handleAnalyze))
	// Leader replication surface: snapshot shipping plus the seq-addressed
	// WAL tail followers long-poll (see replication.go). Deliberately
	// outside /api — this is a peer protocol, not an analyst API.
	s.mux.HandleFunc("GET /replication/v1/datasets/{name}/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /replication/v1/datasets/{name}/wal", s.handleReplWAL)
	s.mux.HandleFunc("GET /viz/{name}/overview.svg", s.handleVizOverview)
	s.mux.HandleFunc("GET /viz/{name}/match.svg", s.handleVizMatch)
	s.mux.HandleFunc("GET /viz/{name}/radial.svg", s.handleVizRadial)
	s.mux.HandleFunc("GET /viz/{name}/scatter.svg", s.handleVizScatter)
	s.mux.HandleFunc("GET /viz/{name}/seasonal.svg", s.handleVizSeasonal)
	s.mux.HandleFunc("GET /viz/{name}/thresholds.svg", s.handleVizThresholds)
	s.mux.HandleFunc("GET /explore/{name}", s.handleExplore)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeSVG(w http.ResponseWriter, svg string) {
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write([]byte(svg))
}

// LoadRequest asks the server to load and preprocess a dataset.
type LoadRequest struct {
	// Name registers the dataset under this key.
	Name string `json:"name"`
	// Source selects the data: "matters:<Indicator>", "electricity",
	// "cbf", "walks", or "file:<path>".
	Source string `json:"source"`
	// ST, MinLength, MaxLength, Band, Exact forward to onex.Config; zero
	// values take the library defaults.
	ST        float64 `json:"st,omitempty"`
	MinLength int     `json:"min_length,omitempty"`
	MaxLength int     `json:"max_length,omitempty"`
	Band      int     `json:"band,omitempty"`
	Exact     bool    `json:"exact,omitempty"`
}

// LoadResponse reports the preprocessing outcome.
type LoadResponse struct {
	Name  string     `json:"name"`
	Stats onex.Stats `json:"stats"`
	ST    float64    `json:"st"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	var req LoadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Name == "" || req.Source == "" {
		writeErr(w, http.StatusBadRequest, "name and source are required")
		return
	}
	if err := s.allowSource(req.Source); err != nil {
		writeErr(w, http.StatusForbidden, "%v", err)
		return
	}
	if s.storeDir != "" && !safeDatasetName(req.Name) {
		// The name becomes a directory under the store root; reject anything
		// outside the safe alphabet before it touches the filesystem.
		writeErr(w, http.StatusBadRequest, "load: dataset name %q not allowed with persistence enabled (use letters, digits, '.', '-', '_')", req.Name)
		return
	}
	ds, err := DatasetForSource(req.Source)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := onex.Config{
		ST:         req.ST,
		MinLength:  req.MinLength,
		MaxLength:  req.MaxLength,
		Band:       req.Band,
		Exact:      req.Exact,
		FsyncEvery: s.fsyncEvery,
	}
	if s.storeDir != "" {
		eng, err := s.openStoreFor(req.Name)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "store: %v", err)
			return
		}
		cfg.Store = eng
	}
	db, err := onex.Open(ds, cfg)
	if err != nil {
		if cfg.Store != nil {
			cfg.Store.Close()
		}
		writeErr(w, http.StatusInternalServerError, "preprocess: %v", err)
		return
	}
	s.AddDB(req.Name, db)
	writeJSON(w, http.StatusOK, LoadResponse{Name: req.Name, Stats: db.Stats(), ST: db.ST()})
}

// allowSource enforces the optional data-directory allowlist on "file:"
// load sources. Symlinks inside the data directory are resolved before the
// containment check, so a link pointing outside cannot smuggle a path in.
func (s *Server) allowSource(source string) error {
	path, ok := strings.CutPrefix(source, "file:")
	if !ok || s.dataDir == "" {
		return nil
	}
	root, err := filepath.Abs(s.dataDir)
	if err != nil {
		return fmt.Errorf("load: data directory: %v", err)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return fmt.Errorf("load: %v", err)
	}
	// Resolve symlinks where possible (the file may not exist yet at check
	// time; EvalSymlinks of an existing ancestor still normalizes the root).
	if r, err := filepath.EvalSymlinks(root); err == nil {
		root = r
	}
	if a, err := filepath.EvalSymlinks(abs); err == nil {
		abs = a
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return fmt.Errorf("load: path %q escapes the data directory", path)
	}
	return nil
}

// DatasetForSource resolves a load-request source specifier into a
// dataset: "matters:<Indicator>", "electricity", "cbf", "walks", "ecg",
// or "file:<path>". Shared by the load endpoint and cmd/onexd preloading.
func DatasetForSource(source string) (*ts.Dataset, error) {
	switch {
	case strings.HasPrefix(source, "matters:"):
		ind, ok := gen.IndicatorByName(strings.TrimPrefix(source, "matters:"))
		if !ok {
			return nil, fmt.Errorf("unknown indicator %q", strings.TrimPrefix(source, "matters:"))
		}
		return gen.Matters(gen.MattersOptions{Indicator: ind}), nil
	case source == "electricity":
		return gen.ElectricityLoad(gen.ElectricityOptions{Households: 3, Days: 90, SamplesPerDay: 12}), nil
	case source == "cbf":
		return gen.CBF(gen.CBFOptions{PerClass: 8, Length: 64}), nil
	case source == "walks":
		return gen.RandomWalks(gen.WalkOptions{Num: 20, Length: 64}), nil
	case source == "ecg":
		return gen.ECG(gen.ECGOptions{Num: 6, Beats: 16, Arrhythmic: true}), nil
	case strings.HasPrefix(source, "file:"):
		return onex.LoadDataset(strings.TrimPrefix(source, "file:"))
	default:
		return nil, fmt.Errorf("unknown source %q", source)
	}
}

// DatasetInfo is one row of the dataset listing.
type DatasetInfo struct {
	Name  string     `json:"name"`
	Stats onex.Stats `json:"stats"`
	ST    float64    `json:"st"`
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]DatasetInfo, 0, len(names))
	for _, n := range names {
		db, _ := s.db(n)
		out = append(out, DatasetInfo{Name: n, Stats: db.Stats(), ST: db.ST()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSeriesNames(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, db.SeriesNames())
}

func (s *Server) handleSeriesValues(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	vals, err := db.SeriesValues(r.PathValue("series"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": r.PathValue("series"), "values": vals})
}

// handleAnalyze is the unified, versioned analytics endpoint: the request
// body is an onex.Analysis verbatim, the response an onex.AnalysisResult
// (payload plus the resolved request and walk statistics). Cancelling the
// HTTP request cancels the walk.
//
// With WithCache, successful responses are cached under (dataset, DB
// instance ID, dataset version, canonical analysis) and repeats are
// answered byte-identically from memory; see handleQuery for the
// versioning discipline.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	var a onex.Analysis
	if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var (
		key string
		ver uint64
	)
	if s.cache != nil {
		ver = db.Version()
		key = cacheKey("a", r.PathValue("name"), db.ID(), ver, servecache.CanonicalAnalysis(a))
		if body, ok := s.cacheLookup(r, key); ok {
			writeJSONBody(w, body)
			return
		}
	}
	res, err := db.Analyze(r.Context(), a)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := encodeJSONBody(res)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	if s.cache != nil && db.Version() == ver {
		s.cache.Put(key, body)
	}
	writeJSONBody(w, body)
}

// handleQuery is the unified, versioned query endpoint: the request body
// is an onex.Query verbatim, the response an onex.Result (matches plus the
// resolved query and search statistics). Cancelling the HTTP request
// cancels the search.
//
// With WithCache, successful responses are cached under (dataset, DB
// instance ID, dataset version, canonical query). The version is read
// before the search and re-checked before the store: if an ingest slipped
// between the two, the freshly computed answer may reflect the newer data
// and is not stored under the older version's key. (Serving it to this
// requester is still linearizable — the request overlapped the ingest.)
// The instance ID ties the entry to the exact *DB that computed it, so a
// concurrent dataset replacement under the same name cannot cross-wire
// answers between incarnations.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
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
	var (
		key string
		ver uint64
	)
	if s.cache != nil {
		ver = db.Version()
		key = cacheKey("q", r.PathValue("name"), db.ID(), ver, servecache.CanonicalQuery(q))
		if body, ok := s.cacheLookup(r, key); ok {
			writeJSONBody(w, body)
			return
		}
	}
	res, err := db.Find(r.Context(), q)
	switch {
	case errors.Is(err, onex.ErrNoMatch):
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := encodeJSONBody(res)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	if s.cache != nil && db.Version() == ver {
		s.cache.Put(key, body)
	}
	writeJSONBody(w, body)
}

// AddSeriesRequest appends one series to a loaded dataset and indexes it
// incrementally (no rebuild).
type AddSeriesRequest struct {
	Series string    `json:"series"`
	Values []float64 `json:"values"`
}

func (s *Server) handleAddSeries(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	var req AddSeriesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// DB.AddSeries serializes against that dataset's queries internally;
	// requests for other datasets proceed untouched.
	if err := db.AddSeries(req.Series, req.Values); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"series": req.Series, "stats": db.Stats()})
}

func queryInt(r *http.Request, key string, def int) int {
	if v := r.URL.Query().Get(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}
