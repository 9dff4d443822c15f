package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/onex"
)

// newServingTestServer builds a server over a small in-process dataset
// (bypassing the HTTP load endpoint: these tests hammer the query path and
// want cheap setup) with the given serving-tier options.
func newServingTestServer(t testing.TB, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	db, err := onex.Open(gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 16}),
		onex.Config{MinLength: 4, MaxLength: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := New(opts...)
	s.AddDB("growth", db)
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(hts.Close)
	return s, hts
}

// postBody POSTs raw JSON and returns status and body.
func postBody(t testing.TB, url, body string, header http.Header) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

var (
	wallMicrosRE  = regexp.MustCompile(`"wall_micros":\d+`)
	buildMillisRE = regexp.MustCompile(`"BuildMillis":\d+`)
)

// stripVolatile zeroes the response fields that are not deterministic: the
// measured wall times (query wall_micros, ingest BuildMillis). Everything
// else — matches, order and every search statistic, stats.dtws included —
// must repeat byte for byte.
func stripVolatile(b []byte) []byte {
	b = wallMicrosRE.ReplaceAll(b, []byte(`"wall_micros":0`))
	return buildMillisRE.ReplaceAll(b, []byte(`"BuildMillis":0`))
}

// TestCacheHitByteIdentical: a repeated query must be answered from the
// cache with the exact bytes of the first response — including wall_micros,
// proving it never re-ran the search.
func TestCacheHitByteIdentical(t *testing.T) {
	s, hts := newServingTestServer(t, WithCache(1<<20))
	url := hts.URL + "/api/v1/datasets/growth/query"
	const q = `{"window":{"series":"MA","start":0,"length":8},"k":2,"exclude":{"self":true}}`
	st1, body1 := postBody(t, url, q, nil)
	st2, body2 := postBody(t, url, q, nil)
	if st1 != 200 || st2 != 200 {
		t.Fatalf("statuses = %d, %d", st1, st2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response differs from original:\n%s\n%s", body1, body2)
	}
	if st := s.cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit 1 miss", st)
	}
}

// TestCacheCanonicalizationAcrossWireForms: structurally different request
// bodies for the same semantic query must share one cache entry.
func TestCacheCanonicalizationAcrossWireForms(t *testing.T) {
	s, hts := newServingTestServer(t, WithCache(1<<20))
	url := hts.URL + "/api/v1/datasets/growth/query"
	forms := []string{
		`{"window":{"series":"MA","start":0,"length":8}}`,                                   // K defaulted
		`{"window":{"series":"MA","start":0,"length":8},"k":1}`,                             // K explicit
		`{"k":1,"window":{"length":8,"series":"MA","start":0}}`,                             // field order
		`{ "window" : {"series":"MA","start":0,"length":8}, "k":1, "length_norm":"length"}`, // norm explicit
		`{"window":{"series":"MA","start":0,"length":8},"k":1,"unknown":true}`,              // unknown field
		`{"window":{"series":"MA","start":0,"length":8},"k":1,"workers":4}`,                 // deprecated, ignored
	}
	var first []byte
	for i, form := range forms {
		st, body := postBody(t, url, form, nil)
		if st != 200 {
			t.Fatalf("form %d status = %d (%s)", i, st, body)
		}
		if i == 0 {
			first = body
			continue
		}
		if !bytes.Equal(body, first) {
			t.Errorf("form %d not served from the shared entry:\n%s\n%s", i, body, first)
		}
	}
	if st := s.cache.Stats(); st.Misses != 1 || st.Hits != int64(len(forms)-1) {
		t.Fatalf("cache stats = %+v, want 1 miss %d hits", st, len(forms)-1)
	}

	// A semantically different request must not be served from that entry.
	st, _ := postBody(t, url, `{"window":{"series":"MA","start":0,"length":8},"k":2}`, nil)
	if st != 200 {
		t.Fatalf("k=2 status = %d", st)
	}
	if st := s.cache.Stats(); st.Misses != 2 {
		t.Fatalf("k=2 did not miss: %+v", st)
	}
}

// TestCacheInvalidationOnIngest is the core staleness test: after an
// AddSeries that changes a query's answer, the cached pre-ingest response
// must never be served again.
func TestCacheInvalidationOnIngest(t *testing.T) {
	_, hts := newServingTestServer(t, WithCache(1<<20))
	qURL := hts.URL + "/api/v1/datasets/growth/query"

	// Query in exact mode so the answer is fully determined by the data.
	var sv struct {
		Values []float64 `json:"values"`
	}
	getJSON(t, hts.URL+"/api/v1/datasets/growth/series/MA", &sv)
	qv, _ := json.Marshal(sv.Values[:8])
	query := fmt.Sprintf(`{"values":%s,"k":1,"mode":"exact","exclude":{"series":["MA"]}}`, qv)

	st, before := postBody(t, qURL, query, nil)
	if st != 200 {
		t.Fatalf("pre-ingest status = %d (%s)", st, before)
	}
	st, cached := postBody(t, qURL, query, nil)
	if st != 200 || !bytes.Equal(before, cached) {
		t.Fatal("warm-up hit not served")
	}

	// Ingest a near-exact clone of the query window: the new best match.
	clone := make([]float64, 8)
	for i, v := range sv.Values[:8] {
		clone[i] = v + 1e-9
	}
	cv, _ := json.Marshal(clone)
	st, body := postBody(t, hts.URL+"/api/v1/datasets/growth/series",
		fmt.Sprintf(`{"series":"clone","values":%s}`, cv), nil)
	if st != 200 {
		t.Fatalf("ingest status = %d (%s)", st, body)
	}

	st, after := postBody(t, qURL, query, nil)
	if st != 200 {
		t.Fatalf("post-ingest status = %d", st)
	}
	if bytes.Equal(stripVolatile(before), stripVolatile(after)) {
		t.Fatal("post-ingest query served the stale pre-ingest answer")
	}
	var res onex.Result
	if err := json.Unmarshal(after, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || res.Matches[0].Series != "clone" {
		t.Fatalf("post-ingest best match = %+v, want the ingested clone", res.Matches)
	}

	// And the post-ingest answer is itself cached and hit on repeat.
	st, again := postBody(t, qURL, query, nil)
	if st != 200 || !bytes.Equal(after, again) {
		t.Fatal("post-ingest answer not served from cache on repeat")
	}
}

// TestCacheInvalidationOnDatasetReload: replacing a dataset under the same
// name (what the load endpoint's AddDB does) must orphan every cached
// entry of the old incarnation, even though the fresh DB's mutation
// version starts back at 1 — the key carries the instance ID precisely so
// (name, version) collisions across incarnations cannot serve stale data.
func TestCacheInvalidationOnDatasetReload(t *testing.T) {
	s, hts := newServingTestServer(t, WithCache(1<<20))
	qURL := hts.URL + "/api/v1/datasets/growth/query"

	var sv struct {
		Values []float64 `json:"values"`
	}
	getJSON(t, hts.URL+"/api/v1/datasets/growth/series/MA", &sv)
	qv, _ := json.Marshal(sv.Values[:8])
	query := fmt.Sprintf(`{"values":%s,"k":1,"mode":"exact"}`, qv)

	st, before := postBody(t, qURL, query, nil)
	if st != 200 {
		t.Fatalf("pre-reload status = %d (%s)", st, before)
	}
	st, cached := postBody(t, qURL, query, nil)
	if st != 200 || !bytes.Equal(before, cached) {
		t.Fatal("warm-up hit not served")
	}

	// Replace "growth" with entirely different data. Both incarnations
	// report Version() == 1, so only the instance ID separates their keys.
	walks, err := onex.Open(gen.RandomWalks(gen.WalkOptions{Num: 5, Length: 32}),
		onex.Config{MinLength: 4, MaxLength: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.AddDB("growth", walks)

	st, after := postBody(t, qURL, query, nil)
	if st != 200 {
		t.Fatalf("post-reload status = %d (%s)", st, after)
	}
	if bytes.Equal(stripVolatile(before), stripVolatile(after)) {
		t.Fatal("post-reload query served the old incarnation's cached answer")
	}
	var res onex.Result
	if err := json.Unmarshal(after, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || !strings.HasPrefix(res.Matches[0].Series, "walk-") {
		t.Fatalf("post-reload best match = %+v, want a series of the reloaded dataset", res.Matches)
	}

	// The new incarnation's answer is itself cached and hit on repeat.
	st, again := postBody(t, qURL, query, nil)
	if st != 200 || !bytes.Equal(after, again) {
		t.Fatal("post-reload answer not served from cache on repeat")
	}
}

// TestNoCacheHeaderRevalidates: Cache-Control: no-cache must bypass the
// cache read (recomputing fresh) while still agreeing with the cached
// answer when the data hasn't changed.
func TestNoCacheHeaderRevalidates(t *testing.T) {
	s, hts := newServingTestServer(t, WithCache(1<<20))
	url := hts.URL + "/api/v1/datasets/growth/query"
	const q = `{"window":{"series":"MA","start":2,"length":8},"k":1}`
	_, cached := postBody(t, url, q, nil)
	_, cached2 := postBody(t, url, q, nil)
	if !bytes.Equal(cached, cached2) {
		t.Fatal("warm-up hit failed")
	}
	hits := s.cache.Stats().Hits
	_, fresh := postBody(t, url, q, http.Header{"Cache-Control": []string{"no-cache"}})
	if s.cache.Stats().Hits != hits {
		t.Fatal("no-cache request was served from the cache")
	}
	if !bytes.Equal(stripVolatile(cached), stripVolatile(fresh)) {
		t.Fatalf("fresh recomputation disagrees with cached answer:\n%s\n%s", cached, fresh)
	}
}

// TestCachedServerEquivalence replays one randomized interleaving of
// queries, analyses, and ingests against a cache-enabled and a
// cache-disabled server and requires byte-identical behaviour (status and
// body, wall time normalized) on every single response — the acceptance
// bar for the serving tier.
func TestCachedServerEquivalence(t *testing.T) {
	_, cachedS := newServingTestServer(t, WithCache(1<<20))
	_, plainS := newServingTestServer(t)

	rng := rand.New(rand.NewSource(7))
	queries := []string{
		`{"window":{"series":"MA","start":0,"length":8},"k":2}`,
		`{"window":{"series":"CT","start":3,"length":6},"k":1,"mode":"exact"}`,
		`{"window":{"series":"MA","start":0,"length":8},"k":2,"exclude":{"self":true}}`,
		`{"window":{"series":"NY","start":1,"length":5},"max_dist":0.4}`,
		`{"window":{"series":"MA","start":9,"length":200},"k":1}`, // invalid: both must 400 alike
	}
	analyses := []string{
		`{"kind":"overview","k":6}`,
		`{"kind":"length-summaries"}`,
		`{"kind":"seasonal","series":"MA"}`,
		`{"kind":"bogus"}`, // invalid: both must 400 alike
	}
	ingestN := 0
	for step := range 120 {
		var path, body string
		switch r := rng.Float64(); {
		case r < 0.55:
			path, body = "/api/v1/datasets/growth/query", queries[rng.Intn(len(queries))]
		case r < 0.80:
			path, body = "/api/v1/datasets/growth/analyze", analyses[rng.Intn(len(analyses))]
		default:
			// Identical ingest on both servers keeps their datasets equal.
			ingestN++
			vals := make([]float64, 12)
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			vb, _ := json.Marshal(vals)
			path, body = "/api/v1/datasets/growth/series",
				fmt.Sprintf(`{"series":"extra-%d","values":%s}`, ingestN, vb)
		}
		stC, bodyC := postBody(t, cachedS.URL+path, body, nil)
		stP, bodyP := postBody(t, plainS.URL+path, body, nil)
		if stC != stP {
			t.Fatalf("step %d %s: status diverged cached=%d plain=%d (%s)", step, path, stC, stP, body)
		}
		if !bytes.Equal(stripVolatile(bodyC), stripVolatile(bodyP)) {
			t.Fatalf("step %d %s %s:\ncached: %s\nplain:  %s", step, path, body, bodyC, bodyP)
		}
	}
}

// TestCacheConcurrentIngestNoStaleRead races cached traffic against
// ingests under heavy eviction pressure (a tiny byte budget) and asserts
// the linearizability oracle: with a fixed exact-mode probe, each client's
// observed best distance never increases, because ingest only ever adds
// candidates. Between probes every client also sends a repeated query, an
// analysis or a progressive stream, so the probe's entries compete with
// mixed traffic for the budget. Afterwards the cache must have both hit
// and evicted, and each repeated query must be answered from the cache
// exactly as a no-cache recomputation answers it. Run under -race in CI.
func TestCacheConcurrentIngestNoStaleRead(t *testing.T) {
	s, hts := newServingTestServer(t, WithCache(8<<10)) // small: constant eviction
	qURL := hts.URL + "/api/v1/datasets/growth/query"
	pool := []string{
		`{"window":{"series":"MA","start":0,"length":8},"k":2}`,
		`{"window":{"series":"CT","start":3,"length":6},"k":1,"mode":"exact"}`,
		`{"window":{"series":"NY","start":1,"length":5},"k":3,"exclude":{"self":true}}`,
	}
	mixed := []struct{ path, body string }{
		{"/query", pool[0]},
		{"/query", pool[1]},
		{"/query", pool[2]},
		{"/analyze", `{"kind":"overview","k":6}`},
		{"/analyze", `{"kind":"length-summaries"}`},
		{"/query/stream", `{"window":{"series":"MA","start":2,"length":8},"k":2}`},
	}

	var sv struct {
		Values []float64 `json:"values"`
	}
	getJSON(t, hts.URL+"/api/v1/datasets/growth/series/MA", &sv)
	probeVals := sv.Values[:8]
	pv, _ := json.Marshal(probeVals)
	probe := fmt.Sprintf(`{"values":%s,"k":1,"mode":"exact"}`, pv)

	const (
		clients = 4
		rounds  = 25
		ingests = 12
	)
	var wg sync.WaitGroup
	// Ingester: progressively closer clones of the probe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range ingests {
			clone := make([]float64, len(probeVals))
			for j, v := range probeVals {
				clone[j] = v + 0.3/float64(i+1)
			}
			cv, _ := json.Marshal(clone)
			st, body := postBody(t, hts.URL+"/api/v1/datasets/growth/series",
				fmt.Sprintf(`{"series":"race-%d","values":%s}`, i, cv), nil)
			if st != 200 {
				t.Errorf("ingest %d status = %d (%s)", i, st, body)
				return
			}
		}
	}()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			best := -1.0
			for r := range rounds {
				op := mixed[rng.Intn(len(mixed))]
				if st, body := postBody(t, hts.URL+"/api/v1/datasets/growth"+op.path, op.body, nil); st != 200 {
					t.Errorf("client %d round %d %s status = %d (%s)", c, r, op.path, st, body)
					return
				}
				st, body := postBody(t, qURL, probe, nil)
				if st != 200 {
					t.Errorf("client %d round %d status = %d", c, r, st)
					return
				}
				var res onex.Result
				if err := json.Unmarshal(body, &res); err != nil || len(res.Matches) == 0 {
					t.Errorf("client %d round %d bad body: %v", c, r, err)
					return
				}
				d := res.Matches[0].Dist
				if best >= 0 && d > best+1e-9 {
					t.Errorf("client %d round %d: STALE READ — distance rose %g -> %g", c, r, best, d)
					return
				}
				best = d
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Nothing else runs now, so the second request of each pair is a hit.
	for _, q := range pool {
		postBody(t, qURL, q, nil)
		st, cached := postBody(t, qURL, q, nil)
		stF, fresh := postBody(t, qURL, q, http.Header{"Cache-Control": []string{"no-cache"}})
		if st != 200 || stF != 200 {
			t.Fatalf("%s: statuses cached=%d fresh=%d", q, st, stF)
		}
		if !bytes.Equal(stripVolatile(cached), stripVolatile(fresh)) {
			t.Errorf("cached answer differs from a fresh recomputation:\ncached: %s\nfresh:  %s", cached, fresh)
		}
	}
	if st := s.cache.Stats(); st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("cache stats = %+v, want hits and evictions", st)
	}
}
