package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/onex"
)

// loadWalks registers a base large enough that an exact walk spans several
// refinement waves, so the stream endpoint emits a real sequence.
func loadWalks(t *testing.T, s *Server) {
	t.Helper()
	d := gen.RandomWalks(gen.WalkOptions{Num: 8, Length: 96, Seed: 11})
	db, err := onex.Open(d, onex.Config{ST: 0.12, MinLength: 8, MaxLength: 20, Band: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.AddDB("walks", db)
}

func streamQuery(t *testing.T, s *Server) onex.Query {
	t.Helper()
	db, ok := s.db("walks")
	if !ok {
		t.Fatal("walks not loaded")
	}
	raw, err := db.SeriesValues("walk-000")
	if err != nil {
		t.Fatal(err)
	}
	// The full statistics block is deterministic, so the final stream line
	// can be compared field-for-field against the one-shot endpoint.
	return onex.Query{Values: raw[0:16], K: 4}
}

func TestQueryStreamEndpoint(t *testing.T) {
	s, hts := newTestServer(t)
	loadWalks(t, s)
	q := streamQuery(t, s)

	body, _ := json.Marshal(q)
	resp, err := http.Post(hts.URL+"/api/v1/datasets/walks/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}

	var updates []onex.Update
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var u onex.Update
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad NDJSON line: %v (%s)", err, sc.Text())
		}
		updates = append(updates, u)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(updates) < 3 {
		t.Fatalf("%d updates; want approx + waves + final", len(updates))
	}
	first, last := updates[0], updates[len(updates)-1]
	if first.Seq != 0 || first.Wave != 0 || first.Final {
		t.Fatalf("first line seq=%d wave=%d final=%v", first.Seq, first.Wave, first.Final)
	}
	if !last.Final || last.GroupsRemaining != 0 {
		t.Fatalf("last line final=%v remaining=%d", last.Final, last.GroupsRemaining)
	}

	// The final line equals what the one-shot endpoint returns in exact
	// mode (wall time aside).
	exactQ := q
	exactQ.Mode = onex.ModeExact
	resp2, raw := postJSON(t, hts.URL+"/api/v1/datasets/walks/query", exactQ)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("one-shot status = %d (%s)", resp2.StatusCode, raw)
	}
	oneShot := decodeResult(t, raw)
	if len(last.Matches) != len(oneShot.Matches) {
		t.Fatalf("final line %d matches, one-shot %d", len(last.Matches), len(oneShot.Matches))
	}
	for i := range last.Matches {
		a, b := last.Matches[i], oneShot.Matches[i]
		if a.Series != b.Series || a.Start != b.Start || a.Length != b.Length || a.Dist != b.Dist {
			t.Fatalf("final line match %d %+v != one-shot %+v", i, a, b)
		}
	}
	st, ost := last.Stats, oneShot.Stats
	st.WallMicros, ost.WallMicros = 0, 0
	if st != ost {
		t.Fatalf("final line stats %+v != one-shot %+v", st, ost)
	}
}

func TestQueryStreamValidation(t *testing.T) {
	s, hts := newTestServer(t)
	loadWalks(t, s)

	// Unknown dataset: 404 before any streaming.
	resp, _ := postJSON(t, hts.URL+"/api/v1/datasets/nope/query/stream", onex.Query{Values: []float64{1, 2, 3}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset status = %d", resp.StatusCode)
	}
	// Range queries are not streamable: 400 with a JSON error.
	resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/walks/query/stream", onex.Query{Values: []float64{1, 2, 3}, MaxDist: 0.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("range query status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "not streamable") {
		t.Fatalf("range query error body = %s", raw)
	}
	// Malformed body: 400.
	resp2, err := http.Post(hts.URL+"/api/v1/datasets/walks/query/stream", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp2.StatusCode)
	}
}

// TestQueryStreamClientDisconnect is the mid-stream cancellation test for
// the HTTP layer: a client that reads the first update and drops the
// connection must stop the core walk within one pruning round, leaving no
// goroutines behind.
func TestQueryStreamClientDisconnect(t *testing.T) {
	s, hts := newTestServer(t)
	loadWalks(t, s)
	q := streamQuery(t, s)
	baseline := runtime.NumGoroutine()

	body, _ := json.Marshal(q)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		hts.URL+"/api/v1/datasets/walks/query/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read just the first line, then hang up.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first update before disconnect")
	}
	var first onex.Update
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("bad first line: %v", err)
	}
	if first.Final {
		t.Fatal("first line already final; disconnect test needs a longer walk")
	}
	cancel()
	resp.Body.Close()

	// goleak-style drain check: the handler goroutine and the stream
	// goroutine must both exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain after client disconnect: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	s, hts := newTestServer(t)
	for _, path := range []string{"/healthz", "/api/v1/healthz"} {
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		var h HealthResponse
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatalf("%s: %v (%s)", path, err, raw)
		}
		if h.Status != "ok" || h.GoVersion == "" || h.Version == "" {
			t.Fatalf("%s payload = %+v", path, h)
		}
		if h.Datasets != 0 {
			t.Fatalf("%s datasets = %d before any load", path, h.Datasets)
		}
	}
	loadWalks(t, s)
	resp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Datasets != 1 {
		t.Fatalf("datasets = %d after load, want 1", h.Datasets)
	}
}
