package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/ts"
	"repro/onex"
)

// newHTTPServer serves an already-built Server (the fixtures here need
// construction options).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(hts.Close)
	return hts.URL
}

func decodeAnalysis(t *testing.T, raw []byte) onex.AnalysisResult {
	t.Helper()
	var res onex.AnalysisResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode analysis result: %v (%s)", err, raw)
	}
	return res
}

func analyze(t *testing.T, hts string, a onex.Analysis) onex.AnalysisResult {
	t.Helper()
	resp, raw := postJSON(t, hts+"/api/v1/datasets/growth/analyze", a)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze %+v status = %d: %s", a, resp.StatusCode, raw)
	}
	return decodeAnalysis(t, raw)
}

// TestAnalyzeRouteParity answers every analytics kind through the /api/v1
// analyze endpoint and through the library on the server's own DB, and
// requires identical payloads and resolved requests.
func TestAnalyzeRouteParity(t *testing.T) {
	s, hts := newTestServer(t)
	loadGrowth(t, hts)
	db, ok := s.db("growth")
	if !ok {
		t.Fatal("growth not registered")
	}
	for _, a := range []onex.Analysis{
		{Kind: onex.AnalysisOverview, Length: 6, K: 3},
		{Kind: onex.AnalysisLengthSummaries},
		{Kind: onex.AnalysisGroupMembers, Length: 6},
		{Kind: onex.AnalysisSeasonal, Series: "NY", Lengths: onex.Lengths{Min: 4, Max: 8}},
		{Kind: onex.AnalysisCommonPatterns, MinSeries: 3, K: 4},
		{Kind: onex.AnalysisSimilaritySweep, Window: onex.Window{Series: "MA", Start: 0, Length: 8},
			Thresholds: []float64{0.05, 0.1}},
		{Kind: onex.AnalysisThresholds},
	} {
		want, err := db.Analyze(context.Background(), a)
		if err != nil {
			t.Fatalf("%s: %v", a.Kind, err)
		}
		got := analyze(t, hts.URL, a)
		want.Stats, got.Stats = onex.AnalysisStats{}, onex.AnalysisStats{} // wall time differs
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: library %+v != server %+v", a.Kind, want, got)
		}
		if reflect.DeepEqual(got, onex.AnalysisResult{Request: got.Request}) {
			t.Fatalf("%s: empty payload", a.Kind)
		}
	}

	// The envelope carries the resolved request and the walk statistics.
	res := analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisOverview, Length: 6, K: 3})
	if res.Request.Kind != onex.AnalysisOverview || res.Stats.Groups != 3 {
		t.Fatalf("analyze envelope incomplete: %+v %+v", res.Request, res.Stats)
	}
}

func TestAnalyzeRouteErrors(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	for _, bad := range []string{
		`{`,
		`{}`,
		`{"kind":"bogus"}`,
		`{"kind":"seasonal"}`,
		`{"kind":"similarity-sweep","values":[1,2,3]}`,
		`{"kind":"seasonal","series":"ghost"}`,
	} {
		resp, err := http.Post(hts.URL+"/api/v1/datasets/growth/analyze", "application/json",
			strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Post(hts.URL+"/api/v1/datasets/ghost/analyze", "application/json",
		strings.NewReader(`{"kind":"overview"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost dataset status = %d, want 404", resp.StatusCode)
	}
}

// TestLoadDataDirAllowlist covers the load endpoint's optional data
// directory: servers built with WithDataDir reject file sources escaping
// it, servers without one keep the historical load-anything behaviour.
func TestLoadDataDirAllowlist(t *testing.T) {
	dataDir := t.TempDir()
	outside := t.TempDir()
	d := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 12})
	inside := filepath.Join(dataDir, "growth.csv")
	if err := ts.SaveFile(inside, d); err != nil {
		t.Fatal(err)
	}
	escaped := filepath.Join(outside, "secret.csv")
	if err := ts.SaveFile(escaped, d); err != nil {
		t.Fatal(err)
	}

	s := New(WithDataDir(dataDir))
	hts := newHTTPServer(t, s)

	load := func(source string) int {
		body, _ := json.Marshal(LoadRequest{Name: "x", Source: source, MinLength: 4, MaxLength: 8})
		resp, err := http.Post(hts+"/api/v1/datasets/load", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := load("file:" + inside); got != http.StatusOK {
		t.Fatalf("inside path status = %d, want 200", got)
	}
	if got := load("file:" + escaped); got != http.StatusForbidden {
		t.Fatalf("outside path status = %d, want 403", got)
	}
	if got := load("file:" + filepath.Join(dataDir, "..", filepath.Base(outside), "secret.csv")); got != http.StatusForbidden {
		t.Fatalf("traversal path status = %d, want 403", got)
	}
	if got := load("file:/etc/hostname"); got != http.StatusForbidden {
		t.Fatalf("absolute path status = %d, want 403", got)
	}
	// Generator sources are unaffected by the allowlist.
	if got := load("walks"); got != http.StatusOK {
		t.Fatalf("generator source status = %d, want 200", got)
	}
	// A symlink inside the data directory pointing outside is rejected.
	link := filepath.Join(dataDir, "link.csv")
	if err := os.Symlink(escaped, link); err == nil {
		if got := load("file:" + link); got != http.StatusForbidden {
			t.Fatalf("symlink escape status = %d, want 403", got)
		}
	}

	// Default New keeps the historical behaviour.
	open := New()
	openURL := newHTTPServer(t, open)
	body, _ := json.Marshal(LoadRequest{Name: "x", Source: "file:" + escaped, MinLength: 4, MaxLength: 8})
	resp, err := http.Post(openURL+"/api/v1/datasets/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unrestricted server status = %d, want 200", resp.StatusCode)
	}
}
