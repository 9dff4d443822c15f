package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/onex"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(hts.Close)
	return s, hts
}

func loadGrowth(t *testing.T, hts *httptest.Server) {
	t.Helper()
	body, _ := json.Marshal(LoadRequest{
		Name:      "growth",
		Source:    "matters:GrowthRate",
		MinLength: 4,
		MaxLength: 10,
	})
	resp, err := http.Post(hts.URL+"/api/v1/datasets/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status = %d", resp.StatusCode)
	}
	var lr LoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.Stats.Groups == 0 || lr.ST <= 0 {
		t.Fatalf("load response incomplete: %+v", lr)
	}
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestLoadAndListFlow(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	var infos []DatasetInfo
	getJSON(t, hts.URL+"/api/v1/datasets", &infos)
	if len(infos) != 1 || infos[0].Name != "growth" {
		t.Fatalf("datasets = %+v", infos)
	}

	var names []string
	getJSON(t, hts.URL+"/api/v1/datasets/growth/series", &names)
	if len(names) != 50 {
		t.Fatalf("series = %d", len(names))
	}

	var sv struct {
		Name   string    `json:"name"`
		Values []float64 `json:"values"`
	}
	getJSON(t, hts.URL+"/api/v1/datasets/growth/series/MA", &sv)
	if sv.Name != "MA" || len(sv.Values) == 0 {
		t.Fatalf("series values = %+v", sv)
	}
}

// TestLoadIndicatorIgnoresCase: the load endpoint resolves a matters
// indicator in any case, as the CLI does.
func TestLoadIndicatorIgnoresCase(t *testing.T) {
	_, hts := newTestServer(t)
	resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/load", LoadRequest{
		Name: "growth", Source: "matters:growthrate", MinLength: 4, MaxLength: 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status = %d: %s", resp.StatusCode, raw)
	}
	var lr LoadResponse
	if err := json.Unmarshal(raw, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Stats.Series != len(gen.StateNames) || lr.Stats.Groups == 0 {
		t.Fatalf("load response %+v", lr)
	}
}

func TestLoadValidation(t *testing.T) {
	_, hts := newTestServer(t)
	for _, body := range []string{
		`{`, // malformed
		`{"name":"x"}`,
		`{"name":"x","source":"bogus"}`,
		`{"name":"x","source":"matters:Bogus"}`,
		`{"name":"x","source":"file:/does/not/exist.csv"}`,
	} {
		resp, err := http.Post(hts.URL+"/api/v1/datasets/load", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("body %q accepted", body)
		}
	}
}

func TestSimilarityEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	query := func(q onex.Query) []onex.Match {
		t.Helper()
		resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/growth/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %+v status = %d: %s", q, resp.StatusCode, raw)
		}
		return decodeResult(t, raw).Matches
	}
	window := onex.Window{Series: "MA", Start: 0, Length: 8}

	ms := query(onex.Query{Window: window, Exclude: onex.Exclude{Self: true}})
	if len(ms) != 1 || ms[0].Length == 0 || len(ms[0].Path) == 0 {
		t.Fatalf("match = %+v", ms)
	}

	// Exclude-source variant.
	if ms := query(onex.Query{Window: window, Exclude: onex.Exclude{Series: []string{"MA"}}}); ms[0].Series == "MA" {
		t.Fatal("exclude.series ignored")
	}

	// Ad-hoc values query.
	if ms := query(onex.Query{Values: []float64{2, 2.5, 3, 2.5, 2}, K: 3}); len(ms) == 0 || len(ms) > 3 {
		t.Fatalf("values query returned %d matches", len(ms))
	}
}

func TestSeasonalEndpoint(t *testing.T) {
	s, hts := newTestServer(t)
	db, err := onex.Open(gen.ElectricityLoad(gen.ElectricityOptions{
		Households: 1, Days: 14, SamplesPerDay: 12,
	}), onex.Config{MinLength: 12, MaxLength: 12, Band: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.AddDB("power", db)

	resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/power/analyze", onex.Analysis{
		Kind: onex.AnalysisSeasonal, Series: "household-00", Lengths: onex.Lengths{Min: 12, Max: 12},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seasonal status = %d: %s", resp.StatusCode, raw)
	}
	if pats := decodeAnalysis(t, raw).Patterns; len(pats) == 0 {
		t.Fatal("no patterns from daily-cycle data")
	}
}

func TestThresholdsEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	res := analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisThresholds})
	if len(res.Thresholds.Recommendations) != 3 {
		t.Fatalf("recommendations = %d", len(res.Thresholds.Recommendations))
	}
}

func TestNotFoundPaths(t *testing.T) {
	_, hts := newTestServer(t)
	for _, path := range []string{
		"/api/v1/datasets/ghost/series",
		"/api/v1/datasets/ghost/series/MA",
		"/viz/ghost/overview.svg",
		"/explore/ghost",
	} {
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestVizEndpoints(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	urls := []string{
		"/viz/growth/overview.svg?k=6",
		"/viz/growth/match.svg?series=MA&start=0&len=8",
		"/viz/growth/radial.svg?a=MA&b=CT",
		"/viz/growth/scatter.svg?a=MA&b=CT",
	}
	for _, u := range urls {
		resp, err := http.Get(hts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d: %s", u, resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Fatalf("%s content type = %q", u, ct)
		}
		if !strings.HasPrefix(raw, "<svg") {
			t.Fatalf("%s is not SVG", u)
		}
	}
	// Missing params rejected.
	for _, u := range []string{
		"/viz/growth/match.svg",
		"/viz/growth/radial.svg?a=MA",
		"/viz/growth/seasonal.svg",
	} {
		resp, err := http.Get(hts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s accepted without params", u)
		}
	}
}

func TestVizSeasonalEndpoint(t *testing.T) {
	s, hts := newTestServer(t)
	db, err := onex.Open(gen.ElectricityLoad(gen.ElectricityOptions{
		Households: 1, Days: 10, SamplesPerDay: 12,
	}), onex.Config{MinLength: 12, MaxLength: 12, Band: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.AddDB("power", db)
	resp, err := http.Get(hts.URL + "/viz/power/seasonal.svg?series=household-00&len=12")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(raw, "<svg") {
		t.Fatalf("seasonal svg: %d %s", resp.StatusCode, raw[:minInt(len(raw), 80)])
	}
}

func TestIndexPage(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	resp, err := http.Get(hts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	if !strings.Contains(raw, "ONEX") || !strings.Contains(raw, "growth") {
		t.Fatal("index page missing content")
	}
	// The API list advertises only routes the server answers.
	for _, want := range []string{"/api/v1/datasets/{name}/query", "/api/v1/datasets/{name}/analyze"} {
		if !strings.Contains(raw, want) {
			t.Fatalf("index page does not advertise %s", want)
		}
	}
	for _, gone := range []string{"/api/datasets", "query/similarity", "query/seasonal", "/thresholds"} {
		if strings.Contains(raw, gone) {
			t.Fatalf("index page still advertises %s", gone)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, mustRead(t, resp)); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func mustRead(t *testing.T, resp *http.Response) string {
	t.Helper()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
