package server

import (
	"context"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// TestRouteSurface keeps the package doc and the mux in step: every route
// the doc lists is served (answers anything but 404/405), and every route
// of the removed legacy generation answers 404.
func TestRouteSurface(t *testing.T) {
	s, hts := newTestServer(t)
	loadGrowth(t, hts)
	h := s.Handler()
	serve := func(method, path string) int {
		// "{}" is a well-formed but incomplete body for every POST route;
		// GET routes ignore it.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return rec.Code
	}

	f, err := parser.ParseFile(token.NewFileSet(), "server.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	documented := regexp.MustCompile(`(?m)^\t(GET|POST) +(/\S*)`).FindAllStringSubmatch(f.Doc.Text(), -1)
	if len(documented) < 20 {
		t.Fatalf("package doc lists %d routes; the route table was not found", len(documented))
	}
	params := strings.NewReplacer("{name}", "growth", "{series}", "MA")
	for _, r := range documented {
		method, path := r[1], params.Replace(r[2])
		if code := serve(method, path); code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
			t.Errorf("documented route %s %s answers %d", method, path, code)
		}
	}

	for _, r := range []struct{ method, path string }{
		{"GET", "/api/datasets"},
		{"POST", "/api/datasets/load"},
		{"POST", "/api/datasets/growth/query"},
		{"POST", "/api/datasets/growth/analyze"},
		{"POST", "/api/v1/datasets/growth/query/similarity"},
		{"POST", "/api/v1/datasets/growth/query/range"},
		{"POST", "/api/v1/datasets/growth/query/seasonal"},
		{"GET", "/api/v1/datasets/growth/overview"},
		{"GET", "/api/v1/datasets/growth/lengths"},
		{"GET", "/api/v1/datasets/growth/groups/6/0"},
		{"GET", "/api/v1/datasets/growth/thresholds"},
	} {
		if code := serve(r.method, r.path); code != http.StatusNotFound {
			t.Errorf("removed route %s %s answers %d, want 404", r.method, r.path, code)
		}
	}
}

// TestVizCancelledRequest sends every SVG and explore route with an
// already-cancelled request context. A route that walks the base must
// abort instead of rendering the finished walk; the two routes that only
// read series values render either way.
func TestVizCancelledRequest(t *testing.T) {
	s, hts := newTestServer(t)
	loadGrowth(t, hts)
	h := s.Handler()
	for _, tc := range []struct {
		path  string
		walks bool
	}{
		{"/viz/growth/overview.svg?k=6", true},
		{"/viz/growth/match.svg?series=MA&start=0&len=8", true},
		{"/viz/growth/seasonal.svg?series=MA&len=5", true},
		{"/viz/growth/thresholds.svg", true},
		{"/explore/growth?series=MA&start=2&len=8", true},
		{"/viz/growth/radial.svg?a=MA&b=CT", false},
		{"/viz/growth/scatter.svg?a=MA&b=CT", false},
	} {
		live := httptest.NewRecorder()
		h.ServeHTTP(live, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if live.Code != http.StatusOK {
			t.Fatalf("%s with a live context: status %d: %s", tc.path, live.Code, live.Body)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil).WithContext(ctx))
		if tc.walks && rec.Code == http.StatusOK {
			t.Errorf("%s rendered a finished walk for a cancelled request", tc.path)
		}
		if !tc.walks && rec.Code != http.StatusOK {
			t.Errorf("%s (no walk) answered %d for a cancelled request", tc.path, rec.Code)
		}
	}
}
