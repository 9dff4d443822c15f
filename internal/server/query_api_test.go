package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/onex"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeResult(t *testing.T, raw []byte) onex.Result {
	t.Helper()
	var res onex.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode result: %v (%s)", err, raw)
	}
	return res
}

func requireSameMatches(t *testing.T, label string, want, got []onex.Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: library %d matches, server %d", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Series != g.Series || w.Start != g.Start || w.Length != g.Length {
			t.Fatalf("%s: match %d differs: %+v vs %+v", label, i, w, g)
		}
		if math.Abs(w.Dist-g.Dist) > 1e-12 {
			t.Fatalf("%s: match %d dist %g vs %g", label, i, w.Dist, g.Dist)
		}
	}
}

// TestUnifiedQueryParity answers similarity and range fixtures through the
// /api/v1 query endpoint and through the library on the server's own DB,
// and requires identical matches plus the resolved query and stats.
func TestUnifiedQueryParity(t *testing.T) {
	s, hts := newTestServer(t)
	loadGrowth(t, hts)
	db, ok := s.db("growth")
	if !ok {
		t.Fatal("growth not registered")
	}
	window := onex.Window{Series: "MA", Start: 0, Length: 8}
	for _, tc := range []struct {
		label string
		q     onex.Query
	}{
		{"similarity", onex.Query{Window: window, Exclude: onex.Exclude{Self: true}}},
		{"exclude-source", onex.Query{Window: window, Exclude: onex.Exclude{Series: []string{"MA"}}}},
		{"range", onex.Query{Window: window, MaxDist: 0.2, K: 10}},
		{"values", onex.Query{Values: []float64{2, 2.5, 3, 2.5, 2}, K: 3}},
	} {
		want, err := db.Find(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/growth/query", tc.q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", tc.label, resp.StatusCode, raw)
		}
		res := decodeResult(t, raw)
		requireSameMatches(t, tc.label, want.Matches, res.Matches)
		if !reflect.DeepEqual(res.Query, want.Query) {
			t.Fatalf("%s: resolved query %+v, library %+v", tc.label, res.Query, want.Query)
		}
		if res.Stats.Groups <= 0 || res.Stats.DTWs <= 0 {
			t.Fatalf("%s: response lacks stats: %+v", tc.label, res.Stats)
		}
	}
}

func TestUnifiedQueryOverridesAndErrors(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	// Per-query exact mode is accepted and echoed in the resolved query.
	resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/growth/query", onex.Query{
		Window:  onex.Window{Series: "MA", Start: 0, Length: 8},
		Exclude: onex.Exclude{Self: true},
		Mode:    onex.ModeExact,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact-mode query status = %d: %s", resp.StatusCode, raw)
	}
	if res := decodeResult(t, raw); res.Query.Mode != onex.ModeExact {
		t.Fatalf("mode override not echoed: %+v", res.Query)
	}

	// Bad requests 400, unknown dataset 404.
	for _, bad := range []string{
		`{`,
		`{}`,
		`{"values":[1,2,3],"window":{"series":"MA","start":0,"length":8}}`,
		`{"values":[1,2,3],"mode":"bogus"}`,
		`{"window":{"series":"ghost","start":0,"length":8}}`,
	} {
		resp, err := http.Post(hts.URL+"/api/v1/datasets/growth/query", "application/json",
			strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp2, err := http.Post(hts.URL+"/api/v1/datasets/ghost/query", "application/json",
		strings.NewReader(`{"values":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost dataset status = %d, want 404", resp2.StatusCode)
	}
}

// TestV1Aliases verifies every GET data route answers under /api/v1 and
// that the unversioned /api copies are gone.
func TestV1Aliases(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	for _, path := range []string{
		"/healthz",
		"/datasets",
		"/datasets/growth/series",
		"/datasets/growth/series/MA",
	} {
		for prefix, want := range map[string]int{"/api/v1": http.StatusOK, "/api": http.StatusNotFound} {
			resp, err := http.Get(hts.URL + prefix + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("%s%s status = %d, want %d", prefix, path, resp.StatusCode, want)
			}
		}
	}
}
