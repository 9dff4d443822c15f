package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/onex"
)

func TestAddSeriesEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	// Fetch MA, post a near-clone, and verify it becomes MA's best match.
	var sv struct {
		Values []float64 `json:"values"`
	}
	getJSON(t, hts.URL+"/api/v1/datasets/growth/series/MA", &sv)
	clone := make([]float64, len(sv.Values))
	for i, v := range sv.Values {
		clone[i] = v + 0.0001
	}
	body, _ := json.Marshal(AddSeriesRequest{Series: "MA2", Values: clone})
	resp, err := http.Post(hts.URL+"/api/v1/datasets/growth/series", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add series status = %d", resp.StatusCode)
	}

	qresp, raw := postJSON(t, hts.URL+"/api/v1/datasets/growth/query", onex.Query{
		Window:  onex.Window{Series: "MA", Start: 0, Length: 8},
		Exclude: onex.Exclude{Series: []string{"MA"}},
	})
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", qresp.StatusCode, raw)
	}
	if ms := decodeResult(t, raw).Matches; len(ms) == 0 || ms[0].Series != "MA2" {
		t.Fatalf("inserted clone not found as best match: %+v", ms)
	}

	// Bad requests.
	for _, bad := range []string{`{`, `{}`, `{"series":"MA","values":[1,2]}`} {
		r2, err := http.Post(hts.URL+"/api/v1/datasets/growth/series", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode == http.StatusOK {
			t.Fatalf("bad add-series body %q accepted", bad)
		}
	}
	// Unknown dataset.
	r3, err := http.Post(hts.URL+"/api/v1/datasets/ghost/series", "application/json",
		strings.NewReader(`{"series":"x","values":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost dataset add status = %d", r3.StatusCode)
	}
}

func TestRangeEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/growth/query", onex.Query{
		Window: onex.Window{Series: "MA", Start: 0, Length: 8}, MaxDist: 0.2, K: 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range status = %d: %s", resp.StatusCode, raw)
	}
	res := decodeResult(t, raw)
	if len(res.Matches) == 0 {
		t.Fatal("range query found nothing within a generous threshold")
	}
	if len(res.Matches) > 10 {
		t.Fatal("K cap ignored")
	}
	for _, m := range res.Matches {
		if m.Dist > 0.2+1e-9 {
			t.Fatalf("match beyond threshold: %g", m.Dist)
		}
	}
	if res.Query.Mode != onex.ModeExact {
		t.Fatalf("range query echoed mode %q, want the certified %q", res.Query.Mode, onex.ModeExact)
	}

	// Ad-hoc values variant.
	resp, raw = postJSON(t, hts.URL+"/api/v1/datasets/growth/query", onex.Query{
		Values: []float64{2, 2.5, 3, 2.5, 2}, MaxDist: 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("values range status = %d: %s", resp.StatusCode, raw)
	}

	// Bad requests.
	for _, bad := range []string{`{`, `{"max_dist":1}`, `{"window":{"series":"MA","start":0,"length":9999},"max_dist":1}`} {
		r2, err := http.Post(hts.URL+"/api/v1/datasets/growth/query", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode == http.StatusOK {
			t.Fatalf("bad range body %q accepted", bad)
		}
	}
}

func TestExplorePage(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	resp, err := http.Get(hts.URL + "/explore/growth?series=MA&start=2&len=8")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d", resp.StatusCode)
	}
	for _, want := range []string{"Similarity View", "<svg", "Results", "max dist"} {
		if !strings.Contains(body, want) {
			t.Fatalf("explore page missing %q", want)
		}
	}
	// Defaults (no query params) still render: picks the first series and
	// brushes its second half.
	resp2, err := http.Get(hts.URL + "/explore/growth")
	if err != nil {
		t.Fatal(err)
	}
	body2 := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK || !strings.Contains(body2, "<svg") {
		t.Fatalf("default explore failed: %d", resp2.StatusCode)
	}
	// Bad window reports the error inline, not a 500.
	resp3, err := http.Get(hts.URL + "/explore/growth?series=MA&start=9999&len=8")
	if err != nil {
		t.Fatal(err)
	}
	body3 := readAll(t, resp3)
	if !strings.Contains(body3, "out of range") {
		t.Fatal("window error not surfaced")
	}
	// Unknown dataset 404s.
	resp4, err := http.Get(hts.URL + "/explore/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatal("ghost explore should 404")
	}
}

func TestVizThresholdsEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	resp, err := http.Get(hts.URL + "/viz/growth/thresholds.svg")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(body, "<svg") {
		t.Fatalf("thresholds svg: %d", resp.StatusCode)
	}
	for _, want := range []string{"tight", "balanced", "loose"} {
		if !strings.Contains(body, want) {
			t.Fatalf("threshold markers missing %q", want)
		}
	}
}

func TestGroupMembersEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	// Find a real group via the overview, then drill into it.
	groups := analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisOverview, Length: 6, K: 1}).Groups
	if len(groups) == 0 {
		t.Fatal("no overview groups")
	}
	members := analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisGroupMembers, Length: groups[0].Length, Index: groups[0].Index}).Members
	if len(members) != groups[0].Count {
		t.Fatalf("drill-down members %d != overview count %d", len(members), groups[0].Count)
	}
	for i, m := range members {
		if m.Series == "" || m.Length != 6 || len(m.Values) != 6 {
			t.Fatalf("malformed member %+v", m)
		}
		if i > 0 && members[i-1].RepED > m.RepED {
			t.Fatal("members not sorted nearest representative first")
		}
	}
	// Bad addresses.
	for _, a := range []onex.Analysis{
		{Kind: onex.AnalysisGroupMembers, Length: 6, Index: 99999},
		{Kind: onex.AnalysisGroupMembers, Length: 999},
		{Kind: onex.AnalysisGroupMembers, Length: 6, Index: -1},
	} {
		if resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/growth/analyze", a); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400 (%s)", a, resp.StatusCode, raw)
		}
	}
	if resp, _ := postJSON(t, hts.URL+"/api/v1/datasets/ghost/analyze",
		onex.Analysis{Kind: onex.AnalysisGroupMembers, Length: 6}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost dataset status = %d, want 404", resp.StatusCode)
	}
}

func TestLengthsEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	ls := analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisLengthSummaries}).LengthSummaries
	if len(ls) == 0 {
		t.Fatal("no length summaries")
	}
	for i, s := range ls {
		if s.Groups <= 0 || s.Subsequences <= 0 {
			t.Fatalf("empty summary %+v", s)
		}
		if i > 0 && ls[i-1].Length >= s.Length {
			t.Fatal("summaries not ascending")
		}
	}
	if resp, _ := postJSON(t, hts.URL+"/api/v1/datasets/ghost/analyze",
		onex.Analysis{Kind: onex.AnalysisLengthSummaries}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost dataset lengths status = %d, want 404", resp.StatusCode)
	}
}
