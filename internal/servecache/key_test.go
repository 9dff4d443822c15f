package servecache

import (
	"encoding/json"
	"math"
	"testing"

	"repro/onex"
)

// TestCanonicalQueryEqualPairs: structurally different requests that the
// engine is contractually bound to answer byte-identically must share a key.
func TestCanonicalQueryEqualPairs(t *testing.T) {
	base := onex.Query{Values: []float64{1, 2, 3}, K: 1}
	tests := []struct {
		name string
		a, b onex.Query
	}{
		{"identical", base, base},
		{
			// Find resolves K < 1 to 1 in top-K mode and echoes 1.
			"k zero vs one",
			onex.Query{Values: []float64{1, 2, 3}},
			onex.Query{Values: []float64{1, 2, 3}, K: 1},
		},
		{
			"k negative vs one",
			onex.Query{Values: []float64{1, 2, 3}, K: -5},
			onex.Query{Values: []float64{1, 2, 3}, K: 1},
		},
		{
			// Empty LengthNorm is documented (and echoed) as "length".
			"norm default vs length",
			onex.Query{Values: []float64{1, 2, 3}, K: 1, LengthNorm: onex.NormDefault},
			onex.Query{Values: []float64{1, 2, 3}, K: 1, LengthNorm: onex.NormLength},
		},
		{
			// nil and empty slices are indistinguishable after JSON decode.
			"nil vs empty exclude list",
			onex.Query{Values: []float64{1, 2, 3}, K: 1, Exclude: onex.Exclude{Series: nil}},
			onex.Query{Values: []float64{1, 2, 3}, K: 1, Exclude: onex.Exclude{Series: []string{}}},
		},
		{
			// The deprecated Workers field is ignored and never echoed.
			"workers ignored",
			onex.Query{Values: []float64{1, 2, 3}, K: 1, Workers: 2},
			onex.Query{Values: []float64{1, 2, 3}, K: 1},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := CanonicalQuery(tc.a), CanonicalQuery(tc.b)
			if ka != kb {
				t.Errorf("keys differ:\n a=%s\n b=%s", ka, kb)
			}
		})
	}
}

// TestCanonicalQueryDistinct: changing any semantic field must change the
// key — a collision here would serve one query's answer to another.
func TestCanonicalQueryDistinct(t *testing.T) {
	base := onex.Query{
		Values: []float64{1, 2, 3}, K: 2, MaxDist: 0, Band: 0,
		Lengths: onex.Lengths{Min: 4, Max: 8}, Mode: onex.ModeApprox,
	}
	mutations := map[string]onex.Query{}
	add := func(name string, mutate func(*onex.Query)) {
		q := base
		mutate(&q)
		mutations[name] = q
	}
	add("values element", func(q *onex.Query) { q.Values = []float64{1, 2, 4} })
	add("values shorter", func(q *onex.Query) { q.Values = []float64{1, 2} })
	add("values negzero", func(q *onex.Query) { q.Values = []float64{1, 2, math.Copysign(0, -1)} })
	add("window query", func(q *onex.Query) {
		q.Values = nil
		q.Window = onex.Window{Series: "MA", Start: 2, Length: 3}
	})
	add("k", func(q *onex.Query) { q.K = 3 })
	add("maxdist (range mode)", func(q *onex.Query) { q.MaxDist = 0.5 })
	add("exclude self", func(q *onex.Query) { q.Exclude.Self = true })
	add("exclude series", func(q *onex.Query) { q.Exclude.Series = []string{"MA"} })
	add("exclude series order", func(q *onex.Query) { q.Exclude.Series = []string{"NY", "MA"} })
	add("lengths min", func(q *onex.Query) { q.Lengths.Min = 5 })
	add("lengths max", func(q *onex.Query) { q.Lengths.Max = 9 })
	add("mode", func(q *onex.Query) { q.Mode = onex.ModeExact })
	add("band", func(q *onex.Query) { q.Band = 3 })
	add("norm", func(q *onex.Query) { q.LengthNorm = onex.NormRaw })

	baseKey := CanonicalQuery(base)
	seen := map[string]string{"base": baseKey}
	for name, q := range mutations {
		key := CanonicalQuery(q)
		if key == baseKey {
			t.Errorf("%s: mutated query collides with base", name)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: collides with %s", name, prev)
		}
		seen[key] = name
	}
}

// TestCanonicalQuerySeparatorInjection: series names containing the key's
// own separator bytes must not let two different requests collide.
func TestCanonicalQuerySeparatorInjection(t *testing.T) {
	a := onex.Query{Window: onex.Window{Series: `x|wo=1`, Start: 2, Length: 3}, K: 1}
	b := onex.Query{Window: onex.Window{Series: `x`, Start: 1, Length: 3}, K: 1}
	if CanonicalQuery(a) == CanonicalQuery(b) {
		t.Fatal("separator bytes in a series name forged another query's key")
	}
	c := onex.Query{Values: []float64{1}, K: 1, Exclude: onex.Exclude{Series: []string{`a","b`}}}
	d := onex.Query{Values: []float64{1}, K: 1, Exclude: onex.Exclude{Series: []string{`a`, `b`}}}
	if CanonicalQuery(c) == CanonicalQuery(d) {
		t.Fatal("quote bytes in an exclude name forged a two-element list")
	}
}

func TestCanonicalAnalysisEqualPairs(t *testing.T) {
	tests := []struct {
		name string
		a, b onex.Analysis
	}{
		{
			// Seasonal resolves K<=0 to 16 and MinOccurrences<2 to 2.
			"seasonal defaults",
			onex.Analysis{Kind: onex.AnalysisSeasonal, Series: "MA"},
			onex.Analysis{Kind: onex.AnalysisSeasonal, Series: "MA", K: 16, MinOccurrences: 2},
		},
		{
			"common-patterns defaults",
			onex.Analysis{Kind: onex.AnalysisCommonPatterns},
			onex.Analysis{Kind: onex.AnalysisCommonPatterns, K: 16, MinSeries: 2},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if ka, kb := CanonicalAnalysis(tc.a), CanonicalAnalysis(tc.b); ka != kb {
				t.Errorf("keys differ:\n a=%s\n b=%s", ka, kb)
			}
		})
	}
}

func TestCanonicalAnalysisDistinct(t *testing.T) {
	base := onex.Analysis{Kind: onex.AnalysisOverview, K: 8}
	mutations := []onex.Analysis{
		{Kind: onex.AnalysisLengthSummaries, K: 8},
		{Kind: onex.AnalysisOverview, K: 9},
		// Overview does NOT resolve K, so 0 and 16 stay distinct.
		{Kind: onex.AnalysisOverview},
		{Kind: onex.AnalysisOverview, K: 8, Length: 6},
		{Kind: onex.AnalysisOverview, K: 8, Series: "MA"},
		{Kind: onex.AnalysisOverview, K: 8, Mode: onex.ModeExact},
		{Kind: onex.AnalysisSeasonal, Series: "MA", Index: 1, K: 8},
		{Kind: onex.AnalysisSeasonal, Series: "MA", Index: 2, K: 8},
		{Kind: onex.AnalysisSimilaritySweep, Thresholds: []float64{0.1, 0.2}, K: 8},
		{Kind: onex.AnalysisSimilaritySweep, Thresholds: []float64{0.2, 0.1}, K: 8},
	}
	seen := map[string]int{}
	baseKey := CanonicalAnalysis(base)
	for i, a := range mutations {
		key := CanonicalAnalysis(a)
		if key == baseKey {
			t.Errorf("mutation %d collides with base", i)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("mutation %d collides with mutation %d", i, prev)
		}
		seen[key] = i
	}
}

// TestCanonicalStableAcrossJSON: a request decoded from JSON (any field
// order, whitespace) must key identically to the literal struct — the
// property that makes retried and hand-written requests cache-compatible.
func TestCanonicalStableAcrossJSON(t *testing.T) {
	lit := onex.Query{Values: []float64{1.5, -2.25}, K: 2, Mode: onex.ModeExact}
	for _, raw := range []string{
		`{"values":[1.5,-2.25],"k":2,"mode":"exact"}`,
		`{"mode":"exact", "k": 2, "values": [1.5, -2.25]}`,
		`{"mode":"exact","k":2,"values":[1.5,-2.25],"unknown_field":true}`,
	} {
		var q onex.Query
		if err := json.Unmarshal([]byte(raw), &q); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		if CanonicalQuery(q) != CanonicalQuery(lit) {
			t.Errorf("JSON %s keys differently from the literal struct", raw)
		}
	}
}
