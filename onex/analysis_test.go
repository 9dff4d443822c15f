package onex

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/gen"
)

// openPower builds a DB over a seasonal dataset so every analysis kind has
// non-trivial results (daily habits recur every 12 samples).
func openPower(t testing.TB) *DB {
	t.Helper()
	d := gen.ElectricityLoad(gen.ElectricityOptions{Households: 3, Days: 30, SamplesPerDay: 12})
	db, err := Open(d, Config{MinLength: 6, MaxLength: 14})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAnalyzeResolvedRequestAndStats(t *testing.T) {
	db := openPower(t)
	ctx := context.Background()

	res, err := db.Analyze(ctx, Analysis{Kind: AnalysisSeasonal, Series: "household-00"})
	if err != nil {
		t.Fatal(err)
	}
	req := res.Request
	if req.MinOccurrences != 2 || req.K != 16 {
		t.Fatalf("seasonal defaults not resolved: %+v", req)
	}
	if req.Lengths.Min != 6 || req.Lengths.Max != 14 {
		t.Fatalf("seasonal lengths not resolved to indexed range: %+v", req.Lengths)
	}
	if req.Mode != ModeApprox || req.Band != db.Config().Band {
		t.Fatalf("mode/band not resolved: %+v", req)
	}
	if res.Stats.Groups <= 0 || res.Stats.Candidates <= 0 || res.Stats.WallMicros < 0 {
		t.Fatalf("seasonal stats empty: %+v", res.Stats)
	}
	if res.Stats.DTWs != 0 {
		t.Fatalf("seasonal mining ran %d DTWs, want 0 (base-driven)", res.Stats.DTWs)
	}

	raw, err := db.SeriesValues("household-00")
	if err != nil {
		t.Fatal(err)
	}
	res, err = db.Analyze(ctx, Analysis{
		Kind: AnalysisSimilaritySweep, Values: raw[0:12], Thresholds: []float64{0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Request.Mode != ModeExact {
		t.Fatalf("sweep must echo the certified mode, got %q", res.Request.Mode)
	}
	if res.Stats.DTWs <= 0 || res.Stats.Groups <= 0 {
		t.Fatalf("sweep stats empty: %+v", res.Stats)
	}

	// A window addressing the same samples sweeps identically.
	winRes, err := db.Analyze(ctx, Analysis{
		Kind:       AnalysisSimilaritySweep,
		Window:     Window{Series: "household-00", Start: 0, Length: 12},
		Thresholds: []float64{0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(winRes.Sweep, res.Sweep) {
		t.Fatalf("sweep: window %+v != values %+v", winRes.Sweep, res.Sweep)
	}

	res, err = db.Analyze(ctx, Analysis{Kind: AnalysisCommonPatterns})
	if err != nil {
		t.Fatal(err)
	}
	if res.Request.MinSeries != 2 || res.Request.K != 16 {
		t.Fatalf("common-patterns defaults not resolved: %+v", res.Request)
	}

	// An auto-length overview echoes the length it selected, and K caps it.
	res, err = db.Analyze(ctx, Analysis{Kind: AnalysisOverview, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Request.Length == 0 || len(res.Groups) != 5 {
		t.Fatalf("overview: length %d, %d groups; want the selected length and 5 groups",
			res.Request.Length, len(res.Groups))
	}
}

func TestAnalyzeValidation(t *testing.T) {
	db := openPower(t)
	ctx := context.Background()
	raw, _ := db.SeriesValues("household-00")

	cases := []struct {
		label string
		a     Analysis
		field string
	}{
		{"unknown kind", Analysis{Kind: "bogus"}, "Kind"},
		{"empty kind", Analysis{}, "Kind"},
		{"bad mode", Analysis{Kind: AnalysisOverview, Mode: "sideways"}, "Mode"},
		{"negative overview length", Analysis{Kind: AnalysisOverview, Length: -1}, "Length"},
		{"group-members without length", Analysis{Kind: AnalysisGroupMembers}, "Length"},
		{"group-members negative index", Analysis{Kind: AnalysisGroupMembers, Length: 6, Index: -1}, "Index"},
		{"seasonal without series", Analysis{Kind: AnalysisSeasonal}, "Series"},
		{"negative lengths", Analysis{Kind: AnalysisSeasonal, Series: "household-00",
			Lengths: Lengths{Min: -1}}, "Lengths"},
		{"inverted lengths", Analysis{Kind: AnalysisCommonPatterns,
			Lengths: Lengths{Min: 10, Max: 6}}, "Lengths"},
		{"sweep without thresholds", Analysis{Kind: AnalysisSimilaritySweep, Values: raw[0:12]}, "Thresholds"},
		{"sweep negative threshold", Analysis{Kind: AnalysisSimilaritySweep, Values: raw[0:12],
			Thresholds: []float64{-0.1}}, "Thresholds"},
		{"sweep without query", Analysis{Kind: AnalysisSimilaritySweep, Thresholds: []float64{0.1}}, "Values"},
		{"sweep with values and window", Analysis{Kind: AnalysisSimilaritySweep,
			Values: raw[0:12], Window: Window{Series: "household-00", Length: 12},
			Thresholds: []float64{0.1}}, "Values"},
	}
	for _, tc := range cases {
		_, err := db.Analyze(ctx, tc.a)
		var ae *AnalysisError
		if !errors.As(err, &ae) {
			t.Fatalf("%s: err = %v, want *AnalysisError", tc.label, err)
		}
		if ae.Field != tc.field {
			t.Fatalf("%s: Field = %q, want %q (%v)", tc.label, ae.Field, tc.field, ae)
		}
	}

	// Fields irrelevant to the Kind are not consulted: garbage Lengths on
	// an overview (which never reads them) must not trip validation.
	if _, err := db.Analyze(ctx, Analysis{Kind: AnalysisOverview,
		Lengths: Lengths{Min: 9, Max: 3}}); err != nil {
		t.Fatalf("overview with irrelevant Lengths rejected: %v", err)
	}

	// Engine-level errors pass through untyped.
	if _, err := db.Analyze(ctx, Analysis{Kind: AnalysisSeasonal, Series: "ghost"}); err == nil {
		t.Fatal("unknown series accepted")
	}
	if _, err := db.Analyze(ctx, Analysis{Kind: AnalysisGroupMembers, Length: 6, Index: 1 << 20}); err == nil {
		t.Fatal("out-of-range group index accepted")
	}
}

// TestAnalyzePreCancelled verifies every kind observes an already-dead
// context before doing work.
func TestAnalyzePreCancelled(t *testing.T) {
	db := openPower(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw, err := db.SeriesValues("household-00")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Analysis{
		{Kind: AnalysisOverview},
		{Kind: AnalysisGroupMembers, Length: 6},
		{Kind: AnalysisLengthSummaries},
		{Kind: AnalysisSeasonal, Series: "household-00"},
		{Kind: AnalysisCommonPatterns},
		{Kind: AnalysisSimilaritySweep, Values: raw[0:12], Thresholds: []float64{0.1}},
		{Kind: AnalysisThresholds},
	} {
		if _, err := db.Analyze(ctx, a); !errors.Is(err, context.Canceled) {
			t.Fatalf("kind %s: err = %v, want context.Canceled", a.Kind, err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	db := openPower(b)
	raw, err := db.SeriesValues("household-00")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("seasonal", func(b *testing.B) {
		a := Analysis{Kind: AnalysisSeasonal, Series: "household-00",
			Lengths: Lengths{Min: 12, Max: 12}, MinOccurrences: 3}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Analyze(ctx, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		a := Analysis{Kind: AnalysisSimilaritySweep, Values: raw[0:12],
			Thresholds: []float64{0.02, 0.05, 0.1}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Analyze(ctx, a); err != nil {
				b.Fatal(err)
			}
		}
	})
}
