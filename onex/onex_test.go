package onex

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/ts"
)

func smallMatters(t testing.TB) *ts.Dataset {
	t.Helper()
	return gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 16})
}

func openSmall(t testing.TB) *DB {
	t.Helper()
	db, err := Open(smallMatters(t), Config{MinLength: 4, MaxLength: 10})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// find runs q through Find, failing the test on error.
func find(t testing.TB, db *DB, q Query) []Match {
	t.Helper()
	res, err := db.Find(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

// selfWindow is the demo's similarity flow: the window [start,
// start+length) of series as the query, excluding its own overlapping
// windows.
func selfWindow(series string, start, length int) Query {
	return Query{Window: Window{Series: series, Start: start, Length: length}, Exclude: Exclude{Self: true}}
}

// otherSeries is selfWindow excluding the whole source series, answering
// "which other series looks most like this one?".
func otherSeries(series string, start, length int) Query {
	return Query{Window: Window{Series: series, Start: start, Length: length}, Exclude: Exclude{Series: []string{series}}}
}

// analyze runs a through Analyze, failing the test on error.
func analyze(t testing.TB, db *DB, a Analysis) AnalysisResult {
	t.Helper()
	res, err := db.Analyze(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOpenDefaults(t *testing.T) {
	db := openSmall(t)
	cfg := db.Config()
	if cfg.ST <= 0 {
		t.Fatal("auto ST not resolved")
	}
	if cfg.Band <= 0 {
		t.Fatal("default band not resolved")
	}
	st := db.Stats()
	if st.Series != 50 || st.Subsequences == 0 || st.Groups == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CompactionRatio < 1 {
		t.Fatalf("compaction %g < 1", st.CompactionRatio)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(nil, Config{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := Open(ts.NewDataset("empty"), Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestOpenDoesNotMutateCaller(t *testing.T) {
	d := smallMatters(t)
	before := d.Series[0].Values[0]
	if _, err := Open(d, Config{MinLength: 4, MaxLength: 8}); err != nil {
		t.Fatal(err)
	}
	if d.Series[0].Values[0] != before {
		t.Fatal("Open mutated the caller's dataset")
	}
	if d.Norm.Kind != ts.NormNone {
		t.Fatal("Open normalized the caller's dataset")
	}
}

func TestBestMatchForSeriesDemoFlow(t *testing.T) {
	db := openSmall(t)
	// The demo selects MA and brushes a window; the best match must come
	// from elsewhere and carry a valid path and original-unit values.
	m := find(t, db, selfWindow("MA", 2, 8))[0]
	if m.Series == "" || m.Length != len(m.Values) {
		t.Fatalf("malformed match %+v", m)
	}
	if m.Series == "MA" {
		// Same series allowed if the window doesn't overlap; verify that.
		if m.Start < 2+8 && 2 < m.Start+m.Length {
			t.Fatal("match overlaps the query window")
		}
	}
	if len(m.Path) == 0 {
		t.Fatal("missing warping path")
	}
	if m.Dist < 0 || math.IsNaN(m.Dist) {
		t.Fatalf("bad distance %g", m.Dist)
	}
	// Values are in original units (growth percentages, not [0,1]).
	anyOutsideUnit := false
	for _, v := range m.Values {
		if v < 0 || v > 1 {
			anyOutsideUnit = true
		}
	}
	if !anyOutsideUnit {
		t.Log("warning: all match values inside [0,1]; cannot distinguish units")
	}
}

func TestBestMatchOtherSeriesExcludesSource(t *testing.T) {
	db := openSmall(t)
	if m := find(t, db, otherSeries("MA", 0, 8))[0]; m.Series == "MA" {
		t.Fatal("source series not excluded")
	}
}

func TestBestMatchAdHocQueryUnits(t *testing.T) {
	db := openSmall(t)
	// Query copied from the raw dataset (original units) must self-match
	// at distance ~0.
	raw, err := db.SeriesValues("CT")
	if err != nil {
		t.Fatal(err)
	}
	m := find(t, db, Query{Values: raw[3:10]})[0]
	if m.Dist > 1e-9 {
		t.Fatalf("self query in original units missed: dist %g", m.Dist)
	}
	if m.Series != "CT" || m.Start != 3 {
		t.Fatalf("matched %s[%d] instead of CT[3]", m.Series, m.Start)
	}
}

func TestKBestMatches(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	ms := find(t, db, Query{Values: raw[0:6], K: 4})
	if len(ms) == 0 || len(ms) > 4 {
		t.Fatal("no matches")
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Dist > ms[i].Dist {
			t.Fatal("matches out of order")
		}
	}
}

func TestSeasonalPublic(t *testing.T) {
	d := gen.ElectricityLoad(gen.ElectricityOptions{Households: 1, Days: 21, SamplesPerDay: 12})
	db, err := Open(d, Config{MinLength: 12, MaxLength: 12, Band: 2})
	if err != nil {
		t.Fatal(err)
	}
	pats := analyze(t, db, Analysis{
		Kind: AnalysisSeasonal, Series: "household-00", Lengths: Lengths{Min: 12, Max: 12},
	}).Patterns
	if len(pats) == 0 {
		t.Fatal("no daily pattern found in electricity data")
	}
	p := pats[0]
	if p.Occurrences < 2 || len(p.Starts) != p.Occurrences {
		t.Fatalf("malformed pattern %+v", p)
	}
	if p.Series != "household-00" || p.Length != 12 {
		t.Fatalf("pattern identity wrong: %+v", p)
	}
}

func TestOverviewPublic(t *testing.T) {
	db := openSmall(t)
	ov := analyze(t, db, Analysis{Kind: AnalysisOverview, Length: 6, K: 5}).Groups
	if len(ov) == 0 || len(ov) > 5 {
		t.Fatalf("overview size %d", len(ov))
	}
	for _, g := range ov {
		if g.Length != 6 || g.Count <= 0 || len(g.Rep) != 6 {
			t.Fatalf("bad group info %+v", g)
		}
	}
}

func TestRecommendThresholdsPublic(t *testing.T) {
	db := openSmall(t)
	recs := analyze(t, db, Analysis{Kind: AnalysisThresholds}).Thresholds.Recommendations
	if len(recs) != 3 {
		t.Fatalf("recommendations = %d", len(recs))
	}
}

func TestSeriesAccessors(t *testing.T) {
	db := openSmall(t)
	names := db.SeriesNames()
	if len(names) != 50 || names[0] != "AL" {
		t.Fatalf("names = %v...", names[:3])
	}
	if _, err := db.SeriesValues("nope"); err == nil {
		t.Fatal("unknown series accepted")
	}
	vals, err := db.SeriesValues("MA")
	if err != nil || len(vals) != 16 {
		t.Fatalf("MA values: %v %v", len(vals), err)
	}
	// Returned values are a copy.
	vals[0] = 1e9
	again, _ := db.SeriesValues("MA")
	if again[0] == 1e9 {
		t.Fatal("SeriesValues aliases internal storage")
	}
}

func TestOpenFileRoundTrip(t *testing.T) {
	d := smallMatters(t)
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := ts.SaveFile(path, d); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path, Config{MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().Series != 50 {
		t.Fatal("file round trip lost series")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing.csv"), Config{}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := LoadDataset(path); err != nil {
		t.Fatal(err)
	}
}

func TestExactConfig(t *testing.T) {
	db, err := Open(smallMatters(t), Config{MinLength: 4, MaxLength: 6, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := db.SeriesValues("MA")
	if m := find(t, db, Query{Values: raw[0:5]})[0]; m.Dist > 1e-9 {
		t.Fatalf("exact self query dist = %g", m.Dist)
	}
}

func TestKeepRawConfig(t *testing.T) {
	d := smallMatters(t)
	st := ts.DatasetStats(d)
	// Per-point threshold at ~1% of the raw value range keeps groups tight
	// enough that the approximate search ranks the self-match's group first.
	db, err := Open(d, Config{MinLength: 4, MaxLength: 6, KeepRaw: true, ST: st.Range() / 100})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := db.SeriesValues("MA")
	if m := find(t, db, Query{Values: raw[0:5]})[0]; m.Dist > 1e-9 {
		t.Fatalf("raw-mode self query dist = %g", m.Dist)
	}
}
