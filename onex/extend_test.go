package onex

import (
	"context"
	"math"
	"testing"
)

func TestWithinThresholdPublic(t *testing.T) {
	db := openSmall(t)
	raw, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	q := raw[0:8]
	ms := find(t, db, Query{Values: q, MaxDist: 0.05})
	if len(ms) == 0 {
		t.Fatal("self window should be within any threshold")
	}
	for i, m := range ms {
		if m.Dist > 0.05+1e-9 {
			t.Fatalf("match %d beyond threshold: %g", i, m.Dist)
		}
		if i > 0 && ms[i-1].Dist > m.Dist {
			t.Fatal("results out of order")
		}
	}
	// Larger thresholds can only grow the set.
	if more := find(t, db, Query{Values: q, MaxDist: 0.1}); len(more) < len(ms) {
		t.Fatal("looser threshold shrank the result set")
	}
	// Limit honored.
	if lim := find(t, db, Query{Values: q, MaxDist: 0.1, K: 2}); len(lim) > 2 {
		t.Fatal("limit ignored")
	}
}

func TestCommonPatternsPublic(t *testing.T) {
	db := openSmall(t)
	shapes := analyze(t, db, Analysis{Kind: AnalysisCommonPatterns, MinSeries: 2, K: 5}).Common
	if len(shapes) == 0 {
		t.Fatal("MATTERS regional structure should yield cross-series shapes")
	}
	if len(shapes) > 5 {
		t.Fatal("k ignored")
	}
	for _, s := range shapes {
		if len(s.Series) < 2 {
			t.Fatalf("shape spans %d series", len(s.Series))
		}
		if len(s.Rep) != s.Length || s.TotalMembers < len(s.Series) {
			t.Fatalf("malformed shape %+v", s)
		}
		seen := map[string]bool{}
		for _, n := range s.Series {
			if seen[n] {
				t.Fatal("duplicate series name")
			}
			seen[n] = true
		}
	}
}

func TestSimilaritySweepPublic(t *testing.T) {
	db := openSmall(t)
	raw, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	pts := analyze(t, db, Analysis{
		Kind: AnalysisSimilaritySweep, Values: raw[0:8], Thresholds: []float64{0.02, 0.05, 0.1},
	}).Sweep
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Matches > pts[i].Matches {
			t.Fatal("sweep not monotone")
		}
	}
	if pts[len(pts)-1].Matches == 0 {
		t.Fatal("no matches at the loosest threshold despite self window")
	}
}

func TestThresholdDistributionPublic(t *testing.T) {
	db := openSmall(t)
	tr := analyze(t, db, Analysis{Kind: AnalysisThresholds}).Thresholds
	dists, probe, recs := tr.Sample, tr.ProbeLength, tr.Recommendations
	if len(dists) == 0 || probe < 2 || len(recs) != 3 {
		t.Fatalf("distribution shape: %d dists, probe %d, %d recs", len(dists), probe, len(recs))
	}
	// Sorted ascending, and the recommended STs sit inside the sample range.
	for i := 1; i < len(dists); i++ {
		if dists[i-1] > dists[i] {
			t.Fatal("distances not sorted")
		}
	}
	for _, r := range recs {
		if r.ST < dists[0]-1e-9 || r.ST > dists[len(dists)-1]+1e-9 {
			t.Fatalf("recommendation %g outside sample range [%g, %g]",
				r.ST, dists[0], dists[len(dists)-1])
		}
	}
}

func TestGroupMembersPublic(t *testing.T) {
	db := openSmall(t)
	ov := analyze(t, db, Analysis{Kind: AnalysisOverview, Length: 6, K: 1}).Groups
	if len(ov) == 0 {
		t.Fatal("no overview")
	}
	members := analyze(t, db, Analysis{Kind: AnalysisGroupMembers, Length: ov[0].Length, Index: ov[0].Index}).Members
	if len(members) != ov[0].Count {
		t.Fatalf("members %d != overview count %d", len(members), ov[0].Count)
	}
	for i, m := range members {
		if m.Length != 6 || len(m.Values) != 6 {
			t.Fatalf("malformed member %+v", m)
		}
		if i > 0 && members[i-1].RepED > m.RepED {
			t.Fatal("members not sorted")
		}
	}
	if _, err := db.Analyze(context.Background(), Analysis{Kind: AnalysisGroupMembers, Length: 6, Index: 1 << 20}); err == nil {
		t.Fatal("out-of-range group accepted")
	}
}

// TestGroupMembersStableAcrossIngest: a group's overview address stays
// valid across an ingest that makes the group outgrow every group at an
// earlier position.
func TestGroupMembersStableAcrossIngest(t *testing.T) {
	db := openSmall(t)
	const length = 6
	ov := analyze(t, db, Analysis{Kind: AnalysisOverview, Length: length}).Groups
	// The last-ranked group not at position 0: the smallest, so it has
	// every group before it to outgrow.
	var g GroupInfo
	for _, cand := range ov {
		if cand.Index != 0 {
			g = cand
		}
	}
	if g.Index == 0 || ov[0].Count <= g.Count {
		t.Fatalf("no group to outgrow in %d overview rows", len(ov))
	}
	v := db.Version()

	// Repeats of g's shape: every window starting at a multiple of length
	// is g's representative, so g gains at least reps members.
	reps := ov[0].Count + 1
	vals := make([]float64, 0, reps*length)
	for i := 0; i < reps; i++ {
		vals = append(vals, g.Rep...)
	}
	if err := db.AddSeries("ZZrepeat", vals); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v+1 {
		t.Fatalf("version %d after one ingest at %d", db.Version(), v)
	}

	members := analyze(t, db, Analysis{Kind: AnalysisGroupMembers, Length: length, Index: g.Index}).Members
	added := 0
	for _, m := range members {
		if m.Series == "ZZrepeat" {
			added++
		}
	}
	if added < reps || len(members) != g.Count+added {
		t.Fatalf("group %d/%d: %d members with %d new, want %d old and at least %d new",
			length, g.Index, len(members), added, g.Count, reps)
	}
	if len(members) <= ov[0].Count {
		t.Fatalf("group %d/%d has %d members, did not outgrow the largest (%d)", length, g.Index, len(members), ov[0].Count)
	}
	var now *GroupInfo
	for _, row := range analyze(t, db, Analysis{Kind: AnalysisOverview, Length: length}).Groups {
		if row.Index == g.Index {
			now = &row
		}
	}
	if now == nil || now.Count != len(members) {
		t.Fatalf("overview row for group %d/%d after ingest: %+v, want %d members", length, g.Index, now, len(members))
	}
	for i, x := range g.Rep {
		if now.Rep[i] != x {
			t.Fatalf("group %d/%d representative changed: %v, was %v", length, g.Index, now.Rep, g.Rep)
		}
	}
}

func TestLengthSummariesPublic(t *testing.T) {
	db := openSmall(t)
	ls := analyze(t, db, Analysis{Kind: AnalysisLengthSummaries}).LengthSummaries
	if len(ls) == 0 {
		t.Fatal("no length summaries")
	}
	total := 0
	for _, s := range ls {
		total += s.Subsequences
	}
	if total != db.Stats().Subsequences {
		t.Fatalf("summaries total %d != stats %d", total, db.Stats().Subsequences)
	}
}

func TestAddSeriesPublic(t *testing.T) {
	db := openSmall(t)
	before := db.Stats()

	// A near-clone of MA shifted by epsilon: after insertion it must be
	// MA's nearest other series.
	maVals, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	clone := make([]float64, len(maVals))
	for i, v := range maVals {
		clone[i] = v + 0.0001
	}
	if err := db.AddSeries("MA2", clone); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.Series != before.Series+1 {
		t.Fatalf("series count %d, want %d", after.Series, before.Series+1)
	}
	if after.Subsequences <= before.Subsequences {
		t.Fatal("no subsequences indexed for the new series")
	}
	m := find(t, db, otherSeries("MA", 0, 8))[0]
	if m.Series != "MA2" {
		t.Fatalf("nearest other series = %s, want the inserted clone", m.Series)
	}
	if m.Dist > 0.01 {
		t.Fatalf("clone distance %g unexpectedly large", m.Dist)
	}
	// The new series is queryable as a source too.
	find(t, db, selfWindow("MA2", 0, 6))
}

func TestAddSeriesValidation(t *testing.T) {
	db := openSmall(t)
	if err := db.AddSeries("", []float64{1, 2}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := db.AddSeries("X", nil); err == nil {
		t.Fatal("empty values accepted")
	}
	if err := db.AddSeries("MA", []float64{1, 2, 3}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Failed adds must not corrupt the DB.
	if _, err := db.Find(context.Background(), selfWindow("MA", 0, 6)); err != nil {
		t.Fatalf("db corrupted after rejected adds: %v", err)
	}
}

func TestAddSeriesOutOfRangeValues(t *testing.T) {
	db := openSmall(t)
	// Values far beyond the normalization range map outside [0,1] but must
	// still index and validate.
	big := make([]float64, 16)
	for i := range big {
		big[i] = 1e4 + float64(i)
	}
	if err := db.AddSeries("huge", big); err != nil {
		t.Fatal(err)
	}
	if m := find(t, db, selfWindow("huge", 0, 8))[0]; math.IsNaN(m.Dist) {
		t.Fatal("NaN distance after out-of-range insert")
	}
}
