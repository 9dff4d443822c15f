package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// sweep runs one similarity sweep under the engine's own options.
func sweep(e *Engine, q, thresholds []float64) ([]SweepPoint, error) {
	return e.SimilaritySweepContext(context.Background(), q, thresholds, QueryConstraints{}, e.Options(), nil)
}

func TestSimilaritySweepMonotone(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := d.Series[1].Values[4:11]
	thresholds := []float64{0.05, 0.2, 0.5, 1.0, 2.0}
	pts, err := sweep(e, q, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(thresholds) {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.MaxDist != thresholds[i] {
			t.Fatalf("thresholds reordered: %+v", pts)
		}
		if i > 0 && pts[i-1].Matches > p.Matches {
			t.Fatal("match count not monotone in threshold")
		}
	}
	// Each point must agree with a direct range query.
	for _, p := range pts[:2] {
		ms, err := within(e, q, FindOptions{MaxDist: p.MaxDist})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != p.Matches {
			t.Fatalf("sweep %d matches at %g, direct query %d", p.Matches, p.MaxDist, len(ms))
		}
	}
	// The self window guarantees at least one match at any threshold.
	if pts[0].Matches == 0 {
		t.Fatal("zero matches even with the self window indexed")
	}
}

func TestSimilaritySweepUnsortedInputAndErrors(t *testing.T) {
	d, e := newTestWorld(t, 4, 24, 0.1, 4, 8, ModeApprox, -1)
	q := d.Series[0].Values[0:6]
	pts, err := sweep(e, q, []float64{1.0, 0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Output is in ascending threshold order regardless of input order.
	if pts[0].MaxDist != 0.1 || pts[2].MaxDist != 1.0 {
		t.Fatalf("sweep not sorted: %+v", pts)
	}
	if _, err := sweep(e, q, nil); err == nil {
		t.Fatal("empty thresholds accepted")
	}
	if _, err := sweep(e, q, []float64{-1}); err == nil {
		t.Fatal("negative thresholds accepted")
	}
}

// TestBestMatchWithStats checks the statistics an approximate top-1 Find
// reports alongside its match.
func TestBestMatchWithStats(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := d.Series[2].Values[3:10]
	find := func(q []float64, c QueryConstraints) (FindResult, error) {
		return e.Find(context.Background(), q, FindOptions{Options: e.Options(), K: 1, Constraints: c})
	}
	res, err := find(q, QueryConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	m, st := res.Matches[0], res.Stats
	if m.Dist != 0 {
		t.Fatalf("self query dist = %g", m.Dist)
	}
	if st.Groups == 0 {
		t.Fatal("no groups counted")
	}
	// Pruned and refined are disjoint tallies over the candidate groups
	// (an abandoned representative DTW counts as both a DTW started and a
	// prune, so RepDTW overlaps with GroupsLBPruned).
	if st.GroupsLBPruned+st.GroupsRefined > st.Groups {
		t.Fatalf("impossible stats: %+v", st)
	}
	if st.RepDTW == 0 {
		t.Fatalf("no representative DTW counted: %+v", st)
	}
	if st.GroupsRefined == 0 || st.Members == 0 {
		t.Fatalf("refinement not counted: %+v", st)
	}
	if st.MemberDTW > st.Members {
		t.Fatalf("more member DTW than members: %+v", st)
	}
	// The whole point of the base: the engine refines far fewer groups
	// than exist.
	if st.GroupsRefined > st.Groups/2 {
		t.Logf("note: refined %d of %d groups (loose threshold)", st.GroupsRefined, st.Groups)
	}
	// Errors propagate.
	if _, err := find([]float64{1}, QueryConstraints{}); err == nil {
		t.Fatal("short query accepted")
	}
	if _, err := find(q, QueryConstraints{MinLength: 999, MaxLength: 999}); err == nil {
		t.Fatal("impossible constraints accepted")
	}
}

// TestSimilaritySweepCountsMatchRange pins the sweep's count at a threshold
// to the size of a range query at that threshold, with no slack: for the
// top-20 matches of each self-excluding query on the walk base, a sweep over
// {the float just below the match's score, a threshold above every score}
// must count exactly what the range query at the lower threshold returns.
func TestSimilaritySweepCountsMatchRange(t *testing.T) {
	d, e := walkWorld(t, 1)
	ctx := context.Background()
	opts := e.Options()
	for qi, oq := range oracleQueries(d, 1, 8, 14) {
		c := QueryConstraints{ExcludeOverlap: oq.src}
		top, err := e.Find(ctx, oq.q, FindOptions{Options: Options{Band: opts.Band, Mode: ModeExact}, K: 20, Constraints: c})
		if err != nil {
			t.Fatal(err)
		}
		large := 2 * top.Matches[len(top.Matches)-1].Score
		for _, m := range top.Matches {
			th := math.Nextafter(m.Score, math.Inf(-1))
			pts, err := e.SimilaritySweepContext(ctx, oq.q, []float64{th, large}, c, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := within(e, oq.q, FindOptions{MaxDist: th, Constraints: c})
			if err != nil && !errors.Is(err, ErrNoMatch) {
				t.Fatal(err)
			}
			if pts[0].Matches != len(ms) {
				t.Errorf("query %d: the sweep counts %d matches at %g, the range query returns %d", qi, pts[0].Matches, th, len(ms))
			}
		}
	}
}
