package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

func TestWithinThresholdBasics(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := d.Series[1].Values[4:11]
	ms, err := within(e, q, FindOptions{MaxDist: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches within a generous threshold")
	}
	for i, m := range ms {
		if m.Score > 0.5+1e-9 {
			t.Fatalf("match %d beyond threshold: %g", i, m.Score)
		}
		if i > 0 && ms[i-1].Score > m.Score {
			t.Fatal("range results out of order")
		}
		if err := m.Ref.Validate(d); err != nil {
			t.Fatal(err)
		}
		if !m.Path.Valid(len(q), m.Ref.Length) {
			t.Fatal("range match path invalid")
		}
	}
	// The self window is in range at distance 0.
	if ms[0].Dist != 0 {
		t.Fatalf("best range match dist = %g, want 0", ms[0].Dist)
	}
}

// rangeWorld is one base of the range oracle plus its queries.
type rangeWorld struct {
	name    string
	d       *ts.Dataset
	e       *Engine
	queries []oracleQuery
}

// rangeWorlds returns the range oracle's bases: the compacting walk base
// and its ×1e6 raw-unit copy, the all-singleton base, the streamed
// radius-zero base queried on lightly perturbed windows of its streamed
// walk, and a small mixed base queried with random walks.
func rangeWorlds(t *testing.T) []rangeWorld {
	var out []rangeWorld
	for _, scale := range []float64{1, 1e6} {
		d, e := walkWorld(t, scale)
		out = append(out, rangeWorld{fmt.Sprintf("walk x%g", scale), d, e, oracleQueries(d, scale, 6, 16)})
	}
	d, e := singletonWorld(t)
	out = append(out, rangeWorld{"singleton", d, e, oracleQueries(d, 1, 16, 24)})

	d, e = streamedRadiusWorld(t, 0.012, 0.03)
	rng := rand.New(rand.NewSource(71))
	walk := d.IndexOf("walk")
	var streamed []oracleQuery
	for i := 0; i < 4; i++ {
		l := 9 + rng.Intn(3)
		src := ts.SubSeq{Series: walk, Start: rng.Intn(d.Series[walk].Len() - l + 1), Length: l}
		q := append([]float64(nil), src.Values(d)...)
		for j := range q {
			q[j] += rng.NormFloat64() * 0.001
		}
		streamed = append(streamed, oracleQuery{q: q, src: src})
	}
	out = append(out, rangeWorld{"streamed radius-zero", d, e, streamed})

	d, e = newTestWorld(t, 4, 24, 0.08, 4, 8, ModeApprox, 3)
	rng = rand.New(rand.NewSource(31))
	var walks []oracleQuery
	for i := 0; i < 8; i++ {
		q, v := make([]float64, 4+rng.Intn(5)), rng.Float64()
		for j := range q {
			v += rng.NormFloat64() * 0.1
			q[j] = v
		}
		walks = append(walks, oracleQuery{q: q})
	}
	return append(out, rangeWorld{"mixed", d, e, walks})
}

// TestPropertyWithinThresholdComplete is the differential oracle of range
// mode: a range query returns brute force's windows scoring within
// MaxDist, best first, refs exact and distances and scores to 1e-9 — the
// first K of them when K > 0. Certified group skipping must never lose a
// qualifying member, and the sink must hold none beyond MaxDist. It runs
// K in {0, 1, 5} at MaxDist equal to the oracle's 3rd and 8th best score,
// so a K = 5 sink runs both unfilled and full, at bands -1/0/3, LengthNorm
// on and off, with and without an overlap exclusion, on every base of
// rangeWorlds. The calls ask for approx mode, which range ignores. Every
// answer reports no representative DTW, and GroupsLBPruned +
// GroupsRefined = Groups.
func TestPropertyWithinThresholdComplete(t *testing.T) {
	ctx := context.Background()
	for _, w := range rangeWorlds(t) {
		b := w.e.Base()
		for qi, oq := range w.queries {
			for _, band := range []int{-1, 0, 3} {
				raw := bruteScan(w.d, oq.q, band, b.MinLength, b.MaxLength)
				for _, ln := range []bool{false, true} {
					opts := Options{Band: band, LengthNorm: ln}
					for _, exclude := range []bool{false, true} {
						var c QueryConstraints
						if exclude {
							c.ExcludeOverlap = oq.src
						}
						var all []Match // every window c admits, best first
						for ref, dd := range raw {
							if !c.excludes(ref) {
								all = append(all, Match{Ref: ref, Dist: dd, Score: dd / opts.norm(len(oq.q), ref.Length)})
							}
						}
						sort.Slice(all, func(i, j int) bool { return matchBefore(all[i], all[j]) })
						for _, nth := range []int{3, 8} {
							maxDist := all[nth-1].Score
							in := sort.Search(len(all), func(i int) bool { return all[i].Score > maxDist })
							for _, k := range []int{0, 1, 5} {
								label := fmt.Sprintf("%s query %d band %d norm %v exclude %v max %dth k %d",
									w.name, qi, band, ln, exclude, nth, k)
								want := all[:in]
								if k > 0 && k < in {
									want = want[:k]
								}
								res, err := w.e.Find(ctx, oq.q, FindOptions{Options: opts, K: k, Range: true, MaxDist: maxDist, Constraints: c})
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								sameRange(t, label, res.Matches, want)
								st := res.Stats
								if st.RepDTW != 0 || st.GroupsLBPruned+st.GroupsRefined != st.Groups {
									t.Fatalf("%s: %d representative DTWs; pruned %d + refined %d, groups %d",
										label, st.RepDTW, st.GroupsLBPruned, st.GroupsRefined, st.Groups)
								}
							}
						}
					}
				}
			}
		}
	}
}

// sameRange checks a range answer against the oracle's: the same refs in
// the same order, distances and scores to 1e-9.
func sameRange(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, brute force has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Ref != want[i].Ref || !closeTo(got[i].Dist, want[i].Dist) || !closeTo(got[i].Score, want[i].Score) {
			t.Fatalf("%s: match %d is %v at %g (score %g), brute force %v at %g (score %g)", label, i,
				got[i].Ref, got[i].Dist, got[i].Score, want[i].Ref, want[i].Dist, want[i].Score)
		}
	}
}

// TestWithinThresholdInclusiveAtGroupBound pins the inclusive threshold at
// the group bound. At band 0, where LB_Keogh equals DTW, a radius-zero
// group's bound is its member's raw distance d; under LengthNorm a range
// query at MaxDist = d/n must keep it, and a bound abandoned at the
// product MaxDist*n, which rounds below d when (d/n)·n < d, skips it. The
// constant-zero query of length 11 is at distance 15, the window's sum,
// from the base's one window.
func TestWithinThresholdInclusiveAtGroupBound(t *testing.T) {
	const n, sum = 11, 15
	if raw, norm := float64(sum), float64(n); raw/norm*norm >= raw {
		t.Fatalf("(%g/%g)*%g does not round below %g", raw, norm, norm, raw)
	}
	d := ts.NewDataset("inclusive")
	d.MustAdd(ts.NewSeries("a", []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1}))
	b, err := grouping.Build(d, grouping.Options{ST: 0.2, MinLength: n, MaxLength: n})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gs := b.GroupsOfLength(n); len(gs) != 1 || !e.radiusZero(gs[0]) {
		t.Fatal("the base is not one radius-zero group")
	}
	q := make([]float64, n)
	maxDist := float64(sum) / n
	for _, k := range []int{0, 1} {
		res, err := e.Find(context.Background(), q, FindOptions{
			Options: Options{Band: 0, LengthNorm: true}, K: k, Range: true, MaxDist: maxDist,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0].Dist != sum {
			t.Fatalf("k %d: range at MaxDist %g returned %+v, want the window at distance %d", k, maxDist, res.Matches, sum)
		}
	}
}

// kthScore returns the score of q's k-th best match: an exact top-k query
// under opts.
func kthScore(tb testing.TB, e *Engine, q []float64, k int, opts Options) float64 {
	tb.Helper()
	opts.Mode = ModeExact
	res, err := e.Find(context.Background(), q, FindOptions{Options: opts, K: k})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Matches[len(res.Matches)-1].Score
}

// TestWithinThresholdCappedDTWs pins what a capped range query costs: on
// both bench bases, a range query capped at K = 5 with MaxDist at the exact
// 500th best score returns exact top-5's matches and runs at most 1.2 times
// its DTWs over the bench queries. A capped query that refines every group
// within MaxDist and truncates afterwards runs over 20 times as many on the
// compact base.
func TestWithinThresholdCappedDTWs(t *testing.T) {
	ctx := context.Background()
	for _, bb := range benchBases {
		e := bb.engine(t)
		top := FindOptions{Options: benchOptions, K: 5}
		top.Mode = ModeExact
		capped, exact := 0, 0
		for qi, fo := range bb.rangeQueries(t, 500, 5) {
			q := bb.queries[qi]
			want, err := e.Find(ctx, q, top)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Find(ctx, q, fo)
			if err != nil {
				t.Fatal(err)
			}
			sameRange(t, fmt.Sprintf("%s query %d", bb.name, qi), got.Matches, want.Matches)
			capped += got.Stats.DTWs()
			exact += want.Stats.DTWs()
		}
		t.Logf("%s: capped range %d DTWs, exact top-5 %d", bb.name, capped, exact)
		if 5*capped > 6*exact {
			t.Fatalf("%s: capped range ran %d DTWs, over 1.2 times exact top-5's %d", bb.name, capped, exact)
		}
	}
}

// bruteScan computes raw banded DTW for every window in the length range.
func bruteScan(d *ts.Dataset, q []float64, band, minL, maxL int) map[ts.SubSeq]float64 {
	out := map[ts.SubSeq]float64{}
	for si, s := range d.Series {
		for l := minL; l <= maxL && l <= s.Len(); l++ {
			for st := 0; st+l <= s.Len(); st++ {
				ref := ts.SubSeq{Series: si, Start: st, Length: l}
				out[ref] = dist.DTWBanded(q, s.Values[st:st+l], band)
			}
		}
	}
	return out
}

func TestWithinThresholdOptions(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := d.Series[0].Values[0:6]

	// Limit honored.
	limited, err := within(e, q, FindOptions{MaxDist: 10, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) > 3 {
		t.Fatalf("limit ignored: %d results", len(limited))
	}
	// Constraints honored.
	constrained, err := within(e, q, FindOptions{
		MaxDist:     10,
		Constraints: QueryConstraints{MinLength: 6, MaxLength: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range constrained {
		if m.Ref.Length != 6 {
			t.Fatal("length constraint violated")
		}
	}
	// Zero threshold returns only exact-zero matches.
	zero, err := within(e, q, FindOptions{MaxDist: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range zero {
		if m.Dist != 0 {
			t.Fatalf("zero-threshold match at %g", m.Dist)
		}
	}
	// Errors.
	if _, err := within(e, []float64{1}, FindOptions{MaxDist: 1}); err == nil {
		t.Fatal("short query accepted")
	}
	if _, err := within(e, q, FindOptions{MaxDist: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := within(e, q, FindOptions{
		MaxDist:     1,
		Constraints: QueryConstraints{MinLength: 999, MaxLength: 999},
	}); err != ErrNoMatch {
		t.Fatal("impossible constraints should yield ErrNoMatch")
	}
}

// TestWithinThresholdIncludesTopKScores pins the inclusive threshold under
// LengthNorm: every match of an exact top-60 query is returned by a range
// query whose MaxDist is that match's own score, at bands -1, 0 and 3. A
// threshold converted to raw distance by the plain product MaxDist*norm can
// round below the match's distance and drop it.
func TestWithinThresholdIncludesTopKScores(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeExact)
	ctx := context.Background()
	missing, checked := 0, 0
	for qi, oq := range oracleQueries(d, 1, 8, 20) {
		for _, band := range []int{-1, 0, 3} {
			opts := Options{Band: band, Mode: ModeExact, LengthNorm: true}
			top, err := e.Find(ctx, oq.q, FindOptions{Options: opts, K: 60})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range top.Matches {
				res, err := e.Find(ctx, oq.q, FindOptions{Options: opts, Range: true, MaxDist: m.Score})
				if err != nil && !errors.Is(err, ErrNoMatch) {
					t.Fatal(err)
				}
				checked++
				if !slices.ContainsFunc(res.Matches, func(r Match) bool { return r.Ref == m.Ref }) {
					missing++
					t.Errorf("query %d band %d: %v at score %g missing from the range query at MaxDist %g", qi, band, m.Ref, m.Score, m.Score)
				}
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d top-k matches missing from a range query at their own score", missing, checked)
	}
}
