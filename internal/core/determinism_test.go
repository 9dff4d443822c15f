package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// TestKthTrackerOffer pins the insertion-shift rewrite against a sorted-
// slice reference: same bound after every offer, for many k values and
// random (including duplicate and descending) inputs.
func TestKthTrackerOffer(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, k := range []int{1, 2, 3, 7, 16} {
		kt := newKthTracker(k)
		var ref []float64
		refBound := func() float64 {
			if len(ref) < k {
				return math.Inf(1)
			}
			return ref[k-1]
		}
		for i := 0; i < 500; i++ {
			var v float64
			switch i % 3 {
			case 0:
				v = rng.Float64()
			case 1:
				v = float64(500-i) / 500 // descending ramp
			default:
				v = math.Round(rng.Float64()*8) / 8 // duplicates
			}
			kt.offer(v)
			ref = append(ref, v)
			sort.Float64s(ref)
			if len(ref) > k {
				ref = ref[:k]
			}
			if got, want := kt.bound(), refBound(); got != want {
				t.Fatalf("k=%d after %d offers: bound %g, want %g", k, i+1, got, want)
			}
			if !sort.Float64sAreSorted(kt.vals) {
				t.Fatalf("k=%d: tracker slice unsorted: %v", k, kt.vals)
			}
		}
	}
}

// manyGroupsWorld builds a base with hundreds of groups and thousands of
// members, so every scan — member refinement, exact waves, range scans,
// the mining walks — runs over many groups.
func manyGroupsWorld(t testing.TB, mode Mode) (*ts.Dataset, *Engine) {
	t.Helper()
	d := gen.RandomWalks(gen.WalkOptions{Num: 8, Length: 96, Seed: 11})
	if err := ts.NormalizeMinMax(d); err != nil {
		t.Fatal(err)
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.12, MinLength: 8, MaxLength: 20})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGroups() < 256 {
		t.Fatalf("manyGroupsWorld too small: %d groups", b.NumGroups())
	}
	e, err := NewEngine(d, b, Options{Band: -1, Mode: mode, LengthNorm: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

func sameMatches(t *testing.T, label string, a, b []Match) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d matches != %d matches", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Ref != b[i].Ref {
			t.Fatalf("%s: match %d ref %+v != %+v", label, i, a[i].Ref, b[i].Ref)
		}
		if a[i].Dist != b[i].Dist || a[i].Score != b[i].Score {
			t.Fatalf("%s: match %d dist/score (%g, %g) != (%g, %g)",
				label, i, a[i].Dist, a[i].Score, b[i].Dist, b[i].Score)
		}
	}
}

type namedQuery struct {
	name string
	fo   FindOptions
	q    []float64
}

// determinismQueries are approx, exact and range queries, with and without
// constraints, over manyGroupsWorld's dataset.
func determinismQueries(d *ts.Dataset) []namedQuery {
	return []namedQuery{
		{"approx top3", FindOptions{Options: Options{Band: -1, LengthNorm: true}, K: 3}, d.Series[0].Values[0:12]},
		{"approx k10", FindOptions{Options: Options{Band: -1, LengthNorm: true}, K: 10}, d.Series[3].Values[20:36]},
		{"approx constrained", FindOptions{
			Options:     Options{Band: -1, LengthNorm: true},
			K:           5,
			Constraints: QueryConstraints{ExcludeSeries: map[int]bool{0: true}, MinLength: 10, MaxLength: 16},
		}, d.Series[0].Values[5:19]},
		{"exact top3", FindOptions{Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true}, K: 3}, d.Series[1].Values[0:12]},
		{"exact banded", FindOptions{Options: Options{Band: 3, Mode: ModeExact, LengthNorm: true}, K: 5}, d.Series[2].Values[10:28]},
		{"range", FindOptions{Options: Options{Band: -1, LengthNorm: true}, Range: true, MaxDist: 0.08}, d.Series[4].Values[0:16]},
	}
}

// TestFindWorkersEquivalence is the search's determinism property: repeated
// runs of one query return the identical match list (same refs, same
// distances, same order) and the identical SearchStats, MemberDTW included
// — in approx, exact and range mode, with and without constraints. The
// deprecated Options.Workers is ignored, so no value changes either. CI
// runs it at several GOMAXPROCS values.
func TestFindWorkersEquivalence(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeApprox)
	ctx := context.Background()
	for _, tc := range determinismQueries(d) {
		first, err := e.Find(ctx, tc.q, tc.fo)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.fo.Range && first.Stats.GroupsLBPruned+first.Stats.GroupsRefined != first.Stats.Groups {
			t.Fatalf("%s: counters don't reconcile: %+v", tc.name, first.Stats)
		}
		for _, workers := range []int{0, 4, -1} {
			fo := tc.fo
			fo.Workers = workers
			again, err := e.Find(ctx, tc.q, fo)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			label := tc.name + " workers=" + strconv.Itoa(workers)
			sameMatches(t, label, first.Matches, again.Matches)
			if again.Stats != first.Stats {
				t.Fatalf("%s: stats drifted: %+v != %+v", label, again.Stats, first.Stats)
			}
		}
	}
}

// TestAnalyticsDeterministic covers the mining walks: repeated seasonal and
// common-pattern scans return identical patterns and identical SearchStats.
func TestAnalyticsDeterministic(t *testing.T) {
	_, e := manyGroupsWorld(t, ModeApprox)
	ctx := context.Background()

	var firstSt SearchStats
	firstPats, err := e.SeasonalByIndexContext(ctx, 0, SeasonalOptions{}, &firstSt)
	if err != nil {
		t.Fatal(err)
	}
	var firstCommonSt SearchStats
	firstCommon, err := e.CommonPatternsContext(ctx, CommonOptions{}, &firstCommonSt)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 3; run++ {
		var st SearchStats
		pats, err := e.SeasonalByIndexContext(ctx, 0, SeasonalOptions{}, &st)
		if err != nil {
			t.Fatalf("seasonal run %d: %v", run, err)
		}
		if len(pats) != len(firstPats) {
			t.Fatalf("seasonal run %d: %d patterns != %d", run, len(pats), len(firstPats))
		}
		for i := range pats {
			if pats[i].Group != firstPats[i].Group || pats[i].Count() != firstPats[i].Count() {
				t.Fatalf("seasonal run %d: pattern %d diverged", run, i)
			}
		}
		if st != firstSt {
			t.Fatalf("seasonal run %d: stats %+v != %+v", run, st, firstSt)
		}

		st = SearchStats{}
		common, err := e.CommonPatternsContext(ctx, CommonOptions{}, &st)
		if err != nil {
			t.Fatalf("common run %d: %v", run, err)
		}
		if len(common) != len(firstCommon) {
			t.Fatalf("common run %d: %d patterns != %d", run, len(common), len(firstCommon))
		}
		for i := range common {
			if common[i].Group != firstCommon[i].Group || common[i].SeriesCount != firstCommon[i].SeriesCount {
				t.Fatalf("common run %d: pattern %d diverged", run, i)
			}
		}
		if st != firstCommonSt {
			t.Fatalf("common run %d: stats %+v != %+v", run, st, firstCommonSt)
		}
	}
}

// TestConstrainedFallbackBounded is the regression test for the approx-mode
// fallback degeneration: a constrained query whose promising groups cannot
// fill k used to refine every LB-pruned group in the base unconditionally.
// The walk now continues past the first k groups in true representative
// order — scoring a representative only once its key reaches the head of
// the browse — and stops at the same cutoff, so the number of refined
// groups stays well below the total group count.
func TestConstrainedFallbackBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	d := ts.NewDataset("fallback")
	// probe: a distinctive high-amplitude shape whose windows group apart
	// from everything else.
	probe := make([]float64, 24)
	for i := range probe {
		probe[i] = 0.85 + 0.1*math.Sin(float64(i)*1.3)
	}
	d.MustAdd(ts.NewSeries("probe", probe))
	// near: a short near-copy of the probe, the only eligible close matches
	// once the probe itself is excluded (too few of them to fill k from the
	// promising groups alone).
	near := make([]float64, 9)
	for i := range near {
		near[i] = probe[i] + 0.002*rng.NormFloat64()
	}
	d.MustAdd(ts.NewSeries("near", near))
	// noise: many mutually-dissimilar series far from the probe, whose
	// groups the representative scoring prunes.
	for s := 0; s < 30; s++ {
		vals := make([]float64, 24)
		v := 0.15 + 0.01*float64(s)
		for i := range vals {
			v += rng.NormFloat64() * 0.04
			vals[i] = v
		}
		d.MustAdd(ts.NewSeries("noise"+strconv.Itoa(s), vals))
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.04, MinLength: 8, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{Band: -1, Mode: ModeApprox, LengthNorm: true})
	if err != nil {
		t.Fatal(err)
	}

	var st SearchStats
	ms, err := e.search(context.Background(), probe[0:8], FindOptions{
		Options:     Options{Band: -1, Mode: ModeApprox, LengthNorm: true},
		K:           3,
		Constraints: QueryConstraints{ExcludeSeries: map[int]bool{0: true}},
	}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("constrained query returned %d matches, want 3", len(ms))
	}
	for _, m := range ms {
		if m.Ref.Series == 0 {
			t.Fatalf("excluded series returned: %+v", m.Ref)
		}
	}
	total := b.NumGroups()
	if st.GroupsRefined >= total/2 {
		t.Fatalf("fallback degenerated: refined %d of %d groups", st.GroupsRefined, total)
	}
	if st.GroupsRefined == 0 || st.Groups != total {
		t.Fatalf("implausible stats: %+v (total groups %d)", st, total)
	}
}

// TestParallelCancellation cancels live scans (top-k, exact, range,
// seasonal) from another goroutine and requires each to surface ctx.Err()
// promptly — every scan polls per group / per member stride, so a
// cancelled scan may not run to completion.
func TestParallelCancellation(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeExact)
	q := d.Series[0].Values[0:20]
	for label, run := range map[string]func(ctx context.Context) error{
		"find": func(ctx context.Context) error {
			_, err := e.Find(ctx, q, FindOptions{
				Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true}, K: 5,
			})
			return err
		},
		"range": func(ctx context.Context) error {
			_, err := e.Find(ctx, q, FindOptions{
				Options: Options{Band: -1, LengthNorm: true}, Range: true, MaxDist: 0.5,
			})
			return err
		},
		"seasonal": func(ctx context.Context) error {
			_, err := e.SeasonalByIndexContext(ctx, 0, SeasonalOptions{}, nil)
			return err
		},
	} {
		// Pre-cancelled: no work may happen.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s pre-cancelled: err = %v, want context.Canceled", label, err)
		}
		// Cancelled mid-flight: must return within the test's patience.
		ctx, cancel = context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- run(ctx) }()
		time.Sleep(500 * time.Microsecond)
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want nil or context.Canceled", label, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5s of cancellation", label)
		}
	}
}

// TestConcurrentParallelFinds drives many simultaneous queries (plus
// mid-flight cancellations) against one engine and requires every query
// that completes to return exactly what it returns alone: the same matches
// and the same SearchStats. Run with -race to make it meaningful.
func TestConcurrentParallelFinds(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeApprox)
	queries := determinismQueries(d)
	want := make([]FindResult, len(queries))
	for i, tc := range queries {
		res, err := e.Find(context.Background(), tc.q, tc.fo)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				qi := (w + i) % len(queries)
				tc := queries[qi]
				ctx := context.Background()
				var cancel context.CancelFunc
				if i == 3 {
					// The final round races a cancellation against the scan.
					ctx, cancel = context.WithCancel(ctx)
					go cancel()
				}
				res, err := e.Find(ctx, tc.q, tc.fo)
				if cancel != nil {
					cancel()
				}
				if errors.Is(err, context.Canceled) {
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %w", tc.name, err)
					return
				}
				if res.Stats != want[qi].Stats || len(res.Matches) != len(want[qi].Matches) {
					errs <- fmt.Errorf("%s: concurrent run %+v (%d matches) != alone %+v (%d matches)",
						tc.name, res.Stats, len(res.Matches), want[qi].Stats, len(want[qi].Matches))
					return
				}
				for j, m := range res.Matches {
					if wm := want[qi].Matches[j]; m.Ref != wm.Ref || m.Dist != wm.Dist {
						errs <- fmt.Errorf("%s: concurrent match %d %+v at %g != alone %+v at %g",
							tc.name, j, m.Ref, m.Dist, wm.Ref, wm.Dist)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
