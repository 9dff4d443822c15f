package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// newTestWorld builds a deterministic dataset + base + engine for tests.
func newTestWorld(t testing.TB, numSeries, length int, st float64, minL, maxL int, mode Mode, band int) (*ts.Dataset, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(20170514))
	d := ts.NewDataset("coretest")
	for i := 0; i < numSeries; i++ {
		vals := make([]float64, length)
		switch i % 3 {
		case 0: // noisy sine
			for j := range vals {
				vals[j] = 0.5 + 0.4*math.Sin(float64(j)*0.5+float64(i)) + rng.NormFloat64()*0.02
			}
		case 1: // ramp
			for j := range vals {
				vals[j] = float64(j)/float64(length) + rng.NormFloat64()*0.02
			}
		default: // random walk
			v := 0.5
			for j := range vals {
				v += rng.NormFloat64() * 0.05
				vals[j] = v
			}
		}
		d.MustAdd(ts.NewSeries("s"+strconv.Itoa(i), vals))
	}
	b, err := grouping.Build(d, grouping.Options{ST: st, MinLength: minL, MaxLength: maxL})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{Band: band, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

// kBest runs one top-k Find under the engine's own options.
func kBest(e *Engine, q []float64, k int, c QueryConstraints) ([]Match, error) {
	res, err := e.Find(context.Background(), q, FindOptions{Options: e.Options(), K: k, Constraints: c})
	return res.Matches, err
}

// bestMatch is kBest for k = 1.
func bestMatch(e *Engine, q []float64, c QueryConstraints) (Match, error) {
	ms, err := kBest(e, q, 1, c)
	if err != nil {
		return Match{}, err
	}
	return ms[0], nil
}

// within runs one range Find of fo's MaxDist, K and Constraints under the
// engine's own options.
func within(e *Engine, q []float64, fo FindOptions) ([]Match, error) {
	fo.Options, fo.Range = e.Options(), true
	res, err := e.Find(context.Background(), q, fo)
	return res.Matches, err
}

func TestNewEngineChecksGuards(t *testing.T) {
	d, e := newTestWorld(t, 4, 24, 0.1, 4, 8, ModeApprox, -1)
	if _, err := NewEngine(nil, e.Base(), Options{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := NewEngine(d, nil, Options{}); err == nil {
		t.Fatal("nil base accepted")
	}
	other := d.Clone()
	other.Series[0].Values[0] += 1
	if _, err := NewEngine(other, e.Base(), Options{}); err == nil {
		t.Fatal("mismatched dataset accepted")
	}
}

func TestBestMatchSelfQueryFindsItself(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	// A query copied from the dataset must be matched at distance 0.
	q := d.Series[2].Values[3:10] // length 7, in range
	m, err := bestMatch(e, q, QueryConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist != 0 {
		t.Fatalf("self query distance = %g, want 0", m.Dist)
	}
	if !m.Path.Valid(len(q), m.Ref.Length) {
		t.Fatal("result path invalid")
	}
}

func TestBestMatchExcludesOverlap(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	self := ts.SubSeq{Series: 2, Start: 3, Length: 7}
	q := self.Values(d)
	m, err := bestMatch(e, q, QueryConstraints{ExcludeOverlap: self})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ref.Overlaps(self) {
		t.Fatalf("excluded overlap returned: %+v", m.Ref)
	}
	m2, err := bestMatch(e, q, QueryConstraints{ExcludeSeries: map[int]bool{2: true}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Ref.Series == 2 {
		t.Fatal("excluded series returned")
	}
}

func TestKBestOrderingAndUniqueness(t *testing.T) {
	_, e := newTestWorld(t, 6, 30, 0.1, 5, 10, ModeApprox, -1)
	q := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	ms, err := kBest(e, q, 5, QueryConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
	seen := make(map[ts.SubSeq]bool)
	for i, m := range ms {
		if seen[m.Ref] {
			t.Fatalf("duplicate match %v", m.Ref)
		}
		seen[m.Ref] = true
		if i > 0 && ms[i-1].Dist > m.Dist {
			t.Fatalf("matches out of order: %g before %g", ms[i-1].Dist, m.Dist)
		}
		if got := dist.DTW(q, m.Values); !almost(got, m.Dist, 1e-9) {
			t.Fatalf("reported dist %g, recomputed %g", m.Dist, got)
		}
	}
}

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestQueryValidation(t *testing.T) {
	_, e := newTestWorld(t, 4, 24, 0.1, 4, 8, ModeApprox, -1)
	if _, err := bestMatch(e, []float64{1}, QueryConstraints{}); err == nil {
		t.Fatal("length-1 query accepted")
	}
	if _, err := e.search(context.Background(), []float64{1, 2, 3}, FindOptions{Options: e.Options()}, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := bestMatch(e, []float64{1, 2, 3},
		QueryConstraints{MinLength: 100, MaxLength: 200}); err != ErrNoMatch {
		t.Fatal("impossible length constraints should yield ErrNoMatch")
	}
	// A non-finite value is rejected by index in every mode, before any walk.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, fo := range []FindOptions{
			{K: 1},
			{Options: Options{Mode: ModeExact}, K: 5},
			{Range: true, MaxDist: 1},
		} {
			_, err := e.Find(context.Background(), []float64{1, 2, bad, 3}, fo)
			if err == nil || !strings.Contains(err.Error(), "value 2") {
				t.Fatalf("query value %g (%+v): err = %v, want one naming value 2", bad, fo, err)
			}
		}
	}
}

func TestLengthConstraintsHonored(t *testing.T) {
	_, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	ms, err := kBest(e, q, 3, QueryConstraints{MinLength: 6, MaxLength: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Ref.Length != 6 {
			t.Fatalf("constraint violated: match length %d", m.Ref.Length)
		}
	}
}

// walkWorld builds the differential oracles' base: min-max normalized
// random walks that compact well at ST 0.1 (most groups have several
// members), so the exact walk's envelope bound really prunes. scale
// multiplies every value and ST, giving a copy in large raw units where
// float rounding in the bounds would show.
func walkWorld(t *testing.T, scale float64) (*ts.Dataset, *Engine) {
	t.Helper()
	d := gen.RandomWalks(gen.WalkOptions{Num: 6, Length: 64, Seed: 29})
	if err := ts.NormalizeMinMax(d); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Series {
		for i := range s.Values {
			s.Values[i] *= scale
		}
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.1 * scale, MinLength: 8, MaxLength: 14})
	if err != nil {
		t.Fatal(err)
	}
	if n, w := b.NumGroups(), d.NumSubsequences(8, 14); 2*n > w {
		t.Fatalf("walkWorld does not compact: %d groups for %d windows", n, w)
	}
	e, err := NewEngine(d, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

// oracleQuery is one differential-test query: a dataset window (so an
// overlap exclusion is meaningful) with optional noise, at a length in
// [minL, maxL], which may reach outside the indexed range to exercise
// cross-length bands.
type oracleQuery struct {
	q   []float64
	src ts.SubSeq
}

func oracleQueries(d *ts.Dataset, scale float64, minL, maxL int) []oracleQuery {
	rng := rand.New(rand.NewSource(777))
	var out []oracleQuery
	for i := 0; i < 4; i++ {
		l := minL + rng.Intn(maxL-minL+1)
		s := rng.Intn(len(d.Series))
		src := ts.SubSeq{Series: s, Start: rng.Intn(d.Series[s].Len() - l + 1), Length: l}
		q := append([]float64(nil), src.Values(d)...)
		if i%2 == 1 {
			for j := range q {
				q[j] += rng.NormFloat64() * 0.03 * scale
			}
		}
		out = append(out, oracleQuery{q: q, src: src})
	}
	return out
}

// closeTo compares distances to 1e-9, relative once they exceed 1.
func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestPropertyExactModeEqualsBruteForce is the differential oracle of exact
// mode: the whole top-K equals bruteforce.KBest — distances to 1e-9, refs
// wherever the oracle's score is untied — for K in {1, 5}, LengthNorm on and
// off, bands -1/0/3, with and without an overlap
// exclusion, on a compacting walk base and its ×1e6 raw-unit copy. The
// certified bound must also actually prune there, or the test proves
// nothing about it.
func TestPropertyExactModeEqualsBruteForce(t *testing.T) {
	ctx := context.Background()
	for _, scale := range []float64{1, 1e6} {
		d, e := walkWorld(t, scale)
		b := e.Base()
		pruned, groups := 0, 0
		for qi, oq := range oracleQueries(d, scale, 6, 16) { // against indexed 8..14
			for _, band := range []int{-1, 0, 3} {
				for _, ln := range []bool{false, true} {
					for _, k := range []int{1, 5} {
						for _, exclude := range []bool{false, true} {
							var c QueryConstraints
							if exclude {
								c.ExcludeOverlap = oq.src
							}
							want, err := bruteforce.KBest(d, oq.q, k+1, bruteforce.Options{
								Band: band, MinLength: b.MinLength, MaxLength: b.MaxLength,
								EarlyAbandon: true, LengthNormalize: ln, ExcludeOverlap: c.ExcludeOverlap,
							})
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("scale %g query %d band %d norm %v k %d exclude %v",
								scale, qi, band, ln, k, exclude)
							res, err := e.Find(ctx, oq.q, FindOptions{
								Options:     Options{Band: band, Mode: ModeExact, LengthNorm: ln},
								K:           k,
								Constraints: c,
							})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							sameAsOracle(t, label, res.Matches, want, k)
							st := res.Stats
							if st.GroupsLBPruned+st.GroupsRefined != st.Groups {
								t.Fatalf("%s: pruned %d + refined %d != groups %d", label, st.GroupsLBPruned, st.GroupsRefined, st.Groups)
							}
							pruned += st.GroupsLBPruned
							groups += st.Groups
						}
					}
				}
			}
		}
		if 2*pruned < groups {
			t.Fatalf("scale %g: exact walks pruned only %d of %d groups", scale, pruned, groups)
		}
	}
}

// TestExactModeTieMatchesBruteForce pins the member-level bound against a
// tie that rounding splits: under LengthNorm a score bound b converted back
// by the product b*norm can fall below the raw distance that scored b, and
// a member scoring exactly the k-th best was then abandoned — so which of
// two tied windows an exact search returned hinged on visit order. A
// constant zero query of length 11 is DTW-equidistant (the window sum, 15)
// from two windows in different groups: series 1's, a singleton the walk
// refines first, and series 0's, in a group whose representative a third
// window pulls further off. (15/11)*11 < 15 in floating point, and the
// answer must be series 0's window, as brute force breaks the tie.
func TestExactModeTieMatchesBruteForce(t *testing.T) {
	const n, sum = 11, 15
	if raw, norm := float64(sum), float64(n); raw/norm*norm >= raw {
		t.Fatalf("(%g/%g)*%g does not round below %g: the tie is not split", raw, norm, norm, raw)
	}
	d := ts.NewDataset("tie")
	d.MustAdd(ts.NewSeries("a", []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1}))
	d.MustAdd(ts.NewSeries("b", []float64{3, 0, 0, 0, 3, 3, 0, 0, 0, 3, 3}))
	d.MustAdd(ts.NewSeries("a+", []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 2}))
	b, err := grouping.Build(d, grouping.Options{ST: 0.2, MinLength: n, MaxLength: n})
	if err != nil {
		t.Fatal(err)
	}
	groupOf := map[int]int{}
	for gi, g := range b.GroupsOfLength(n) {
		for _, m := range g.Members {
			groupOf[m.Series] = gi
		}
	}
	if groupOf[0] != groupOf[2] || groupOf[0] == groupOf[1] {
		t.Fatalf("grouping %v: want series 0 and 2 together, series 1 apart", groupOf)
	}
	e, err := NewEngine(d, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, n)
	for _, band := range []int{-1, 3} {
		want, err := bruteforce.KBest(d, q, 2, bruteforce.Options{Band: band, MinLength: n, MaxLength: n, LengthNormalize: true})
		if err != nil {
			t.Fatal(err)
		}
		if want[0].Dist != sum || want[1].Dist != sum || want[0].Ref.Series != 0 {
			t.Fatalf("band %d: brute force %+v, want series 0 then 1 at distance %d", band, want, sum)
		}
		res, err := e.Find(context.Background(), q, FindOptions{
			Options: Options{Band: band, Mode: ModeExact, LengthNorm: true}, K: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Matches[0]; got.Ref != want[0].Ref || got.Dist != sum {
			t.Fatalf("band %d: exact top-1 %v at %g, brute force %v at %g",
				band, got.Ref, got.Dist, want[0].Ref, want[0].Dist)
		}
	}
}

// sameAsOracle checks got (an exact top-k) against the oracle's k+1 best:
// equal length, distances and scores to 1e-9, and refs at every position
// whose oracle score ties neither neighbour (the two tie-break orders
// differ).
func sameAsOracle(t *testing.T, label string, got []Match, want []bruteforce.Result, k int) {
	t.Helper()
	n := k
	if len(want) < n {
		n = len(want)
	}
	if len(got) != n {
		t.Fatalf("%s: %d matches, oracle has %d", label, len(got), n)
	}
	for i := 0; i < n; i++ {
		if !closeTo(got[i].Dist, want[i].Dist) || !closeTo(got[i].Score, want[i].Score) {
			t.Fatalf("%s: match %d (dist %g, score %g) != oracle (dist %g, score %g)",
				label, i, got[i].Dist, got[i].Score, want[i].Dist, want[i].Score)
		}
		tied := (i > 0 && closeTo(want[i-1].Score, want[i].Score)) ||
			(i+1 < len(want) && closeTo(want[i+1].Score, want[i].Score))
		if !tied && got[i].Ref != want[i].Ref {
			t.Fatalf("%s: match %d ref %v != oracle %v (dist %g)", label, i, got[i].Ref, want[i].Ref, want[i].Dist)
		}
	}
}

// Approx mode must return a genuinely indexed subsequence whose distance is
// consistent, and should usually agree with exact top-1 on easy data.
func TestApproxModeReturnsConsistentMatch(t *testing.T) {
	d, e := newTestWorld(t, 5, 26, 0.08, 4, 9, ModeApprox, -1)
	rng := rand.New(rand.NewSource(888))
	agree := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		qlen := 4 + rng.Intn(6)
		q := make([]float64, qlen)
		v := rng.Float64()
		for i := range q {
			v += rng.NormFloat64() * 0.08
			q[i] = v
		}
		got, err := bestMatch(e, q, QueryConstraints{})
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Ref.Validate(d); err != nil {
			t.Fatalf("approx match invalid ref: %v", err)
		}
		want, err := bruteforce.BestMatch(d, q, bruteforce.Options{
			Band: -1, MinLength: 4, MaxLength: 9, EarlyAbandon: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Dist < want.Dist-1e-9 {
			t.Fatalf("approx beat the oracle: %g < %g", got.Dist, want.Dist)
		}
		if almost(got.Dist, want.Dist, 1e-9) {
			agree++
		}
	}
	if agree == 0 {
		t.Fatalf("approx mode never matched exact top-1 in %d trials", trials)
	}
}

func TestOverview(t *testing.T) {
	_, e := newTestWorld(t, 6, 30, 0.1, 5, 10, ModeApprox, -1)
	const k = 4
	// The reference ranking: a scan of every position, count descending,
	// position ascending.
	groups := e.Base().GroupsOfLength(6)
	ranked := make([]int, len(groups))
	for gi := range ranked {
		ranked[gi] = gi
	}
	sort.SliceStable(ranked, func(a, b int) bool { return groups[ranked[a]].Count() > groups[ranked[b]].Count() })
	if len(ranked) <= k || fmt.Sprint(ranked[:k]) == fmt.Sprint([]int{0, 1, 2, 3}) {
		t.Fatalf("base does not exercise the ranking: top %d positions %v of %d", k, ranked[:min(k, len(ranked))], len(ranked))
	}
	ov, err := e.OverviewContext(context.Background(), 6, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov) != k {
		t.Fatalf("overview returned %d groups, want %d", len(ov), k)
	}
	for i, gs := range ov {
		if want := (GroupRef{Length: 6, Index: ranked[i]}); gs.Group != want {
			t.Fatalf("summary %d is group %+v, want %+v", i, gs.Group, want)
		}
		g := groups[ranked[i]]
		if gs.Count != g.Count() || &gs.Rep[0] != &g.Rep[0] || len(gs.Rep) != 6 {
			t.Fatalf("summary %d = %+v, not group %d", i, gs, ranked[i])
		}
		if gs.MaxRadius > e.Base().HalfST(6)+1e-9 {
			t.Fatalf("summary radius %g exceeds ST*l/2", gs.MaxRadius)
		}
		// The ref resolves to the summarized group.
		ms, err := e.GroupMembersContext(context.Background(), gs.Group, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != gs.Count {
			t.Fatalf("summary %d: %d members at %+v, want %d", i, len(ms), gs.Group, gs.Count)
		}
		for _, m := range ms {
			if m.RepED != dist.ED(m.Values, gs.Rep) {
				t.Fatalf("summary %d: member %+v measured against another representative", i, m.Ref)
			}
		}
	}
	// Length 0 auto-selects.
	if ov0, _ := e.OverviewContext(context.Background(), 0, 3, nil); len(ov0) == 0 {
		t.Fatal("auto-length overview empty")
	}
	// k<=0 returns all, in the same ranking.
	all, err := e.OverviewContext(context.Background(), 6, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(groups) {
		t.Fatalf("k=0 returned %d of %d groups", len(all), len(groups))
	}
	for i, gs := range all {
		if gs.Group.Index != ranked[i] {
			t.Fatalf("k=0 summary %d is group %d, want %d", i, gs.Group.Index, ranked[i])
		}
	}
}

func TestLengthSummaries(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 8, ModeApprox, -1)
	ls, err := e.LengthSummariesContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 4 {
		t.Fatalf("summaries = %d lengths, want 4", len(ls))
	}
	for i, s := range ls {
		if s.Groups <= 0 || s.Subsequences <= 0 {
			t.Fatalf("empty summary %+v", s)
		}
		if i > 0 && ls[i-1].Length >= s.Length {
			t.Fatal("summaries not ascending")
		}
		if want := d.NumSubsequences(s.Length, s.Length); s.Subsequences != want {
			t.Fatalf("length %d: %d subsequences, want %d", s.Length, s.Subsequences, want)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeApprox.String() != "approx" || ModeExact.String() != "exact" {
		t.Fatal("mode strings wrong")
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}
