package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// mixedRadiusWorld hand-builds a base that mixes the group shapes an exact
// walk must tell apart. Series 0 is a smooth walk, series 1 the same walk
// shifted up by 0.2, series 2 the walk delayed by two samples with a little
// noise, and series 3 an independent walk. At every length and start t:
//   - even t: one two-member group [series 1 window, series 0 window]
//     whose representative is its first member, as a reseeded singleton
//     that later took a re-homed stray has it;
//   - odd t: the series 0 window is a singleton whose representative is
//     the window shifted down by 0.2 (Build never writes one, since repair
//     keeps at least two members of a group, but a base may hold one), and
//     the series 1 window is a radius-zero singleton;
//   - series 2 and 3 windows are radius-zero singletons.
//
// Every member is 0.2·l in ED from its representative, inside HalfST(l) =
// 0.25·l, so the base is valid. A query on a series 0 window has series 2
// windows close by, so the approximate walk's cutoff falls below the
// shifted representatives and leaves the query's own group unrefined:
// only a bound that knows the member differs from its representative
// refines it.
func mixedRadiusWorld(t *testing.T) (*ts.Dataset, *Engine) {
	t.Helper()
	const n, minL, maxL, st, shift = 48, 8, 10, 0.5, 0.2
	rng := rand.New(rand.NewSource(43))
	walk := func(n int) []float64 {
		v, out := 0.5, make([]float64, n)
		for i := range out {
			v += rng.NormFloat64() * 0.03
			out[i] = v
		}
		return out
	}
	w := walk(n + 2)
	s0, s1, s2 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range s0 {
		s0[i] = w[i+2]
		s1[i] = s0[i] + shift
		s2[i] = w[i] + rng.NormFloat64()*0.002
	}
	d := ts.NewDataset("mixed-radius")
	for i, vals := range [][]float64{s0, s1, s2, walk(n)} {
		d.MustAdd(ts.NewSeries(fmt.Sprintf("s%d", i), vals))
	}
	b := &grouping.Base{
		DatasetName: d.Name, DatasetSum: grouping.DatasetChecksum(d),
		ST: st, MinLength: minL, MaxLength: maxL,
		ByLength: map[int]*grouping.LengthGroups{},
	}
	for l := minL; l <= maxL; l++ {
		lg := &grouping.LengthGroups{Length: l}
		// repIsFirst is set as Build sets it: on every group seeded with a
		// copy of its first member, two-member ones included.
		add := func(rep []float64, repIsFirst bool, ms ...ts.SubSeq) {
			lg.Append(&grouping.Group{Length: l, Rep: rep, Members: ms, RepIsFirst: repIsFirst})
		}
		for t0 := 0; t0+l <= n; t0++ {
			at := func(s int) ts.SubSeq { return ts.SubSeq{Series: s, Start: t0, Length: l} }
			copyOf := func(s int) []float64 { return append([]float64(nil), at(s).Values(d)...) }
			if t0%2 == 0 {
				add(copyOf(1), true, at(1), at(0))
			} else {
				rep := copyOf(0)
				for i := range rep {
					rep[i] -= shift
				}
				add(rep, false, at(0))
				add(copyOf(1), true, at(1))
			}
			add(copyOf(2), true, at(2))
			add(copyOf(3), true, at(3))
		}
		b.ByLength[l] = lg
	}
	if err := b.Validate(d); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

// TestExactRadiusZeroMatchesBruteForce is the soundness oracle of the
// radius-zero rule: on mixedRadiusWorld, exact top-K for K in {1, 5} equals
// bruteforce.KBest, and a range query at the oracle's 5th score returns
// exactly the windows scoring within it, at bands -1/0/3, LengthNorm on and
// off, with and without an overlap exclusion. Some exact answer must come
// from a group that is not radius-zero and that the approximate walk left
// unrefined, or the test proves nothing about the predicate.
func TestExactRadiusZeroMatchesBruteForce(t *testing.T) {
	d, e := mixedRadiusWorld(t)
	b := e.Base()
	ctx := context.Background()
	var queries []oracleQuery
	rng := rand.New(rand.NewSource(47))
	for i, l := range []int{9, 8, 10, 9, 7, 11} {
		src := ts.SubSeq{Series: 0, Start: 2*rng.Intn((d.Series[0].Len()-l)/2) + i%2, Length: l}
		q := append([]float64(nil), src.Values(d)...)
		if i >= 2 {
			for j := range q {
				q[j] += rng.NormFloat64() * 0.005
			}
		}
		queries = append(queries, oracleQuery{q: q, src: src})
	}
	rescued := 0
	for qi, oq := range queries {
		for _, band := range []int{-1, 0, 3} {
			for _, ln := range []bool{false, true} {
				for _, exclude := range []bool{false, true} {
					var c QueryConstraints
					if exclude {
						c.ExcludeOverlap = oq.src
					}
					bo := bruteforce.Options{
						Band: band, MinLength: b.MinLength, MaxLength: b.MaxLength,
						EarlyAbandon: true, LengthNormalize: ln, ExcludeOverlap: c.ExcludeOverlap,
					}
					opts := Options{Band: band, LengthNorm: ln}
					for _, k := range []int{1, 5} {
						label := fmt.Sprintf("query %d band %d norm %v k %d exclude %v", qi, band, ln, k, exclude)
						want, err := bruteforce.KBest(d, oq.q, k+1, bo)
						if err != nil {
							t.Fatal(err)
						}
						opts.Mode = ModeApprox
						approx, err := e.Find(ctx, oq.q, FindOptions{Options: opts, K: k, Constraints: c})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						opts.Mode = ModeExact
						res, err := e.Find(ctx, oq.q, FindOptions{Options: opts, K: k, Constraints: c})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameAsOracle(t, label, res.Matches, want, k)
						if m := res.Matches[0]; m.Score < approx.Matches[0].Score &&
							!e.radiusZero(b.GroupsOfLength(m.Group.Length)[m.Group.Index]) {
							rescued++
						}
					}
					// Range at the oracle's 5th score, against every window.
					top, err := bruteforce.KBest(d, oq.q, 5, bo)
					if err != nil {
						t.Fatal(err)
					}
					maxDist := top[len(top)-1].Score
					label := fmt.Sprintf("query %d band %d norm %v exclude %v range %g", qi, band, ln, exclude, maxDist)
					want := map[ts.SubSeq]float64{}
					for ref, dd := range bruteScan(d, oq.q, band, b.MinLength, b.MaxLength) {
						if !c.excludes(ref) && dd/opts.norm(len(oq.q), ref.Length) <= maxDist {
							want[ref] = dd
						}
					}
					res, err := e.Find(ctx, oq.q, FindOptions{Options: opts, Range: true, MaxDist: maxDist, Constraints: c})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(res.Matches) != len(want) {
						t.Fatalf("%s: %d matches, brute force has %d", label, len(res.Matches), len(want))
					}
					for _, m := range res.Matches {
						if dd, ok := want[m.Ref]; !ok || !closeTo(m.Dist, dd) {
							t.Fatalf("%s: match %v at %g, brute force has %g (present %v)", label, m.Ref, m.Dist, dd, ok)
						}
					}
				}
			}
		}
	}
	if rescued == 0 {
		t.Fatal("no exact answer came from a group the approximate walk missed and radius zero does not cover")
	}
}

// TestExactRadiusZeroApproxIsExact pins that exact mode does no work beyond
// the approximate walk on a base whose groups all have radius zero: the
// browse leaves a group unrefined only once its key, a lower bound on the
// member's score, exceeds the k-th best, so the approximate answer is
// already exact. Exact Find returns approximate mode's matches with the
// same representative and member DTWs and refined groups, and its progress
// sink sees the approximate snapshot and the final one, no wave. The same
// base written, read back and given its radius-zero bits by
// DeriveRepIsFirst answers exact queries with the same matches and work.
func TestExactRadiusZeroApproxIsExact(t *testing.T) {
	ctx := context.Background()
	d, e := singletonWorld(t)
	for _, l := range e.base.Lengths() {
		for gi, g := range e.base.GroupsOfLength(l) {
			if !e.radiusZero(g) {
				t.Fatalf("group %d of length %d is not radius-zero", gi, l)
			}
		}
	}
	var buf bytes.Buffer
	if err := e.base.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rb, err := grouping.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.DeriveRepIsFirst(d); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewEngine(d, rb, e.opts)
	if err != nil {
		t.Fatal(err)
	}
	for qi, oq := range oracleQueries(d, 1, 16, 24) {
		for _, k := range []int{1, 5} {
			for _, band := range []int{-1, 0, 3} {
				for _, ln := range []bool{false, true} {
					for _, exclude := range []bool{false, true} {
						var c QueryConstraints
						if exclude {
							c.ExcludeOverlap = oq.src
						}
						label := fmt.Sprintf("query %d k %d band %d norm %v exclude %v", qi, k, band, ln, exclude)
						fo := FindOptions{Options: Options{Band: band, LengthNorm: ln}, K: k, Constraints: c}
						approx, err := e.Find(ctx, oq.q, fo)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						fo.Mode = ModeExact
						snaps, exact := collectSnapshots(t, e, oq.q, fo)
						sameMatches(t, label, approx.Matches, exact.Matches)
						a, x := approx.Stats, exact.Stats
						if x.RepDTW != a.RepDTW || x.MemberDTW != a.MemberDTW || x.GroupsRefined != a.GroupsRefined {
							t.Fatalf("%s: exact stats %+v, approximate %+v", label, x, a)
						}
						if len(snaps) != 2 || snaps[1].Wave != 0 || !snaps[1].Final {
							t.Fatalf("%s: %d snapshots, the last at wave %d", label, len(snaps), snaps[len(snaps)-1].Wave)
						}
						warm, err := reopened.Find(ctx, oq.q, fo)
						if err != nil {
							t.Fatalf("%s: reopened: %v", label, err)
						}
						sameMatches(t, label+" reopened", exact.Matches, warm.Matches)
						if r := warm.Stats; r.RepDTW != x.RepDTW || r.MemberDTW != x.MemberDTW || r.GroupsRefined != x.GroupsRefined {
							t.Fatalf("%s: reopened exact stats %+v, live %+v", label, r, x)
						}
					}
				}
			}
		}
	}
}

// transferRuleDTWs counts the DTWs a range scan at maxDist runs when every
// group, radius-zero or not, is bounded by groupLower at HalfST(l) and then
// by the transfer bound's representative DTW, before the member cascade.
func transferRuleDTWs(e *Engine, q []float64, maxDist float64, opts Options) (rep, member int) {
	for _, l := range e.base.Lengths() {
		env := e.lengthEnvFor(q, l, opts)
		rawMax := rawBound(maxDist, env.norm)
		slack := float64(2*dist.EffectiveBand(len(q), l, opts.Band)+1) * env.half
		for _, g := range e.base.GroupsOfLength(l) {
			if groupLower(g, env, env.half, rawMax) > rawMax {
				continue
			}
			rep++
			if math.IsInf(dist.DTWEarlyAbandon(q, g.Rep, opts.Band, rawMax+slack), 1) {
				continue
			}
			for _, m := range g.Members {
				mv := m.Values(e.ds)
				if dist.LBKim(q, mv) <= rawMax && dist.LBKeogh(mv, env.qU, env.qL, rawMax) <= rawMax {
					member++
				}
			}
		}
	}
	return rep, member
}

// TestWithinThresholdRadiusZeroSkipsRepDTW pins range's radius-zero rule
// by its counts: a range query at the exact 5th best score runs no
// representative DTW. On an all-singleton base, against the transfer-bound
// rule (transferRuleDTWs), every member DTW it runs stands in for a
// representative DTW that rule runs on the same values: a group whose
// member passes LB_Keogh also passes LB_Keogh less HalfST. It can run a
// few more member DTWs than that rule, on members whose representative
// DTW the transfer bound would have abandoned. On the compact bench base,
// whose groups have many members, it runs no more DTWs in all than that
// rule: the transfer bound's representative DTWs save no member DTW there.
func TestWithinThresholdRadiusZeroSkipsRepDTW(t *testing.T) {
	ctx := context.Background()
	d, e := singletonWorld(t)
	compact := benchBases[0]
	type rangeBase struct {
		name      string
		e         *Engine
		queries   [][]float64
		opts      []Options
		singleton bool
	}
	var singletonQueries [][]float64
	for _, oq := range oracleQueries(d, 1, 16, 24) {
		singletonQueries = append(singletonQueries, oq.q)
	}
	var singletonOpts []Options
	for _, band := range []int{-1, 0, 3} {
		for _, ln := range []bool{false, true} {
			singletonOpts = append(singletonOpts, Options{Band: band, LengthNorm: ln})
		}
	}
	for _, rb := range []rangeBase{
		{"singleton", e, singletonQueries, singletonOpts, true},
		{compact.name, compact.engine(t), compact.queries, []Options{benchOptions}, false},
	} {
		var got, ref [2]int // representative, member DTWs
		for qi, q := range rb.queries {
			for _, opts := range rb.opts {
				label := fmt.Sprintf("%s query %d band %d norm %v", rb.name, qi, opts.Band, opts.LengthNorm)
				maxDist := kthScore(t, rb.e, q, 5, opts)
				res, err := rb.e.Find(ctx, q, FindOptions{Options: opts, Range: true, MaxDist: maxDist})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(res.Matches) < 5 {
					t.Fatalf("%s: range at the 5th best score returned %d matches", label, len(res.Matches))
				}
				rep, member := transferRuleDTWs(rb.e, q, maxDist, opts)
				got[0], got[1] = got[0]+res.Stats.RepDTW, got[1]+res.Stats.MemberDTW
				ref[0], ref[1] = ref[0]+rep, ref[1]+member
				limit := rep + member
				if rb.singleton {
					limit = rep
				}
				if res.Stats.RepDTW != 0 || res.Stats.MemberDTW > limit {
					t.Fatalf("%s: %d representative and %d member DTWs; the transfer-bound rule runs %d and %d",
						label, res.Stats.RepDTW, res.Stats.MemberDTW, rep, member)
				}
			}
		}
		t.Logf("%s: representative, member DTWs: %v; the transfer-bound rule %v", rb.name, got, ref)
		if ref[0] == 0 {
			t.Fatalf("%s: the transfer-bound rule ran no representative DTW: the test proves nothing", rb.name)
		}
	}
}

// streamedRadiusWorld builds a base with grouping.Build and then streams
// near-copies of an indexed series into it with AddSeries, the way a live
// database grows. Series "up" is a smooth walk shifted up by shift, built
// under an ST whose radius HalfST(l) = ST·l/2 lies between shift·l and the
// walk's step per point, so most of its windows are singletons equal to
// their representative (RepIsFirst). Series "slow", also built, is the
// walk resampled 4/3 slower: its windows of one length are DTW-close to the
// walk's windows of a shorter length, in groups of their own. Then the
// unshifted walk and a noisy copy of it are streamed in: each of their
// windows joins the "up" singleton it lies within shift·l of, so groups
// that were radius-zero singletons gain second and third members that
// score below their representative against a query near the walk.
func streamedRadiusWorld(t *testing.T, shift, st float64) (*ts.Dataset, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(67))
	const n = 72
	w, v := make([]float64, n), 0.5
	for i := range w {
		v += rng.NormFloat64() * 0.04
		w[i] = v
	}
	up, slow := make([]float64, n), make([]float64, n*4/3)
	for i := range up {
		up[i] = w[i] + shift
	}
	for j := range slow {
		x := float64(j) * 3 / 4
		i := int(x)
		if i+1 >= n {
			slow[j] = w[n-1]
			continue
		}
		slow[j] = w[i] + (x-float64(i))*(w[i+1]-w[i])
	}
	other := make([]float64, n)
	for i := range other {
		v += rng.NormFloat64() * 0.04
		other[i] = v
	}
	d := ts.NewDataset("streamed-radius")
	for _, s := range []struct {
		name string
		vals []float64
	}{{"up", up}, {"slow", slow}, {"other", other}} {
		d.MustAdd(ts.NewSeries(s.name, s.vals))
	}
	b, err := grouping.Build(d, grouping.Options{ST: st, MinLength: 9, MaxLength: 14})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noisy := make([]float64, n)
	for i := range noisy {
		noisy[i] = w[i] + rng.NormFloat64()*0.002
	}
	for _, s := range []struct {
		name string
		vals []float64
	}{{"walk", w}, {"noisy", noisy}} {
		d.MustAdd(ts.NewSeries(s.name, s.vals))
		if err := b.AddSeries(d, d.Len()-1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Validate(d); err != nil {
		t.Fatal(err)
	}
	return d, e
}

// TestExactRadiusZeroStreamedMatchesBruteForce covers the radius-zero
// rule's one-member conjunct on a built base: groups that Build left as
// radius-zero singletons and AddSeries grew keep RepIsFirst, and only the
// member count keeps the exact walk from bounding their new members by the
// representative's key. On streamedRadiusWorld, exact top-K for K in
// {1, 5} equals bruteforce.KBest, and a range query at the oracle's 5th
// score returns exactly the windows scoring within it, at bands -1 and 3,
// LengthNorm on and off. Queries are lightly perturbed windows of the
// streamed walk, whose approximate walk stops on the resampled series'
// windows before it reaches the query's own group; some exact answer must
// come from such a grown group, or the test proves nothing.
func TestExactRadiusZeroStreamedMatchesBruteForce(t *testing.T) {
	d, e := streamedRadiusWorld(t, 0.012, 0.03)
	b := e.Base()
	grown := 0
	for _, l := range b.Lengths() {
		for _, g := range b.GroupsOfLength(l) {
			if g.RepIsFirst && len(g.Members) > 1 {
				grown++
			}
		}
	}
	if grown == 0 {
		t.Fatal("AddSeries grew no radius-zero singleton")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(71))
	walk := d.IndexOf("walk")
	rescued := 0
	for qi := 0; qi < 6; qi++ {
		l := 9 + rng.Intn(3)
		src := ts.SubSeq{Series: walk, Start: rng.Intn(d.Series[walk].Len() - l + 1), Length: l}
		q := append([]float64(nil), src.Values(d)...)
		for j := range q {
			q[j] += rng.NormFloat64() * 0.001
		}
		for _, band := range []int{-1, 3} {
			for _, ln := range []bool{false, true} {
				bo := bruteforce.Options{Band: band, MinLength: b.MinLength, MaxLength: b.MaxLength, EarlyAbandon: true, LengthNormalize: ln}
				opts := Options{Band: band, LengthNorm: ln}
				for _, k := range []int{1, 5} {
					label := fmt.Sprintf("query %d band %d norm %v k %d", qi, band, ln, k)
					want, err := bruteforce.KBest(d, q, k+1, bo)
					if err != nil {
						t.Fatal(err)
					}
					opts.Mode = ModeApprox
					approx, err := e.Find(ctx, q, FindOptions{Options: opts, K: k})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					opts.Mode = ModeExact
					res, err := e.Find(ctx, q, FindOptions{Options: opts, K: k})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameAsOracle(t, label, res.Matches, want, k)
					m := res.Matches[0]
					if g := b.GroupsOfLength(m.Group.Length)[m.Group.Index]; m.Score < approx.Matches[0].Score && g.RepIsFirst && len(g.Members) > 1 {
						rescued++
					}
				}
				top, err := bruteforce.KBest(d, q, 5, bo)
				if err != nil {
					t.Fatal(err)
				}
				maxDist := top[len(top)-1].Score
				label := fmt.Sprintf("query %d band %d norm %v range %g", qi, band, ln, maxDist)
				want := map[ts.SubSeq]float64{}
				for ref, dd := range bruteScan(d, q, band, b.MinLength, b.MaxLength) {
					if dd/opts.norm(len(q), ref.Length) <= maxDist {
						want[ref] = dd
					}
				}
				res, err := e.Find(ctx, q, FindOptions{Options: opts, Range: true, MaxDist: maxDist})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(res.Matches) != len(want) {
					t.Fatalf("%s: %d matches, brute force has %d", label, len(res.Matches), len(want))
				}
				for _, m := range res.Matches {
					if dd, ok := want[m.Ref]; !ok || !closeTo(m.Dist, dd) {
						t.Fatalf("%s: match %v at %g, brute force has %g (present %v)", label, m.Ref, m.Dist, dd, ok)
					}
				}
			}
		}
	}
	t.Logf("%d grown radius-zero groups; %d exact answers came from one the approximate walk missed", grown, rescued)
	if rescued == 0 {
		t.Fatal("no exact answer came from a grown radius-zero group the approximate walk missed")
	}
}
