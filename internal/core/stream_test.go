package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// collectSnapshots runs an exact-mode Find with a progress sink and
// returns every emission plus the one-shot result for comparison.
func collectSnapshots(t *testing.T, e *Engine, q []float64, fo FindOptions) ([]Snapshot, FindResult) {
	t.Helper()
	var snaps []Snapshot
	streamFO := fo
	streamFO.Progress = func(s Snapshot) { snaps = append(snaps, s) }
	res, err := e.Find(context.Background(), q, streamFO)
	if err != nil {
		t.Fatal(err)
	}
	return snaps, res
}

// TestProgressivePipeline pins the emission contract: the first snapshot
// is the approximate answer (equal to an approx-mode Find, emitted before
// any refinement wave), intermediate snapshots refine monotonically, and
// the final snapshot equals the one-shot exact Find — matches, order, and
// stats.
func TestProgressivePipeline(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeExact)
	// The second query certifies part of its answer two waves before the
	// walk ends, so certification monotonicity is tested mid-stream.
	for _, q := range [][]float64{d.Series[0].Values[0:16], d.Series[1].Values[0:20]} {
		checkProgressivePipeline(t, e, q)
	}
}

func checkProgressivePipeline(t *testing.T, e *Engine, q []float64) {
	ctx := context.Background()
	fo := FindOptions{Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true}, K: 5}
	snaps, res := collectSnapshots(t, e, q, fo)
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots; want approx + waves + final", len(snaps))
	}

	// The approximate snapshot comes first, before any wave.
	first := snaps[0]
	if first.Seq != 0 || first.Wave != 0 || first.Final {
		t.Fatalf("first snapshot = seq %d wave %d final %v", first.Seq, first.Wave, first.Final)
	}
	if first.GroupsRemaining == 0 {
		t.Fatalf("approximate snapshot claims the walk already finished")
	}
	approxFO := FindOptions{Options: Options{Band: -1, Mode: ModeApprox, LengthNorm: true}, K: 5}
	approx, err := e.Find(ctx, q, approxFO)
	if err != nil {
		t.Fatal(err)
	}
	sameMatches(t, "approx snapshot vs approx Find", approx.Matches, first.Matches)
	// Stats prove the emission point: the approximate phase has done
	// exactly the work an approx-mode Find does — no wave has run yet.
	if first.Stats.Groups != approx.Stats.Groups ||
		first.Stats.GroupsRefined != approx.Stats.GroupsRefined ||
		first.Stats.Members != approx.Stats.Members {
		t.Fatalf("approx snapshot stats %+v != approx Find stats %+v",
			first.Stats, approx.Stats)
	}

	// The final snapshot equals the one-shot exact result.
	last := snaps[len(snaps)-1]
	if !last.Final || last.GroupsRemaining != 0 {
		t.Fatalf("last snapshot final=%v remaining=%d", last.Final, last.GroupsRemaining)
	}
	sameMatches(t, "final snapshot vs Find", res.Matches, last.Matches)
	if last.Stats != res.Stats {
		t.Fatalf("final snapshot stats %+v != Find stats %+v", last.Stats, res.Stats)
	}
	for i, c := range last.Certified {
		if !c {
			t.Fatalf("final snapshot match %d not certified", i)
		}
	}

	// Emission invariants across the run: seq increments, waves only
	// move forward, remaining only shrinks, stats only grow, and
	// certification is monotone per match ref.
	for i, s := range snaps {
		if s.Seq != i {
			t.Fatalf("snapshot %d has seq %d", i, s.Seq)
		}
		if len(s.Certified) != len(s.Matches) {
			t.Fatalf("snapshot %d: %d flags for %d matches", i, len(s.Certified), len(s.Matches))
		}
		if i == 0 {
			continue
		}
		prev := snaps[i-1]
		if s.GroupsRemaining > prev.GroupsRemaining {
			t.Fatalf("snapshot %d remaining grew %d -> %d", i, prev.GroupsRemaining, s.GroupsRemaining)
		}
		if s.Stats.GroupsRefined < prev.Stats.GroupsRefined || s.Stats.MemberDTW < prev.Stats.MemberDTW {
			t.Fatalf("snapshot %d stats went backwards", i)
		}
	}
	// A ref certified in snapshot i is present and certified in every
	// later snapshot.
	certifiedAt := map[ts.SubSeq]int{}
	for i, s := range snaps {
		now := map[ts.SubSeq]bool{}
		for j, m := range s.Matches {
			if s.Certified[j] {
				now[m.Ref] = true
				if _, ok := certifiedAt[m.Ref]; !ok {
					certifiedAt[m.Ref] = i
				}
			}
		}
		for ref, at := range certifiedAt {
			if !now[ref] {
				t.Fatalf("%v certified in snapshot %d, not certified (or absent) in snapshot %d", ref, at, i)
			}
		}
	}

	// Certification soundness: a match certified in any snapshot
	// appears in the final exact result with the same distance.
	finalByRef := map[interface{}]float64{}
	for _, m := range res.Matches {
		finalByRef[m.Ref] = m.Dist
	}
	for i, s := range snaps {
		for j, m := range s.Matches {
			if !s.Certified[j] {
				continue
			}
			d, ok := finalByRef[m.Ref]
			if !ok {
				t.Fatalf("snapshot %d certified %v, absent from final result", i, m.Ref)
			}
			if d != m.Dist {
				t.Fatalf("snapshot %d certified %v at %g, final has %g", i, m.Ref, m.Dist, d)
			}
		}
	}
}

// TestProgressiveSnapshotsDeterministic pins that the emission sequence
// itself — wave boundaries, remaining counts, per-wave match sets and
// statistics — repeats exactly, not just the final answer.
func TestProgressiveSnapshotsDeterministic(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeExact)
	q := d.Series[2].Values[10:26]
	fo := FindOptions{Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true}, K: 4}
	first, _ := collectSnapshots(t, e, q, fo)
	again, _ := collectSnapshots(t, e, q, fo)
	if len(again) != len(first) {
		t.Fatalf("%d snapshots != %d", len(again), len(first))
	}
	for i := range again {
		if again[i].Wave != first[i].Wave || again[i].GroupsRemaining != first[i].GroupsRemaining ||
			again[i].Stats != first[i].Stats {
			t.Fatalf("snapshot %d (wave %d, remaining %d, %+v) != (wave %d, remaining %d, %+v)", i,
				again[i].Wave, again[i].GroupsRemaining, again[i].Stats,
				first[i].Wave, first[i].GroupsRemaining, first[i].Stats)
		}
		sameMatches(t, "snapshot", first[i].Matches, again[i].Matches)
		for j := range again[i].Certified {
			if again[i].Certified[j] != first[i].Certified[j] {
				t.Fatalf("snapshot %d certification %d diverged", i, j)
			}
		}
	}
}

// TestProgressiveCancelMidStream cancels the context from inside the sink
// and requires the walk to abort within one wave: at most one further
// emission, then ctx.Err().
func TestProgressiveCancelMidStream(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeExact)
	q := d.Series[1].Values[0:20]
	ctx, cancel := context.WithCancel(context.Background())
	emissions := 0
	_, err := e.Find(ctx, q, FindOptions{
		Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true},
		K:       5,
		Progress: func(s Snapshot) {
			emissions++
			if s.Seq == 1 {
				cancel() // give up after the first refinement wave
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Seq 0 (approx), seq 1 (first wave, cancels), and at most one
	// in-flight wave that raced the cancellation.
	if emissions > 3 {
		t.Fatalf("%d emissions after cancelling at the first wave", emissions)
	}
}

// TestProgressiveApproxNeverEmits pins that approx-mode and range calls
// ignore the sink: the approximate answer is the whole result.
func TestProgressiveApproxNeverEmits(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeApprox)
	q := d.Series[0].Values[0:12]
	calls := 0
	sink := func(Snapshot) { calls++ }
	if _, err := e.Find(context.Background(), q, FindOptions{
		Options: Options{Band: -1, LengthNorm: true}, K: 3, Progress: sink,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Find(context.Background(), q, FindOptions{
		Options: Options{Band: -1, LengthNorm: true}, Range: true, MaxDist: 0.1, Progress: sink,
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("sink called %d times on approx/range calls", calls)
	}
}

// TestGroupLowerBelowMembers checks the exact walk's group bound against
// the chain it rests on — groupLower <= LBKeogh(m) <= DTWBanded(q, m) for
// every member m within HalfST of the representative — on random groups.
// Half the members are adversarial: they spend their whole ED budget moving
// the representative toward the query envelope, which makes the first
// inequality tight, so any over-estimate of the bound shows. The abandoned
// form must agree with the full one about the abandon threshold.
func TestGroupLowerBelowMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	walk := func(n int, start float64) []float64 {
		v, out := start, make([]float64, n)
		for i := range out {
			v += rng.NormFloat64() * 0.2
			out[i] = v
		}
		return out
	}
	for trial := 0; trial < 300; trial++ {
		l, band := 4+rng.Intn(12), []int{-1, 0, 3}[rng.Intn(3)]
		q := walk(4+rng.Intn(12), 0)
		g := &grouping.Group{Length: l, Rep: walk(l, rng.NormFloat64())}
		qU, qL := dist.Envelope(q, l, band)
		full := dist.LBKeogh(g.Rep, qU, qL, math.Inf(1))
		env := &lengthEnv{norm: 1, half: rng.Float64() * 1.2 * full, qU: qU, qL: qL}
		lower := groupLower(g, env, env.half, math.Inf(1))
		for mi := 0; mi < 8; mi++ {
			m := append([]float64(nil), g.Rep...)
			budget := env.half * rng.Float64()
			if mi%2 == 0 {
				// Adversarial: shrink hinges with the full budget.
				budget = env.half
				for j := range m {
					step := 0.0
					if m[j] > qU[j] {
						step = math.Min(m[j]-qU[j], budget)
						m[j] -= step
					} else if m[j] < qL[j] {
						step = math.Min(qL[j]-m[j], budget)
						m[j] += step
					}
					budget -= step
				}
			} else {
				// Random direction, ED = budget.
				dir := make([]float64, l)
				sum := 0.0
				for j := range dir {
					dir[j] = rng.NormFloat64()
					sum += math.Abs(dir[j])
				}
				for j := range m {
					m[j] += dir[j] * budget / sum
				}
			}
			lbm := dist.LBKeogh(m, qU, qL, math.Inf(1))
			dtw := dist.DTWBanded(q, m, band)
			if lower > lbm+1e-9 || lower > dtw+1e-9 {
				t.Fatalf("trial %d member %d: groupLower %g > LBKeogh %g or DTW %g (half %g)", trial, mi, lower, lbm, dtw, env.half)
			}
		}
		ub := rng.Float64() * 1.5 * full
		if got := groupLower(g, env, env.half, ub); (lower > ub) != (got > ub) || (lower <= ub && got != lower) {
			t.Fatalf("trial %d: abandoned bound %g disagrees with full bound %g at ub %g", trial, got, lower, ub)
		}
	}
}

// candView is a candidate with its group, query environment and identity
// resolved: the eager walk's candidate, and a browse candidate as the tests
// read it.
type candView struct {
	ref   GroupRef
	g     *grouping.Group
	env   *lengthEnv
	lower float64
}

// views resolves candidates of the walk.
func (w *progressiveWalk) views(cs []repCandidate) []candView {
	out := make([]candView, len(cs))
	for i, c := range cs {
		g, env, ref := w.at(c)
		out[i] = candView{ref: ref, g: g, env: env, lower: c.lower}
	}
	return out
}

// eagerCandidates scores every representative of the candidate lengths with
// DTWBanded, keys each by its score, and sorts all candidates by (score,
// length, index): the visit order of the approximate walk, computed with
// nothing pruned or lazy.
func eagerCandidates(e *Engine, q []float64, c QueryConstraints, opts Options) []candView {
	var cands []candView
	for _, l := range e.candidateLengths(c) {
		env := e.lengthEnvFor(q, l, opts)
		for gi, g := range e.base.GroupsOfLength(l) {
			d := dist.DTWBanded(q, g.Rep, opts.Band)
			cands = append(cands, candView{ref: GroupRef{Length: l, Index: gi}, g: g, env: env, lower: d / env.norm})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if a.lower != b.lower {
			return a.lower < b.lower
		}
		if a.ref.Length != b.ref.Length {
			return a.ref.Length < b.ref.Length
		}
		return a.ref.Index < b.ref.Index
	})
	return cands
}

// eagerApprox is the approximate walk with nothing pruned or lazy in it,
// the independent oracle of the browse: it refines the candidates of
// eagerCandidates in order until a representative scores above the k-th
// best member.
func eagerApprox(e *Engine, q []float64, k int, c QueryConstraints, opts Options) ([]Match, SearchStats, error) {
	ctx := context.Background()
	var st SearchStats
	cands := eagerCandidates(e, q, c, opts)
	st.Groups, st.RepDTW = len(cands), len(cands)
	w := &progressiveWalk{e: e, q: q, c: c, opts: opts, st: &st, walkState: new(walkState), top: newTopK(k, math.Inf(1))}
	for _, cand := range cands {
		if w.top.full() && cand.lower > w.top.worst().Score {
			break
		}
		if err := w.refineGroup(ctx, cand.g, cand.env, cand.ref); err != nil {
			return nil, st, err
		}
	}
	st.GroupsLBPruned = st.Groups - st.GroupsRefined
	return w.top.sorted(), st, nil
}

// lengthEnvFor computes the query envelope and constants for length l in
// fresh arrays.
func (e *Engine) lengthEnvFor(q []float64, l int, opts Options) *lengthEnv {
	env := new(lengthEnv)
	e.setLengthEnv(env, new(dist.Workspace), q, l, opts)
	return env
}

// singletonWorld builds an all-singleton base — min-max normalized
// cylinder-bell-funnel noise under a tiny ST, every window its own group —
// on which an approximate walk must pass its first k groups to collect k
// matches whenever a constraint excludes one.
func singletonWorld(t *testing.T) (*ts.Dataset, *Engine) {
	t.Helper()
	d := gen.CBF(gen.CBFOptions{PerClass: 2, Length: 96, Seed: 31})
	if err := ts.NormalizeMinMax(d); err != nil {
		t.Fatal(err)
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.01, MinLength: 18, MaxLength: 22})
	if err != nil {
		t.Fatal(err)
	}
	if n, w := b.NumGroups(), d.NumSubsequences(18, 22); n != w {
		t.Fatalf("singletonWorld compacts: %d groups for %d windows", n, w)
	}
	e, err := NewEngine(d, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

// lazyWorld is one base of the lazy-walk tests plus its queries.
type lazyWorld struct {
	name    string
	e       *Engine
	queries []oracleQuery
}

func lazyWorlds(t *testing.T) []lazyWorld {
	var out []lazyWorld
	d, e := singletonWorld(t)
	out = append(out, lazyWorld{"singleton", e, oracleQueries(d, 1, 16, 24)})
	for _, scale := range []float64{1, 1e6} {
		d, e := walkWorld(t, scale)
		out = append(out, lazyWorld{fmt.Sprintf("walk x%g", scale), e, oracleQueries(d, scale, 6, 16)})
	}
	return out
}

// TestApproxLazyMatchesEagerWalk is the differential oracle of the lazy
// approximate walk: its answer is bit-identical to the eager walk's (refs,
// distances, scores) and refines the same groups, for K in {1, 2, 5, 10},
// LengthNorm on and off, bands -1/0/3, with and without an overlap
// exclusion, on an all-singleton base, a compacting walk base
// and its ×1e6 raw-unit copy.
func TestApproxLazyMatchesEagerWalk(t *testing.T) {
	ctx := context.Background()
	for _, w := range lazyWorlds(t) {
		for qi, oq := range w.queries {
			for _, k := range []int{1, 2, 5, 10} {
				for _, ln := range []bool{false, true} {
					for _, band := range []int{-1, 0, 3} {
						for _, exclude := range []bool{false, true} {
							var c QueryConstraints
							if exclude {
								c.ExcludeOverlap = oq.src
							}
							opts := Options{Band: band, LengthNorm: ln}
							want, wantSt, err := eagerApprox(w.e, oq.q, k, c, opts)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("%s query %d k %d norm %v band %d exclude %v",
								w.name, qi, k, ln, band, exclude)
							res, err := w.e.Find(ctx, oq.q, FindOptions{Options: opts, K: k, Constraints: c})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							sameMatches(t, label, want, res.Matches)
							st := res.Stats
							if st.Groups != wantSt.Groups || st.GroupsRefined != wantSt.GroupsRefined ||
								st.Members != wantSt.Members || st.GroupsLBPruned != wantSt.GroupsLBPruned {
								t.Fatalf("%s: stats %+v, eager walk %+v", label, st, wantSt)
							}
						}
					}
				}
			}
		}
	}
}

// TestApproxLazyRepDTWCounts pins the representative DTWs the browse
// saves, so a looser key shows as work. The eager walk runs one DTW per
// representative. At K = 5 on the all-singleton base the browse runs at
// most a fifth of those for plain queries (12 % measured), and at most 47 %
// (46 % measured) for queries that exclude their own window: the walk then
// passes the excluded groups, resolving every representative whose key
// undercuts them. On every base, over the same plain queries, K = 1 costs
// no more of them than K = 5.
func TestApproxLazyRepDTWCounts(t *testing.T) {
	ctx := context.Background()
	repDTW := func(e *Engine, q []float64, k int, c QueryConstraints, opts Options) int {
		res, err := e.Find(ctx, q, FindOptions{Options: opts, K: k, Constraints: c})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.RepDTW
	}
	for _, w := range lazyWorlds(t) {
		var lazy, eager [2]int // plain, self-excluding; K = 5
		k1 := 0
		for _, oq := range w.queries {
			for _, ln := range []bool{false, true} {
				opts := Options{Band: 3, LengthNorm: ln}
				for x, c := range []QueryConstraints{{}, {ExcludeOverlap: oq.src}} {
					_, st, err := eagerApprox(w.e, oq.q, 5, c, opts)
					if err != nil {
						t.Fatal(err)
					}
					lazy[x] += repDTW(w.e, oq.q, 5, c, opts)
					eager[x] += st.RepDTW
				}
				k1 += repDTW(w.e, oq.q, 1, QueryConstraints{}, opts)
			}
		}
		t.Logf("%s: lazy %v, eager %v representative DTWs (plain, self-excluding); K = 1 %d", w.name, lazy, eager, k1)
		if k1 > lazy[0] {
			t.Fatalf("%s: K = 1 ran %d representative DTWs, K = 5 ran %d", w.name, k1, lazy[0])
		}
		if w.name == "singleton" && (5*lazy[0] > eager[0] || 100*lazy[1] > 47*eager[1]) {
			t.Fatalf("singleton base: lazy walk ran %v representative DTWs, eager %v", lazy, eager)
		}
	}
}

// TestApproxScoringBestFirstDTWs pins the best-first order of the browse by
// its representative DTW count. The reference is the count of
// representatives whose LB_Keogh score bound does not exceed the final k-th
// best representative score: a DTW in ascending LB_Keogh order runs on
// exactly those, and no bound the k-th tracker holds rules them out. Over
// the plain queries of every lazy-walk base, at K 1 and 5 and LengthNorm on
// and off, the browse must stay within 10 % of the reference (measured:
// equal to it on the singleton base; 1.09x on the walk bases, where the
// member cutoff carries the walk past the k-th best representative).
// Running each DTW in scan order, or as soon as LB_Keogh passes in LB_Kim
// order instead of from the heap, breaks it.
func TestApproxScoringBestFirstDTWs(t *testing.T) {
	ctx := context.Background()
	for _, w := range lazyWorlds(t) {
		lengths := w.e.candidateLengths(QueryConstraints{})
		dtws, floor := 0, 0
		for _, oq := range w.queries {
			for _, k := range []int{1, 5} {
				for _, ln := range []bool{false, true} {
					opts := Options{Band: 3, LengthNorm: ln}
					var st SearchStats
					if _, err := w.e.startWalk(ctx, new(walkState), oq.q, k, QueryConstraints{}, lengths, opts, &st); err != nil {
						t.Fatal(err)
					}
					dtws += st.RepDTW
					var scores, keogh []float64
					for _, l := range lengths {
						env := w.e.lengthEnvFor(oq.q, l, opts)
						for _, g := range w.e.base.GroupsOfLength(l) {
							scores = append(scores, dist.DTWBanded(oq.q, g.Rep, opts.Band)/env.norm)
							keogh = append(keogh, dist.LBKeogh(g.Rep, env.qU, env.qL, math.Inf(1))/env.norm)
						}
					}
					slices.Sort(scores)
					for _, lb := range keogh {
						if lb <= scores[k-1] {
							floor++
						}
					}
				}
			}
		}
		t.Logf("%s: the browse ran %d representative DTWs, %d representatives pass LB_Keogh at the k-th best (%.2fx)",
			w.name, dtws, floor, float64(dtws)/float64(floor))
		if 10*dtws > 11*floor {
			t.Fatalf("%s: the browse ran %d representative DTWs, over 1.1 times the %d that LB_Keogh cannot rule out", w.name, dtws, floor)
		}
	}
}

// TestApproxSingletonTailUntouched pins that the browse touches only the
// keys it pops, whose looseness would otherwise cost LB_Keogh evaluations
// that no statistic counts. On an all-singleton base a group's member
// scores what its representative does, so a plain K = 5 query's cutoff is
// the 5th representative score: the walk refines 5 groups, and every group
// whose LB_Kim key exceeds that cutoff leaves with its key bit-equal to the
// LB_Kim key — it was never popped.
func TestApproxSingletonTailUntouched(t *testing.T) {
	ctx := context.Background()
	w := lazyWorlds(t)[0]
	lengths := w.e.candidateLengths(QueryConstraints{})
	for qi, oq := range w.queries {
		for _, ln := range []bool{false, true} {
			opts := Options{Band: 3, LengthNorm: ln}
			walk, err := w.e.startWalk(ctx, new(walkState), oq.q, 5, QueryConstraints{}, lengths, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("query %d norm %v", qi, ln)
			if walk.refined != 5 {
				t.Fatalf("%s: refined %d groups", label, walk.refined)
			}
			cutoff, beyond := walk.top.boundScore(), 0
			for _, c := range walk.views(walk.cands) {
				key := dist.LBKim(oq.q, c.g.Rep) / c.env.norm
				if key <= cutoff {
					continue
				}
				beyond++
				if math.Float64bits(c.lower) != math.Float64bits(key) {
					t.Fatalf("%s: group %v with LB_Kim key %g above the cutoff %g was popped (key %g)", label, c.ref, key, cutoff, c.lower)
				}
			}
			if beyond == 0 {
				t.Fatalf("%s: no LB_Kim key exceeds the cutoff", label)
			}
		}
	}
}

// TestApproxCandidateOrderMatchesFullSort is the visit-order oracle of the
// browse: the groups it refined, cands[:refined], are the eager full sort's
// prefix of the same length, refs and scores bit-identical, and the prefix
// is as long as the eager walk's, for K in {1, 5, 1025} (the last saturates
// the k-th tracker), LengthNorm on and off, with and without an overlap
// exclusion, on every lazy-walk base. Some walk must refine more than 2K
// groups, or a browse that orders only its first K would pass.
func TestApproxCandidateOrderMatchesFullSort(t *testing.T) {
	ctx := context.Background()
	longTail := false
	for _, w := range lazyWorlds(t) {
		lengths := w.e.candidateLengths(QueryConstraints{})
		for qi, oq := range w.queries {
			for _, k := range []int{1, 5, 1025} {
				for _, ln := range []bool{false, true} {
					for _, exclude := range []bool{false, true} {
						var c QueryConstraints
						if exclude {
							c.ExcludeOverlap = oq.src
						}
						label := fmt.Sprintf("%s query %d k %d norm %v exclude %v", w.name, qi, k, ln, exclude)
						opts := Options{Band: 3, LengthNorm: ln}
						walk, err := w.e.startWalk(ctx, new(walkState), oq.q, k, c, lengths, opts, nil)
						if err != nil {
							t.Fatal(err)
						}
						_, eagerSt, err := eagerApprox(w.e, oq.q, k, c, opts)
						if err != nil {
							t.Fatal(err)
						}
						if walk.refined != eagerSt.GroupsRefined {
							t.Fatalf("%s: refined %d groups, the eager walk %d", label, walk.refined, eagerSt.GroupsRefined)
						}
						want := eagerCandidates(w.e, oq.q, c, opts)
						for i, got := range walk.views(walk.cands[:walk.refined]) {
							if got.ref != want[i].ref || math.Float64bits(got.lower) != math.Float64bits(want[i].lower) {
								t.Fatalf("%s: visit %d is %v at %g, the full sort has %v at %g", label, i, got.ref, got.lower, want[i].ref, want[i].lower)
							}
						}
						longTail = longTail || walk.refined > 2*k
					}
				}
			}
		}
	}
	if !longTail {
		t.Fatal("no walk refines more than 2K groups: the test proves nothing about the order past K")
	}
}

// TestRawBound pins the conversion behind the browse's re-keying and the
// range threshold: for any score bound b and norm, rawBound(b, norm) is the
// largest raw distance whose score does not exceed b, so a DTW above it
// scores above b. The plain product b*norm misses that on some norms, and
// the test requires meeting them.
func TestRawBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	differs := 0
	for i := 0; i < 20000; i++ {
		b := rng.Float64() * math.Pow(10, float64(rng.Intn(13)-6))
		norm := float64(1 + rng.Intn(64))
		d := rawBound(b, norm)
		if d/norm > b || up(d)/norm <= b {
			t.Fatalf("rawBound(%g, %g) = %g: scores %g, next float scores %g", b, norm, d, d/norm, up(d)/norm)
		}
		if d != b*norm {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("b*norm was exact on every draw: the test proves nothing")
	}
	if d := rawBound(math.Inf(1), 7); !math.IsInf(d, 1) {
		t.Fatalf("rawBound(+Inf, 7) = %g", d)
	}
}

// TestExactModeSkipsRepresentativeDTW pins that an exact walk bounds its
// unrefined groups without a representative DTW each: on a banded walk
// base fewer representative DTWs run than there are groups, and every
// group is either refined or certified-skipped exactly once.
func TestExactModeSkipsRepresentativeDTW(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeExact)
	for _, q := range [][]float64{d.Series[0].Values[0:12], d.Series[5].Values[30:46]} {
		res, err := e.Find(context.Background(), q, FindOptions{
			Options: Options{Band: 3, Mode: ModeExact, LengthNorm: true}, K: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.RepDTW >= st.Groups {
			t.Fatalf("exact walk ran %d representative DTWs for %d groups", st.RepDTW, st.Groups)
		}
		if st.GroupsLBPruned+st.GroupsRefined != st.Groups {
			t.Fatalf("pruned %d + refined %d != groups %d", st.GroupsLBPruned, st.GroupsRefined, st.Groups)
		}
	}
}
