package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// memberBoundFloor counts the members an exact walk must score at the
// least: every member of a group the approximate phase left unrefined
// whose max(LB_Kim, LB_Keogh)/norm is within kth, the final k-th best
// score. It scans every such member, with no abandoning.
func memberBoundFloor(t *testing.T, e *Engine, q []float64, k int, opts Options, kth float64) int {
	t.Helper()
	lengths := e.candidateLengths(QueryConstraints{})
	w, err := e.startWalk(context.Background(), new(walkState), q, k, QueryConstraints{}, lengths, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	floor := 0
	for _, c := range w.cands[w.refined:] {
		g, env, _ := w.at(c)
		for _, m := range g.Members {
			mv := m.Values(e.ds)
			lb := max(dist.LBKim(q, mv), dist.LBKeogh(mv, env.qU, env.qL, math.Inf(1)))
			if lb/env.norm <= kth {
				floor++
			}
		}
	}
	return floor
}

// TestExactBestFirstMemberDTWs pins the member order of the exact walk: it
// runs a member's DTW only once that member's bound is the least left, so
// the exact phase's member DTWs (exact MemberDTW less the approximate
// phase's) stay within 10 % (+K) of the members whose
// max(LB_Kim, LB_Keogh)/norm is within the final k-th best. Refining
// groups one at a time in bound order, each member against the k-th best
// of that moment, runs about 4.5 times the floor on the compact bench base.
// Checked on the compact bench base and on the coarse walk base of the
// oracle tests.
func TestExactBestFirstMemberDTWs(t *testing.T) {
	const k = 5
	ctx := context.Background()
	type base struct {
		name    string
		e       *Engine
		queries [][]float64
		opts    Options
	}
	var bases []base
	for _, bb := range benchBases {
		if bb.name == "compact" {
			bases = append(bases, base{"compact bench", bb.engine(t), bb.queries, Options{Band: 4, LengthNorm: true}})
		}
	}
	d, e := walkWorld(t, 1)
	var qs [][]float64
	for _, oq := range oracleQueries(d, 1, 8, 14) {
		qs = append(qs, oq.q)
	}
	bases = append(bases, base{"coarse walk", e, qs, Options{Band: 3, LengthNorm: true}})
	for _, b := range bases {
		phase, floor := 0, 0
		for qi, q := range b.queries {
			approx := b.opts
			exact := b.opts
			exact.Mode = ModeExact
			ar, err := b.e.Find(ctx, q, FindOptions{Options: approx, K: k})
			if err != nil {
				t.Fatal(err)
			}
			er, err := b.e.Find(ctx, q, FindOptions{Options: exact, K: k})
			if err != nil {
				t.Fatal(err)
			}
			kth := er.Matches[len(er.Matches)-1].Score
			qPhase := er.Stats.MemberDTW - ar.Stats.MemberDTW
			qFloor := memberBoundFloor(t, b.e, q, k, exact, kth)
			if float64(qPhase) > 1.1*float64(qFloor)+k {
				t.Errorf("%s query %d: %d exact-phase member DTWs, %d members bounded within the final k-th best",
					b.name, qi, qPhase, qFloor)
			}
			phase += qPhase
			floor += qFloor
		}
		t.Logf("%s: %d exact-phase member DTWs over %d queries, floor %d", b.name, phase, len(b.queries), floor)
		if floor == 0 {
			t.Fatalf("%s: no member is bounded within the final k-th best: the test proves nothing", b.name)
		}
	}
}

// queuedMemberWorld hand-builds a base where the walk's queues hold the
// true answer while nothing is left in the sorted tail. One length, 8, and
// one window per series; ST is so wide that every group's envelope bound
// is 0. Against the all-zero query, whose DTW to a window is the window's
// sum of absolute values:
//   - group 0 is the singleton A, scoring 1.0, which the approximate phase
//     returns;
//   - group 1 is X: a decoy whose LB_Kim is 0 and whose LB_Keogh is 5, and
//     behind it x, scoring 0.8, whose LB_Kim is 0.2;
//   - groups 2..16 are 15 fillers like the decoy.
//
// The exact walk expands every group (bound 0), queues x from X at key
// 0.8, and then takes the 15 fillers (key 0), which closes a wave with A
// still the answer, the tail and the group queue empty, and x still
// queued.
func queuedMemberWorld(t *testing.T) (*Engine, []float64) {
	t.Helper()
	const l, fillers = 8, 15
	decoy := []float64{0, 1, 1, 1, 1, 1, 0, 0}
	series := [][]float64{
		{0, .2, .2, .2, .2, .2, 0, 0},    // A
		decoy,                            // X's first member
		{.1, .1, .1, .1, .1, .1, .1, .1}, // x
	}
	for i := 0; i < fillers; i++ {
		series = append(series, decoy)
	}
	d := ts.NewDataset("queued-member")
	for i, vals := range series {
		d.MustAdd(ts.NewSeries(fmt.Sprintf("s%02d", i), append([]float64(nil), vals...)))
	}
	b := &grouping.Base{
		DatasetName: d.Name, DatasetSum: grouping.DatasetChecksum(d),
		ST: 10, MinLength: l, MaxLength: l,
		ByLength: map[int]*grouping.LengthGroups{},
	}
	lg := &grouping.LengthGroups{Length: l}
	win := func(s int) ts.SubSeq { return ts.SubSeq{Series: s, Length: l} }
	rep := func(s int) []float64 { return append([]float64(nil), series[s]...) }
	lg.Append(&grouping.Group{Length: l, Rep: rep(0), Members: []ts.SubSeq{win(0)}, RepIsFirst: true})
	lg.Append(&grouping.Group{Length: l, Rep: rep(1), Members: []ts.SubSeq{win(1), win(2)}, RepIsFirst: true})
	for i := 0; i < fillers; i++ {
		// A centroid-like singleton: not radius-zero, so it gets the
		// envelope bound, 0.
		lg.Append(&grouping.Group{Length: l, Rep: rep(3 + i), Members: []ts.SubSeq{win(3 + i)}})
	}
	b.ByLength[l] = lg
	if err := b.Validate(d); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, make([]float64, l)
}

// TestProgressiveCertifiesAgainstQueuedMembers pins that a snapshot
// certifies against the queued groups and members too, not the sorted
// tail alone: on queuedMemberWorld the first wave closes with the
// approximate answer A still best, nothing left in the tail or the group
// queue, and x, which beats A, waiting in the member queue. A must not be
// certified there, the final answer is x, and every match certified in
// any snapshot is in the final answer with its distance.
func TestProgressiveCertifiesAgainstQueuedMembers(t *testing.T) {
	e, q := queuedMemberWorld(t)
	snaps, res := collectSnapshots(t, e, q, FindOptions{Options: Options{Band: -1, Mode: ModeExact}, K: 1})
	a, x := ts.SubSeq{Series: 0, Length: 8}, ts.SubSeq{Series: 2, Length: 8}
	if len(res.Matches) != 1 || res.Matches[0].Ref != x {
		t.Fatalf("exact answer %v, want x %v", res.Matches, x)
	}
	if len(snaps) < 3 {
		t.Fatalf("%d snapshots, want the approximate one, a wave and the final one", len(snaps))
	}
	w1 := snaps[1]
	if w1.Wave != 1 || w1.GroupsRemaining != 0 || len(w1.Matches) != 1 || w1.Matches[0].Ref != a {
		t.Fatalf("first wave: wave %d, %d groups remaining, matches %v; want wave 1, 0 remaining, A %v",
			w1.Wave, w1.GroupsRemaining, w1.Matches, a)
	}
	if w1.Certified[0] {
		t.Fatalf("first wave certifies A at %g while x, scoring %g, is still queued", w1.Matches[0].Score, res.Matches[0].Score)
	}
	for i, s := range snaps {
		for j, m := range s.Matches {
			if s.Certified[j] && (m.Ref != x || m.Dist != res.Matches[0].Dist) {
				t.Fatalf("snapshot %d certifies %v at %g; the answer is %v at %g", i, m.Ref, m.Dist, x, res.Matches[0].Dist)
			}
		}
	}
}

// TestFindExactAllocsIndependentOfMemberDTWs pins that an exact Find on
// the compact bench base allocates a bounded number of objects however many
// member DTWs it runs: the kernel rows, envelopes and queues live in the
// pooled walk state. Before they did, a query allocated one row pair per
// DTW (about 1 480 objects a query).
func TestFindExactAllocsIndependentOfMemberDTWs(t *testing.T) {
	var bb *benchBase
	for _, b := range benchBases {
		if b.name == "compact" {
			bb = b
		}
	}
	e := bb.engine(t)
	fo := FindOptions{Options: Options{Band: 4, Mode: ModeExact, LengthNorm: true}, K: 5}
	ctx := context.Background()
	heaviest := 0
	for _, q := range bb.queries {
		res, err := e.Find(ctx, q, fo)
		if err != nil {
			t.Fatal(err)
		}
		heaviest = max(heaviest, res.Stats.MemberDTW)
	}
	const bound = 200
	if heaviest <= 2*bound {
		t.Fatalf("the heaviest query runs %d member DTWs: too few to tell a per-DTW allocation from the bound", heaviest)
	}
	for qi, q := range bb.queries {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := e.Find(ctx, q, fo); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("query %d: %v allocations an exact Find, want at most %d", qi, allocs, bound)
		}
	}
}
