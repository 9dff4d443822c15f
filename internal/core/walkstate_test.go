package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ts"
)

// reuseQuery is one query of the walk-state reuse sequence.
type reuseQuery struct {
	name string
	q    []float64
	k    int
	c    QueryConstraints
	opts Options
	// stream collects the exact walk's snapshots; stopAt, when positive,
	// cancels the walk from the sink at that snapshot, and panicAt panics
	// there.
	stream          bool
	stopAt, panicAt int
	// cancelAfter, when positive, cancels the walk after that many context
	// polls (countingCtx): mid-browse for an approximate query.
	cancelAfter int
	// leavesQueues marks a query stopped while its exact walk's group and
	// member queues are both non-empty, so the next query starts on filled
	// queues.
	leavesQueues bool
}

// reuseOutcome is everything a query returns: matches (paths included),
// statistics, snapshots and the error.
type reuseOutcome struct {
	matches []Match
	stats   SearchStats
	snaps   []Snapshot
	err     string
}

// runIn runs rq in the walk state ws, through kbestApprox or kbestExact as
// search does, recovering a sink's panic into the outcome's error.
func runIn(e *Engine, ws *walkState, rq reuseQuery) (out reuseOutcome) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if rq.cancelAfter > 0 {
		ctx = &countingCtx{Context: ctx, limit: rq.cancelAfter}
	}
	var progress ProgressFunc
	if rq.stream {
		progress = func(s Snapshot) {
			out.snaps = append(out.snaps, s)
			if s.Seq == rq.stopAt && rq.stopAt > 0 {
				cancel()
			}
			if s.Seq == rq.panicAt && rq.panicAt > 0 {
				panic("sink gave up")
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Sprint("panic: ", r)
		}
	}()
	lengths := e.candidateLengths(rq.c)
	var ms []Match
	var err error
	if rq.opts.Mode == ModeExact {
		ms, err = e.kbestExact(ctx, ws, rq.q, rq.k, rq.c, lengths, rq.opts, &out.stats, progress)
	} else {
		ms, err = e.kbestApprox(ctx, ws, rq.q, rq.k, rq.c, lengths, rq.opts, &out.stats)
	}
	out.matches = ms
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// reuseQueries interleaves approximate, exact and streamed queries over
// manyGroupsWorld: K 1, 5 and 1025 (past the k-th tracker's saturation),
// LengthNorm on and off, length constraints that change the candidate
// count, self-exclusion, an approximate query cancelled mid-browse, a
// stream whose sink stops it after the first wave, one whose sink panics,
// and a large exact stream stopped with both exact queues filled, next to
// smaller exact queries in either direction.
func reuseQueries(e *Engine) []reuseQuery {
	d := e.ds
	q0, q1, q2 := d.Series[0].Values[0:12], d.Series[3].Values[20:36], d.Series[5].Values[40:49]
	self := QueryConstraints{ExcludeOverlap: ts.SubSeq{Series: 3, Start: 20, Length: 16}}
	approx := Options{Band: -1, LengthNorm: true}
	exact := Options{Band: 3, Mode: ModeExact, LengthNorm: true}
	raw := Options{Band: 0}
	rawExact := Options{Band: 0, Mode: ModeExact}
	return []reuseQuery{
		{name: "approx k5", q: q0, k: 5, opts: approx},
		{name: "exact k1 self", q: q1, k: 1, c: self, opts: exact},
		{name: "approx k1025", q: q2, k: 1025, opts: approx},
		{name: "approx k1 raw lengths 8-10", q: q1, k: 1, c: QueryConstraints{MinLength: 8, MaxLength: 10}, opts: raw},
		{name: "stream k5", q: q0, k: 5, opts: exact, stream: true},
		{name: "approx cancelled mid-browse", q: q1, k: 5, opts: approx, cancelAfter: 7},
		{name: "exact k5 raw lengths 15-20", q: q2, k: 5, c: QueryConstraints{MinLength: 15, MaxLength: 20}, opts: rawExact},
		{name: "stream stopped by its sink", q: q1, k: 5, c: self, opts: exact, stream: true, stopAt: 1},
		{name: "approx k5 self", q: q1, k: 5, c: self, opts: approx},
		{name: "stream whose sink panics", q: q2, k: 1, opts: exact, stream: true, panicAt: 1},
		{name: "exact k1025 lengths 12", q: q0, k: 1025, c: QueryConstraints{MinLength: 12, MaxLength: 12}, opts: exact},
		{name: "approx k1", q: q2, k: 1, opts: approx},
		{name: "exact k1 raw", q: q1, k: 1, opts: rawExact},
		{name: "stream k1025 stopped with its queues filled", q: q1, k: 1025, opts: exact, stream: true, stopAt: 1, leavesQueues: true},
		{name: "exact k5 after filled queues", q: q0, k: 5, opts: exact},
	}
}

// TestWalkStateReuse is the pool-reuse oracle: every query of
// reuseQueries, run in one walk state carried through the sequence (twice,
// forward then backward), returns bit for bit what it returns in a fresh
// state — matches with their paths, the full SearchStats, every snapshot
// and the error. The sequence then runs through Find on the pool, twice,
// with the same result. A walk array that is not re-initialized on reuse
// (the browse levels, the bucket counts, the heap, the visit order) shows
// as a different visit, count or answer.
func TestWalkStateReuse(t *testing.T) {
	_, e := manyGroupsWorld(t, ModeApprox)
	queries := reuseQueries(e)
	want := make([]reuseOutcome, len(queries))
	for i, rq := range queries {
		want[i] = runIn(e, new(walkState), rq)
	}
	for i, rq := range queries {
		if stopped := rq.cancelAfter > 0 || rq.stopAt > 0 || rq.panicAt > 0; stopped != (want[i].err != "") {
			t.Fatalf("%q alone: error %q", rq.name, want[i].err)
		}
	}
	check := func(label string, i int, got reuseOutcome) {
		t.Helper()
		if got.err != want[i].err {
			t.Fatalf("%s %q: error %q, alone %q", label, queries[i].name, got.err, want[i].err)
		}
		if got.stats != want[i].stats {
			t.Fatalf("%s %q: stats %+v, alone %+v", label, queries[i].name, got.stats, want[i].stats)
		}
		if !reflect.DeepEqual(got.matches, want[i].matches) {
			t.Fatalf("%s %q: matches %v, alone %v", label, queries[i].name, got.matches, want[i].matches)
		}
		if !reflect.DeepEqual(got.snaps, want[i].snaps) {
			t.Fatalf("%s %q: %d snapshots differ from the %d alone", label, queries[i].name, len(got.snaps), len(want[i].snaps))
		}
	}
	ws := new(walkState)
	for pass := 0; pass < 2; pass++ {
		for j := range queries {
			i := j
			if pass == 1 {
				i = len(queries) - 1 - j
			}
			check(fmt.Sprintf("reused state, pass %d:", pass), i, runIn(e, ws, queries[i]))
			if queries[i].leavesQueues && (len(ws.groupQ) == 0 || len(ws.memberQ) == 0) {
				t.Fatalf("%q left %d queued groups and %d queued members, want both filled",
					queries[i].name, len(ws.groupQ), len(ws.memberQ))
			}
		}
	}
	// The same sequence through Find, on the pool; a panicking sink must not
	// keep its state from the pool either.
	for pass := 0; pass < 2; pass++ {
		for i, rq := range queries {
			ws := getWalkState()
			got := runIn(e, ws, rq)
			ws.release()
			check(fmt.Sprintf("pooled state, pass %d:", pass), i, got)
			if rq.cancelAfter > 0 || rq.stream {
				continue
			}
			res, err := e.Find(context.Background(), rq.q, FindOptions{Options: rq.opts, K: rq.k, Constraints: rq.c})
			if err != nil {
				t.Fatalf("Find %q: %v", rq.name, err)
			}
			check(fmt.Sprintf("Find, pass %d:", pass), i, reuseOutcome{matches: res.Matches, stats: res.Stats})
		}
	}
}

// TestWalkStateReleaseDropsReferences pins that a released state holds no
// group or query environment, so a pooled state keeps no retired base or
// mapping alive.
func TestWalkStateReleaseDropsReferences(t *testing.T) {
	d, e := manyGroupsWorld(t, ModeExact)
	ws := new(walkState)
	q := d.Series[1].Values[0:14]
	if _, err := e.kbestExact(context.Background(), ws, q, 5, QueryConstraints{}, e.candidateLengths(QueryConstraints{}), e.Options(), nil, nil); err != nil {
		t.Fatal(err)
	}
	slots := ws.slots[:cap(ws.slots)]
	ws.release()
	for i, s := range slots {
		if s.groups != nil || s.env != nil {
			t.Fatalf("released state still holds slot %d: %d groups, env %v", i, len(s.groups), s.env != nil)
		}
	}
}

// TestFindApproxBytesPerGroup pins the scoring pass's allocations: on the
// all-singleton bench base, an approximate top-5 Find allocates under 16
// bytes per group on average once the walk-state pool is warm (about 1.5
// measured; a fresh candidate array alone is 16, the walk allocated about
// 54 before its per-query arrays were pooled, and about 6 before its DTW
// rows and envelopes were).
func TestFindApproxBytesPerGroup(t *testing.T) {
	var bb *benchBase
	for _, b := range benchBases {
		if b.name == "singleton" {
			bb = b
		}
	}
	e := bb.engine(t)
	fo := FindOptions{Options: Options{Band: 4, LengthNorm: true}, K: 5}
	find := func(i int) {
		if _, err := e.Find(context.Background(), bb.queries[i%len(bb.queries)], fo); err != nil {
			t.Fatal(err)
		}
	}
	for i := range bb.queries {
		find(i)
	}
	const n = 160
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		find(i)
	}
	runtime.ReadMemStats(&after)
	perGroup := float64(after.TotalAlloc-before.TotalAlloc) / n / float64(e.Base().NumGroups())
	t.Logf("%.1f bytes per group per approximate Find (%d groups)", perGroup, e.Base().NumGroups())
	if perGroup >= 16 {
		t.Fatalf("an approximate Find allocates %.1f bytes per group, want under 16", perGroup)
	}
}
