package onex

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// drain collects every update of an exploration.
func drain(t *testing.T, x *Exploration) []Update {
	t.Helper()
	var ups []Update
	for u := range x.Updates() {
		ups = append(ups, u)
	}
	return ups
}

// assertNoGoroutineLeak is the goleak-style check: the goroutine count
// must return to (at most) its baseline within the deadline, proving the
// stream goroutine exited.
func assertNoGoroutineLeak(t *testing.T, label string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; cheap in tests
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still alive, baseline %d", label, n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamProgressiveContract is the acceptance test for the streaming
// API: the first update is the approximate answer (emitted before any
// exact refinement wave, asserted via its stats), and the final update
// equals the one-shot exact Find — matches, order, and stats.
func TestStreamProgressiveContract(t *testing.T) {
	db := openWalks(t)
	raw, err := db.SeriesValues("walk-000")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Values: raw[0:16], K: 5}

	x, err := db.Stream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ups := drain(t, x)
	if err := x.Err(); err != nil {
		t.Fatalf("stream err = %v", err)
	}
	if len(ups) < 3 {
		t.Fatalf("%d updates; want approx + waves + final", len(ups))
	}

	// First update: the approximate answer, before any wave.
	approxQ := q
	approxQ.Mode = ModeApprox
	approx, err := db.Find(ctx, approxQ)
	if err != nil {
		t.Fatal(err)
	}
	first := ups[0]
	if first.Seq != 0 || first.Wave != 0 || first.Final {
		t.Fatalf("first update seq=%d wave=%d final=%v", first.Seq, first.Wave, first.Final)
	}
	if len(first.Matches) != len(approx.Matches) {
		t.Fatalf("first update has %d matches, approx Find %d", len(first.Matches), len(approx.Matches))
	}
	for i := range first.Matches {
		sameMatch(t, "first update vs approx Find", approx.Matches[i], first.Matches[i])
	}
	// The stats pin the emission point: exactly the work of an
	// approx-mode Find, i.e. no exact refinement wave has run yet.
	if first.Stats.Groups != approx.Stats.Groups ||
		first.Stats.GroupsRefined != approx.Stats.GroupsRefined ||
		first.Stats.Candidates != approx.Stats.Candidates {
		t.Fatalf("first update stats %+v != approx Find stats %+v",
			first.Stats, approx.Stats)
	}
	if first.GroupsRemaining == 0 {
		t.Fatalf("first update claims the walk already finished")
	}

	// Final update: identical to the one-shot exact Find.
	exactQ := q
	exactQ.Mode = ModeExact
	exact, err := db.Find(ctx, exactQ)
	if err != nil {
		t.Fatal(err)
	}
	last := ups[len(ups)-1]
	if !last.Final || last.GroupsRemaining != 0 {
		t.Fatalf("last update final=%v remaining=%d", last.Final, last.GroupsRemaining)
	}
	if len(last.Matches) != len(exact.Matches) {
		t.Fatalf("final update has %d matches, exact Find %d", len(last.Matches), len(exact.Matches))
	}
	for i := range last.Matches {
		sameMatch(t, "final update vs exact Find", exact.Matches[i], last.Matches[i])
		if len(last.Matches[i].Path) == 0 || len(last.Matches[i].Path) != len(exact.Matches[i].Path) {
			t.Fatalf("final update match %d path missing or diverged", i)
		}
	}
	if !reflect.DeepEqual(last.Query, exact.Query) {
		t.Fatalf("final update query %+v != Find query %+v", last.Query, exact.Query)
	}
	wantStats, gotStats := exact.Stats, last.Stats
	// Wall time varies run to run; everything else must match exactly.
	wantStats.WallMicros, gotStats.WallMicros = 0, 0
	if gotStats != wantStats {
		t.Fatalf("final update stats %+v != exact Find stats %+v", gotStats, wantStats)
	}
	for i, c := range last.Certified {
		if !c {
			t.Fatalf("final update match %d not certified", i)
		}
	}

	// Refinement invariants across the stream.
	for i, u := range ups {
		if u.Seq != i {
			t.Fatalf("update %d has seq %d", i, u.Seq)
		}
		if len(u.Certified) != len(u.Matches) {
			t.Fatalf("update %d: %d flags for %d matches", i, len(u.Certified), len(u.Matches))
		}
		if !reflect.DeepEqual(u.Query, last.Query) {
			t.Fatalf("update %d echoes a different query", i)
		}
		if u.Query.Mode != ModeExact {
			t.Fatalf("resolved mode %q, want exact", u.Query.Mode)
		}
		if i > 0 && u.GroupsRemaining > ups[i-1].GroupsRemaining {
			t.Fatalf("update %d remaining grew", i)
		}
	}
}

// TestStreamWaitEqualsFind pins the "drain the stream, return the last
// update" spelling: Stream+Wait and exact-mode Find are the same call.
func TestStreamWaitEqualsFind(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	ctx := context.Background()
	q := Query{Values: raw[0:8], K: 3}
	x, err := db.Stream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := x.Wait()
	if err != nil {
		t.Fatal(err)
	}
	exactQ := q
	exactQ.Mode = ModeExact
	oneShot, err := db.Find(ctx, exactQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Matches) != len(oneShot.Matches) {
		t.Fatalf("%d streamed matches != %d", len(streamed.Matches), len(oneShot.Matches))
	}
	for i := range streamed.Matches {
		sameMatch(t, "Wait vs Find", oneShot.Matches[i], streamed.Matches[i])
	}
	if !reflect.DeepEqual(streamed.Query, oneShot.Query) {
		t.Fatalf("query echo diverged")
	}
}

// TestStreamValidation pins the synchronous error contract.
func TestStreamValidation(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	ctx := context.Background()
	for name, q := range map[string]Query{
		"range":          {Values: raw[0:8], MaxDist: 0.2},
		"empty":          {},
		"unknown series": {Window: Window{Series: "nope", Start: 0, Length: 8}},
		"both inputs":    {Values: raw[0:8], Window: Window{Series: "MA", Start: 0, Length: 8}},
	} {
		if _, err := db.Stream(ctx, q); err == nil {
			t.Fatalf("%s: Stream accepted an invalid query", name)
		}
	}
}

// TestStreamCancellation covers the mid-stream cancellation contract:
// cancelling the context (or Close-ing the exploration) after the first
// update stops the core walk within one pruning round, the stream closes,
// Err reports the cancellation, and no goroutines leak.
func TestStreamCancellation(t *testing.T) {
	db := openWalks(t)
	raw, err := db.SeriesValues("walk-001")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	// Cancel via context after the first update.
	ctx, cancel := context.WithCancel(context.Background())
	x, err := db.Stream(ctx, Query{Values: raw[0:16], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	first, ok := <-x.Updates()
	if !ok || first.Seq != 0 {
		t.Fatalf("no first update before cancel")
	}
	cancel()
	deadline := time.After(5 * time.Second)
	drained := make(chan []Update, 1)
	go func() {
		var rest []Update
		for u := range x.Updates() {
			rest = append(rest, u)
		}
		drained <- rest
	}()
	select {
	case rest := <-drained:
		// The walk may finish one in-flight wave, no more.
		if len(rest) > 2 {
			t.Fatalf("%d updates after cancellation", len(rest))
		}
		for _, u := range rest {
			if u.Final {
				t.Fatalf("cancelled stream still delivered a final update")
			}
		}
	case <-deadline:
		t.Fatalf("stream did not close within 5s of cancellation")
	}
	if err := x.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	cancel()

	// Abandon via Close without reading anything further.
	x2, err := db.Stream(context.Background(), Query{Values: raw[4:20], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	<-x2.Updates()
	x2.Close()
	if err := x2.Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("after Close, Err = %v", err)
	}
	assertNoGoroutineLeak(t, "after cancelled streams", baseline)
}

// TestStreamStallBound pins the abandoned-consumer safety valve: a
// consumer that stops taking updates (without Close or cancel) must not
// pin the DB read lock forever. The walk aborts after the stall bound,
// Err reports ErrStreamStalled, and a writer (AddSeries) plus later
// queries proceed.
func TestStreamStallBound(t *testing.T) {
	old := streamStallTimeout
	streamStallTimeout = 50 * time.Millisecond
	defer func() { streamStallTimeout = old }()

	db := openWalks(t)
	raw, err := db.SeriesValues("walk-000")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	x, err := db.Stream(context.Background(), Query{Values: raw[0:16], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Take the first update, then abandon the stream without Close: the
	// walk is now blocked sending the next one.
	<-x.Updates()

	// A writer queued behind the pinned read lock must get through once
	// the stall bound fires.
	writerDone := make(chan error, 1)
	go func() { writerDone <- db.AddSeries("late-writer", raw) }()
	select {
	case err := <-writerDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AddSeries still blocked 5s after the stall bound")
	}

	// The stream closed with the stall error.
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-x.Updates():
			open = ok
		case <-deadline:
			t.Fatal("stalled stream never closed")
		}
	}
	if err := x.Err(); !errors.Is(err, ErrStreamStalled) {
		t.Fatalf("Err = %v, want ErrStreamStalled", err)
	}
	// And the DB is fully usable afterwards.
	if _, err := db.Find(context.Background(), Query{Values: raw[0:16], K: 2}); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeak(t, "after stalled stream", baseline)

	// A stall on the terminating snapshot — after which the walk has no
	// ctx poll left to abort on — must still surface as ErrStreamStalled,
	// not as a clean end with no final update. The query must leave the
	// exact walk at least one wave to refine after the approximate phase.
	x2, err := db.Stream(context.Background(), Query{Values: raw[40:56], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for u := range x2.Updates() {
		if u.GroupsRemaining == 0 && !u.Final {
			break // the final snapshot is next; abandon the stream here
		}
		if u.Final {
			t.Fatal("walk finished without a last-wave update; test setup too small")
		}
	}
	// Outwait the stall bound before touching the stream again, so the
	// producer's pending send is abandoned rather than taken by the drain.
	time.Sleep(10 * streamStallTimeout)
	for u := range x2.Updates() {
		if u.Final {
			t.Fatal("final update delivered after the consumer stalled")
		}
	}
	if err := x2.Err(); !errors.Is(err, ErrStreamStalled) {
		t.Fatalf("stall on final snapshot: Err = %v, want ErrStreamStalled", err)
	}
	assertNoGoroutineLeak(t, "after final-snapshot stall", baseline)
}

// TestStreamPreCancelled: a context cancelled before Stream is called
// still returns a usable exploration whose stream closes immediately.
func TestStreamPreCancelled(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, err := db.Stream(ctx, Query{Values: raw[0:8], K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ups := drain(t, x); len(ups) != 0 {
		t.Fatalf("pre-cancelled stream delivered %d updates", len(ups))
	}
	if err := x.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	assertNoGoroutineLeak(t, "after pre-cancelled stream", baseline)
}

// BenchmarkStream measures the streaming pipeline against the one-shot
// exact Find it must stay within noise of, and reports first-update
// latency — the interactivity headline — as its own sub-benchmark.
func BenchmarkStream(b *testing.B) {
	db := openWalks(b)
	raw, err := db.SeriesValues("walk-000")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Values: raw[0:16], K: 3}

	b.Run("find-exact", func(b *testing.B) {
		fq := q
		fq.Mode = ModeExact
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Find(ctx, fq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-drain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x, err := db.Stream(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := x.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("first-update", func(b *testing.B) {
		b.ReportAllocs()
		var firstTotal time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			x, err := db.Stream(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := <-x.Updates(); !ok {
				b.Fatal("stream closed before the first update")
			}
			firstTotal += time.Since(start)
			x.Close()
		}
		b.ReportMetric(float64(firstTotal.Microseconds())/float64(b.N), "first-µs/op")
	})
}
