package onex

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
)

// openWalks opens a base with hundreds of groups across many lengths.
func openWalks(t testing.TB) *DB {
	t.Helper()
	d := gen.RandomWalks(gen.WalkOptions{Num: 8, Length: 96, Seed: 11})
	db, err := Open(d, Config{ST: 0.12, MinLength: 8, MaxLength: 20, Band: -1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFindWorkersEquivalencePublic pins the public determinism contract:
// repeated Find calls return identical matches in identical order, the
// identical resolved query and identical QueryStats (wall time aside), in
// exact and approx modes and for range queries. The deprecated Workers
// field is ignored: any value, negative included, answers the same and is
// never echoed.
func TestFindWorkersEquivalencePublic(t *testing.T) {
	db := openWalks(t)
	raw, err := db.SeriesValues("walk-000")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, q := range map[string]Query{
		"approx":      {Values: raw[0:16], K: 5},
		"exact":       {Values: raw[10:26], K: 5, Mode: ModeExact},
		"range":       {Values: raw[0:16], MaxDist: 0.1},
		"constrained": {Window: Window{Series: "walk-000", Start: 0, Length: 16}, K: 4, Exclude: Exclude{Series: []string{"walk-000"}}},
	} {
		first, err := db.Find(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		first.Stats.WallMicros = 0
		for _, workers := range []int{0, 4, -2} {
			rq := q
			rq.Workers = workers
			again, err := db.Find(ctx, rq)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if len(again.Matches) != len(first.Matches) {
				t.Fatalf("%s workers=%d: %d matches != %d", name, workers, len(again.Matches), len(first.Matches))
			}
			for i := range again.Matches {
				sameMatch(t, fmt.Sprintf("%s workers=%d match %d", name, workers, i),
					first.Matches[i], again.Matches[i])
			}
			again.Stats.WallMicros = 0
			if again.Stats != first.Stats {
				t.Fatalf("%s workers=%d: stats drifted: %+v != %+v", name, workers, again.Stats, first.Stats)
			}
			if again.Query.Workers != 0 || fmt.Sprint(again.Query) != fmt.Sprint(first.Query) {
				t.Fatalf("%s workers=%d: echo %+v != %+v", name, workers, again.Query, first.Query)
			}
		}
	}
}

// TestAnalyzeDeterministicPublic does the same for the heavy analytics
// walks (seasonal mining, common patterns and the certified sweep).
func TestAnalyzeDeterministicPublic(t *testing.T) {
	db := openWalks(t)
	raw, err := db.SeriesValues("walk-001")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, a := range map[string]Analysis{
		"seasonal": {Kind: AnalysisSeasonal, Series: "walk-001"},
		"common":   {Kind: AnalysisCommonPatterns},
		"sweep":    {Kind: AnalysisSimilaritySweep, Values: raw[0:16], Thresholds: []float64{0.02, 0.05, 0.1}},
	} {
		first, err := db.Analyze(ctx, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		first.Stats.WallMicros = 0
		for run := 1; run < 3; run++ {
			again, err := db.Analyze(ctx, a)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if fmt.Sprintf("%v%v%v", again.Patterns, again.Common, again.Sweep) !=
				fmt.Sprintf("%v%v%v", first.Patterns, first.Common, first.Sweep) {
				t.Fatalf("%s run %d: payload diverged", name, run)
			}
			again.Stats.WallMicros = 0
			if again.Stats != first.Stats {
				t.Fatalf("%s run %d: stats drifted: %+v != %+v", name, run, again.Stats, first.Stats)
			}
		}
	}
}

// TestAddSeriesRacingParallelQueries drives concurrent queries, analytics
// walks, and mid-flight cancellations against AddSeries on one DB; run
// with -race to make it meaningful.
func TestAddSeriesRacingParallelQueries(t *testing.T) {
	db := openWalks(t)
	raw, err := db.SeriesValues("walk-002")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%3 == 2 {
					go cancel() // race a cancellation against the scan
				}
				_, err := db.Find(ctx, Query{Values: raw[0:16], K: 4})
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					errs <- err
					return
				}
				if _, err := db.Analyze(context.Background(), Analysis{
					Kind: AnalysisSeasonal, Series: "walk-003",
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			vals := make([]float64, len(raw))
			for j, v := range raw {
				vals[j] = v + 0.001*float64(i+1)
			}
			if err := db.AddSeries(fmt.Sprintf("clone-%d", i), vals); err != nil {
				errs <- fmt.Errorf("AddSeries: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := db.Stats().Series, 8+3; got != want {
		t.Fatalf("series after concurrent adds = %d, want %d", got, want)
	}
}
