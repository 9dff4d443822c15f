package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// cancelWorld builds a deliberately large base (tens of thousands of
// windows across many lengths) so exact-mode scans have real work to
// abandon.
func cancelWorld(t testing.TB) (*ts.Dataset, *Engine) {
	t.Helper()
	d := gen.RandomWalks(gen.WalkOptions{Num: 10, Length: 128, Seed: 7})
	if err := ts.NormalizeMinMax(d); err != nil {
		t.Fatal(err)
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.15, MinLength: 8, MaxLength: 32})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{Band: -1, Mode: ModeExact, LengthNorm: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

// countingCtx reports cancellation after its Err method has been consulted
// limit times, simulating a context cancelled mid-search at an exact,
// reproducible point. It is not goroutine-safe; every search polls it from
// the caller's goroutine.
type countingCtx struct {
	context.Context
	calls int
	limit int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

func TestFindPreCancelled(t *testing.T) {
	d, e := cancelWorld(t)
	q := d.Series[0].Values[0:24]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fo := range []FindOptions{
		{Options: Options{Band: -1, Mode: ModeApprox, LengthNorm: true}, K: 3},
		{Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true}, K: 3},
		{Options: Options{Band: -1, LengthNorm: true}, Range: true, MaxDist: 0.5},
	} {
		res, err := e.Find(ctx, q, fo)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: err = %v, want context.Canceled", fo, err)
		}
		if len(res.Matches) != 0 {
			t.Fatalf("%+v: cancelled search returned %d matches", fo, len(res.Matches))
		}
	}
}

// TestFindCancelsWithinOneRound flips the context to cancelled after a
// fixed number of Err checks (one check per group, plus one per member
// stride) and asserts the search returns immediately after observing it:
// the deterministic version of "a cancelled exact scan aborts within one
// pruning round".
func TestFindCancelsWithinOneRound(t *testing.T) {
	d, e := cancelWorld(t)
	q := d.Series[0].Values[0:24]
	for _, mode := range []Mode{ModeApprox, ModeExact} {
		ctx := &countingCtx{Context: context.Background(), limit: 10}
		_, err := e.Find(ctx, q, FindOptions{
			Options: Options{Band: -1, Mode: mode, LengthNorm: true}, K: 3,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: err = %v, want context.Canceled", mode, err)
		}
		// The search must stop at the first check past the limit: no
		// further group/member rounds may run once Err flips.
		if ctx.calls != ctx.limit+1 {
			t.Fatalf("mode %v: search ran %d context checks past the cancellation point",
				mode, ctx.calls-ctx.limit-1)
		}
	}
	// Range flavour too.
	ctx := &countingCtx{Context: context.Background(), limit: 10}
	_, err := e.Find(ctx, q, FindOptions{
		Options: Options{Band: -1, LengthNorm: true}, Range: true, MaxDist: 0.5,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("range: err = %v, want context.Canceled", err)
	}
	if ctx.calls != ctx.limit+1 {
		t.Fatalf("range: search ran %d context checks past the cancellation point",
			ctx.calls-ctx.limit-1)
	}
}

// TestAnalyticsPreCancelled verifies every analytics walk observes an
// already-dead context before doing work.
func TestAnalyticsPreCancelled(t *testing.T) {
	d, e := cancelWorld(t)
	q := d.Series[0].Values[0:24]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for label, run := range map[string]func() error{
		"seasonal": func() error {
			_, err := e.SeasonalByIndexContext(ctx, 0, SeasonalOptions{}, nil)
			return err
		},
		"common": func() error {
			_, err := e.CommonPatternsContext(ctx, CommonOptions{}, nil)
			return err
		},
		"sweep": func() error {
			_, err := e.SimilaritySweepContext(ctx, q, []float64{0.5}, QueryConstraints{}, e.Options(), nil)
			return err
		},
		"overview": func() error {
			_, err := e.OverviewContext(ctx, 0, 4, nil)
			return err
		},
		"members": func() error {
			_, err := e.GroupMembersContext(ctx, GroupRef{Length: 8, Index: 0}, nil)
			return err
		},
		"lengths": func() error {
			_, err := e.LengthSummariesContext(ctx, nil)
			return err
		},
		"recommend": func() error {
			_, err := RecommendThresholdsContext(ctx, d, ThresholdOptions{})
			return err
		},
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", label, err)
		}
	}
}

// TestAnalyticsCancelWithinOneRound flips the context to cancelled after a
// fixed number of Err checks and asserts each analytics walk returns
// immediately after observing it — the deterministic version of "a context
// cancelled mid-seasonal-mine or mid-sweep aborts within one pruning
// round". cancelWorld's base is large (tens of thousands of windows), so
// every walk has many rounds left when the cancellation lands.
func TestAnalyticsCancelWithinOneRound(t *testing.T) {
	d, e := cancelWorld(t)
	q := d.Series[0].Values[0:24]
	for label, run := range map[string]func(ctx context.Context) error{
		"seasonal": func(ctx context.Context) error {
			_, err := e.SeasonalByIndexContext(ctx, 0, SeasonalOptions{}, nil)
			return err
		},
		"common": func(ctx context.Context) error {
			_, err := e.CommonPatternsContext(ctx, CommonOptions{}, nil)
			return err
		},
		"sweep": func(ctx context.Context) error {
			_, err := e.SimilaritySweepContext(ctx, q, []float64{0.5}, QueryConstraints{}, e.Options(), nil)
			return err
		},
	} {
		ctx := &countingCtx{Context: context.Background(), limit: 10}
		if err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", label, err)
		}
		// The walk must stop at the first check past the limit: no further
		// group/member rounds may run once Err flips.
		if ctx.calls != ctx.limit+1 {
			t.Fatalf("%s: walk ran %d context checks past the cancellation point",
				label, ctx.calls-ctx.limit-1)
		}
	}
}

// TestSeasonalStatsAccumulate pins the statistics contract on the
// analytics side: a full mine reports the groups and members it visited.
func TestSeasonalStatsAccumulate(t *testing.T) {
	_, e := cancelWorld(t)
	var st SearchStats
	if _, err := e.SeasonalByIndexContext(context.Background(), 0, SeasonalOptions{}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Groups != e.Base().NumGroups() {
		t.Fatalf("seasonal visited %d groups, base has %d", st.Groups, e.Base().NumGroups())
	}
	if st.Members != e.Base().NumSubsequences() {
		t.Fatalf("seasonal visited %d members, base has %d", st.Members, e.Base().NumSubsequences())
	}
}

// TestFindCancelledMidExactScan cancels a real context while a large
// exact-mode scan is in flight and requires the search to return promptly.
func TestFindCancelledMidExactScan(t *testing.T) {
	d, e := cancelWorld(t)
	q := d.Series[0].Values[0:32]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.Find(ctx, q, FindOptions{
			Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true}, K: 5,
		})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// err == nil means the scan legitimately finished before the
		// cancel landed (fast machine); anything else must be ctx.Err().
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exact scan did not return within 5s of cancellation")
	}
}
