package core

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// commonWorld plants one shape into several series and adds distractors.
func commonWorld(t testing.TB, sharers, distractors, length, motifLen int) (*ts.Dataset, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	d := ts.NewDataset("common")
	motif := make([]float64, motifLen)
	for j := range motif {
		motif[j] = 0.5 + 0.4*float64(j%2) // square-ish wave, distinctive
	}
	for i := 0; i < sharers; i++ {
		vals := make([]float64, length)
		for j := range vals {
			vals[j] = 0.2 + rng.NormFloat64()*0.01
		}
		at := 2 + i // slightly different positions
		for j := 0; j < motifLen; j++ {
			vals[at+j] = motif[j] + rng.NormFloat64()*0.01
		}
		d.MustAdd(ts.NewSeries("sharer"+strconv.Itoa(i), vals))
	}
	for i := 0; i < distractors; i++ {
		vals := make([]float64, length)
		v := 0.8
		for j := range vals {
			v += rng.NormFloat64() * 0.05
			vals[j] = v
		}
		d.MustAdd(ts.NewSeries("noise"+strconv.Itoa(i), vals))
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.06, MinLength: motifLen, MaxLength: motifLen})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{Band: -1, Mode: ModeApprox})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

// common runs one common-patterns mine.
func common(t *testing.T, e *Engine, opts CommonOptions) []CommonPattern {
	t.Helper()
	pats, err := e.CommonPatternsContext(context.Background(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pats
}

func TestCommonPatternsFindsSharedShape(t *testing.T) {
	const sharers, motifLen = 4, 6
	d, e := commonWorld(t, sharers, 3, 24, motifLen)
	pats := common(t, e, CommonOptions{MinSeries: 3})
	if len(pats) == 0 {
		t.Fatal("no common patterns found")
	}
	top := pats[0]
	if top.SeriesCount < sharers {
		t.Fatalf("top pattern spans %d series, want >= %d", top.SeriesCount, sharers)
	}
	// One exemplar per series, sorted, valid, and genuinely close to the
	// shared representative.
	seen := map[int]bool{}
	for i, o := range top.Occurrences {
		if err := o.Validate(d); err != nil {
			t.Fatal(err)
		}
		if seen[o.Series] {
			t.Fatal("duplicate series in occurrences")
		}
		seen[o.Series] = true
		if i > 0 && top.Occurrences[i-1].Series > o.Series {
			t.Fatal("occurrences not sorted by series")
		}
		if dd := dist.ED(o.Values(d), top.Rep); dd > e.Base().HalfST(top.Length)+1e-9 {
			t.Fatalf("exemplar %d beyond invariant radius: %g", i, dd)
		}
	}
	// Ordering: series coverage descending.
	for i := 1; i < len(pats); i++ {
		if pats[i-1].SeriesCount < pats[i].SeriesCount {
			t.Fatal("patterns not ordered by series coverage")
		}
	}
}

func TestCommonPatternsOptions(t *testing.T) {
	_, e := commonWorld(t, 3, 2, 24, 6)
	// MinSeries above the planted coverage filters the motif group out of
	// the (tight-threshold) noise groups too.
	if pats := common(t, e, CommonOptions{MinSeries: 50}); len(pats) != 0 {
		t.Fatalf("impossible MinSeries returned %d patterns", len(pats))
	}
	one := common(t, e, CommonOptions{MaxPatterns: 1})
	if len(one) > 1 {
		t.Fatal("MaxPatterns ignored")
	}
	// Length constraints filter everything when out of range.
	if pats := common(t, e, CommonOptions{MinLength: 99, MaxLength: 100}); len(pats) != 0 {
		t.Fatal("length constraints ignored")
	}
}
