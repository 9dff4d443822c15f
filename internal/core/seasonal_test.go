package core

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// plantedWorld builds a dataset whose first series repeats a motif with a
// known period, plus distractor series.
func plantedWorld(t testing.TB, period, repeats, motifLen int) (*ts.Dataset, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	total := period * repeats
	vals := make([]float64, total)
	for i := range vals {
		vals[i] = 0.5 + rng.NormFloat64()*0.01
	}
	// Plant a sharp triangular motif at the start of every period.
	for r := 0; r < repeats; r++ {
		base := r * period
		for j := 0; j < motifLen && base+j < total; j++ {
			tri := 1 - math.Abs(float64(j)-float64(motifLen)/2)/(float64(motifLen)/2)
			vals[base+j] = 0.5 + 0.4*tri
		}
	}
	d := ts.NewDataset("seasonal")
	d.MustAdd(ts.NewSeries("household", vals))
	for i := 0; i < 2; i++ {
		dn := make([]float64, total)
		v := 0.2
		for j := range dn {
			v += rng.NormFloat64() * 0.05
			dn[j] = v
		}
		d.MustAdd(ts.NewSeries("distractor"+strconv.Itoa(i), dn))
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.04, MinLength: motifLen, MaxLength: motifLen})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{Band: -1, Mode: ModeApprox})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

// seasonal runs one seasonal mine over the named series.
func seasonal(e *Engine, series string, opts SeasonalOptions) ([]Pattern, error) {
	return e.SeasonalContext(context.Background(), series, opts, nil)
}

func TestSeasonalFindsPlantedMotif(t *testing.T) {
	const period, repeats, motifLen = 20, 6, 8
	d, e := plantedWorld(t, period, repeats, motifLen)
	pats, err := seasonal(e, "household", SeasonalOptions{MinOccurrences: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) == 0 {
		t.Fatal("no seasonal patterns found")
	}
	// The top pattern should recur ~`repeats` times with gap ~= period.
	best := pats[0]
	if best.Count() < repeats-1 {
		t.Fatalf("top pattern count = %d, want >= %d", best.Count(), repeats-1)
	}
	// At least one reported pattern must align with the planted period.
	foundPeriodic := false
	for _, p := range pats {
		if p.Count() >= repeats-1 && math.Abs(p.MeanGap-period) <= 2 {
			foundPeriodic = true
			break
		}
	}
	if !foundPeriodic {
		gaps := make([]float64, 0, len(pats))
		for _, p := range pats {
			gaps = append(gaps, p.MeanGap)
		}
		t.Fatalf("no pattern matched planted period %d; gaps = %v", period, gaps)
	}
	// Structural invariants on every pattern.
	for _, p := range pats {
		if p.SeriesIndex != 0 {
			t.Fatal("pattern from wrong series")
		}
		for i, o := range p.Occurrences {
			if err := o.Validate(d); err != nil {
				t.Fatal(err)
			}
			if o.Series != p.SeriesIndex || o.Length != p.Length {
				t.Fatalf("occurrence %v inconsistent with pattern", o)
			}
			if i > 0 {
				if p.Occurrences[i-1].End() > o.Start {
					t.Fatal("occurrences overlap")
				}
			}
		}
		// Mutual similarity: all occurrences within the absolute threshold
		// ST*l of each other (via the group invariant).
		for i := 0; i < len(p.Occurrences); i++ {
			for j := i + 1; j < len(p.Occurrences); j++ {
				dd := dist.ED(p.Occurrences[i].Values(d), p.Occurrences[j].Values(d))
				if dd > 2*e.Base().HalfST(p.Length)+1e-9 {
					t.Fatalf("occurrences %d,%d differ by %g > ST*l", i, j, dd)
				}
			}
		}
	}
}

func TestSeasonalErrors(t *testing.T) {
	_, e := plantedWorld(t, 20, 4, 8)
	if _, err := seasonal(e, "ghost", SeasonalOptions{}); err == nil {
		t.Fatal("unknown series accepted")
	}
	if _, err := e.SeasonalByIndexContext(context.Background(), -1, SeasonalOptions{}, nil); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := e.SeasonalByIndexContext(context.Background(), 99, SeasonalOptions{}, nil); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestSeasonalRespectsOptions(t *testing.T) {
	_, e := plantedWorld(t, 20, 6, 8)
	pats, err := seasonal(e, "household", SeasonalOptions{MinOccurrences: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 0 {
		t.Fatal("impossible MinOccurrences returned patterns")
	}
	one, err := seasonal(e, "household", SeasonalOptions{MaxPatterns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) > 1 {
		t.Fatalf("MaxPatterns not honored: %d", len(one))
	}
}

func TestSeasonalDedup(t *testing.T) {
	// Build a world indexing two lengths so sub-window duplicates arise.
	const period, repeats, motifLen = 24, 6, 10
	rng := rand.New(rand.NewSource(12))
	total := period * repeats
	vals := make([]float64, total)
	for i := range vals {
		vals[i] = 0.5 + rng.NormFloat64()*0.01
	}
	for r := 0; r < repeats; r++ {
		base := r * period
		for j := 0; j < motifLen && base+j < total; j++ {
			tri := 1 - math.Abs(float64(j)-float64(motifLen)/2)/(float64(motifLen)/2)
			vals[base+j] = 0.5 + 0.4*tri
		}
	}
	d := ts.NewDataset("dedup")
	d.MustAdd(ts.NewSeries("x", vals))
	b, err := grouping.Build(d, grouping.Options{ST: 0.04, MinLength: motifLen - 2, MaxLength: motifLen})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{Band: -1, Mode: ModeApprox})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := seasonal(e, "x", SeasonalOptions{MinOccurrences: 3, MaxPatterns: 32})
	if err != nil {
		t.Fatal(err)
	}
	deduped, err := seasonal(e, "x", SeasonalOptions{MinOccurrences: 3, MaxPatterns: 32, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(deduped) > len(raw) {
		t.Fatalf("dedup grew the list: %d > %d", len(deduped), len(raw))
	}
	if len(deduped) == 0 {
		t.Fatal("dedup removed everything")
	}
	// The surviving top pattern still captures the planted motif.
	if deduped[0].Count() < repeats-1 {
		t.Fatalf("top deduped pattern count = %d", deduped[0].Count())
	}
	// No kept pattern is 80%-covered by a longer kept one.
	for i, p := range deduped {
		for _, q := range deduped[:i] {
			if q.Length <= p.Length {
				continue
			}
			covered := 0
			for _, po := range p.Occurrences {
				for _, qo := range q.Occurrences {
					if po.Overlaps(qo) {
						covered++
						break
					}
				}
			}
			if float64(covered) >= 0.8*float64(len(p.Occurrences)) {
				t.Fatalf("kept pattern %d is subsumed by an earlier longer one", i)
			}
		}
	}
}

func TestSelectNonOverlapping(t *testing.T) {
	ms := []ts.SubSeq{
		{Series: 0, Start: 5, Length: 4},
		{Series: 0, Start: 0, Length: 4},
		{Series: 0, Start: 2, Length: 4},
		{Series: 0, Start: 9, Length: 4},
	}
	out := selectNonOverlapping(ms)
	if len(out) != 3 {
		t.Fatalf("selected %d, want 3 (starts 0,5,9)", len(out))
	}
	if out[0].Start != 0 || out[1].Start != 5 || out[2].Start != 9 {
		t.Fatalf("selection = %+v", out)
	}
}

func TestMeanGap(t *testing.T) {
	occ := []ts.SubSeq{{Start: 0, Length: 2}, {Start: 10, Length: 2}, {Start: 18, Length: 2}}
	if g := meanGap(occ); !almost(g, 9, 1e-12) {
		t.Fatalf("meanGap = %g, want 9", g)
	}
	if meanGap(occ[:1]) != 0 {
		t.Fatal("single occurrence gap should be 0")
	}
}
