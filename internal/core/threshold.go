package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// Recommendation is one data-driven similarity-threshold suggestion
// (paper §3.3: "Threshold recommendations help analysts to select
// appropriate parameter settings in a data-driven fashion").
type Recommendation struct {
	// ST is the suggested per-point similarity threshold in the dataset's
	// units (see grouping.Options.ST: the absolute threshold for length l
	// is ST*l).
	ST float64
	// Percentile is the pairwise-ED percentile ST was drawn from (0-1).
	Percentile float64
	// EstGroups and EstCompaction describe the base a build at this ST
	// would produce at the probe length (measured on a trial clustering).
	EstGroups     int
	EstCompaction float64
	// Label is a human-readable intent ("tight", "balanced", "loose").
	Label string
}

// ThresholdOptions configures RecommendThresholds.
type ThresholdOptions struct {
	// ProbeLength is the subsequence length sampled; 0 picks ~1/4 of the
	// shortest series (clamped to [2, shortest]).
	ProbeLength int
	// SamplePairs bounds the number of subsequence pairs sampled for the
	// distance distribution (default 2000).
	SamplePairs int
	// Seed makes sampling deterministic (0 means a fixed default).
	Seed int64
}

// defaultPercentiles are the distribution points offered to the analyst:
// demographic-scale data wants looser thresholds than growth-rate-scale
// data, and surfacing the spread lets the analyst pick per domain.
var defaultPercentiles = []struct {
	q     float64
	label string
}{
	{0.01, "tight"},
	{0.05, "balanced"},
	{0.15, "loose"},
}

// SampleDistancesContext draws the pairwise subsequence-ED sample that
// threshold recommendation is based on, normalized per point (divided by
// the probe length) and sorted ascending. Exposed so front ends can draw
// the distribution behind the recommended cut points. The probe length
// actually used is returned alongside. The context is checked once per
// series during window enumeration and every ctxCheckStride sampled pairs,
// so a cancelled sample aborts promptly with ctx.Err().
func SampleDistancesContext(ctx context.Context, d *ts.Dataset, opts ThresholdOptions) ([]float64, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := d.Pin()
	if err != nil {
		return nil, 0, fmt.Errorf("core: SampleDistances: %w", err)
	}
	defer release()
	if err := d.Validate(); err != nil {
		return nil, 0, fmt.Errorf("core: SampleDistances: %w", err)
	}
	probe := opts.ProbeLength
	shortest := d.MinLen()
	if probe <= 0 {
		probe = shortest / 4
	}
	if probe < 2 {
		probe = 2
	}
	if probe > shortest {
		probe = shortest
	}
	samplePairs := opts.SamplePairs
	if samplePairs <= 0 {
		samplePairs = 2000
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 424242
	}
	rng := rand.New(rand.NewSource(seed))

	// Enumerate all windows of the probe length (references only).
	var windows []ts.SubSeq
	for si, s := range d.Series {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		for st := 0; st+probe <= s.Len(); st++ {
			windows = append(windows, ts.SubSeq{Series: si, Start: st, Length: probe})
		}
	}
	if len(windows) < 2 {
		return nil, 0, fmt.Errorf("core: SampleDistances: not enough windows of length %d", probe)
	}
	dists := make([]float64, 0, samplePairs)
	for i := 0; i < samplePairs; i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		a := windows[rng.Intn(len(windows))]
		b := windows[rng.Intn(len(windows))]
		if a == b {
			continue
		}
		dists = append(dists, dist.ED(a.Values(d), b.Values(d))/float64(probe))
	}
	if len(dists) == 0 {
		return nil, 0, fmt.Errorf("core: SampleDistances: sampling produced no distances")
	}
	sort.Float64s(dists)
	return dists, probe, nil
}

// RecommendThresholds samples the dataset's pairwise subsequence-ED
// distribution at a probe length and returns candidate STs at fixed low
// percentiles, each annotated with the group count a trial clustering at
// that ST produces. The "balanced" entry is a sensible default ST.
func RecommendThresholds(d *ts.Dataset, opts ThresholdOptions) ([]Recommendation, error) {
	return RecommendThresholdsContext(context.Background(), d, opts)
}

// RecommendThresholdsContext is RecommendThresholds with cancellation: the
// context is threaded through the distance sampling and re-checked between
// the per-percentile trial clusterings (the dominant cost), so a cancelled
// recommendation aborts between rounds with ctx.Err().
func RecommendThresholdsContext(ctx context.Context, d *ts.Dataset, opts ThresholdOptions) ([]Recommendation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dists, probe, err := SampleDistancesContext(ctx, d, opts)
	if err != nil {
		return nil, fmt.Errorf("core: RecommendThresholds: %w", err)
	}
	return RecommendFromSampleContext(ctx, d, dists, probe)
}

// RecommendFromSampleContext derives the recommendations from an
// already-drawn SampleDistancesContext sample (sorted ascending, normalized
// per point, measured at probe), so callers needing both the distribution
// and the recommendations pay the sampling pass only once.
func RecommendFromSampleContext(ctx context.Context, d *ts.Dataset, dists []float64, probe int) ([]Recommendation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	recs := make([]Recommendation, 0, len(defaultPercentiles))
	for _, p := range defaultPercentiles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// SampleDistancesContext already normalizes per point, so quantiles are
		// directly the per-point thresholds the grouping layer expects.
		st := quantileSorted(dists, p.q)
		if st <= 0 {
			// Degenerate distributions (many identical windows): nudge to
			// the smallest positive distance, or a tiny epsilon.
			st = smallestPositive(dists)
		}
		rec := Recommendation{ST: st, Percentile: p.q, Label: p.label}
		// Trial clustering at the probe length only: cheap, and the group
		// count is the statistic the analyst is choosing between.
		if trial, err := grouping.Build(d, grouping.Options{
			ST:        st,
			MinLength: probe,
			MaxLength: probe,
		}); err == nil {
			rec.EstGroups = trial.NumGroups()
			rec.EstCompaction = trial.CompactionRatio()
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func smallestPositive(sorted []float64) float64 {
	for _, v := range sorted {
		if v > 0 {
			return v
		}
	}
	return 1e-9
}
