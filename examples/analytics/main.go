// Analytics: the exploration scenarios through the one unified entry
// point.
//
// Group overview, drill-down, per-length stats, seasonal and cross-series
// pattern mining, threshold sweeps and recommendations are each one
// onex.Analysis with different fields set, executed by db.Analyze. Like Find, Analyze echoes
// the resolved request and reports per-call walk statistics, and a
// cancelled context aborts the walk mid-mine.
//
//	go run ./examples/analytics
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/onex"
)

func main() {
	// 3 households x 60 days of synthetic electricity load, 12 samples per
	// day, so daily habits recur every 12 points.
	data := gen.ElectricityLoad(gen.ElectricityOptions{Households: 3, Days: 60, SamplesPerDay: 12})
	db, err := onex.Open(data, onex.Config{MinLength: 6, MaxLength: 14})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("ONEX base ready: %d series, %d subsequences -> %d groups\n\n",
		st.Series, st.Subsequences, st.Groups)
	ctx := context.Background()

	// Scenario 1 — overview: the data's dominant shapes. Length 0
	// auto-selects the most populated length; the resolved request reports
	// which one that was.
	res, err := db.Analyze(ctx, onex.Analysis{Kind: onex.AnalysisOverview, K: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top groups at auto-selected length %d:\n", res.Request.Length)
	for i, g := range res.Groups {
		fmt.Printf("  #%d count=%d\n", i+1, g.Count)
	}
	fmt.Printf("  (visited %d groups / %d members in %.2f ms)\n\n",
		res.Stats.Groups, res.Stats.Candidates, float64(res.Stats.WallMicros)/1000)

	// Scenario 2 — drill-down: the members of the biggest group, nearest
	// the representative first, addressed by the overview's Length and
	// Index. Same request type, different Kind.
	res, err = db.Analyze(ctx, onex.Analysis{
		Kind:   onex.AnalysisGroupMembers,
		Length: res.Groups[0].Length,
		Index:  res.Groups[0].Index,
	})
	if err != nil {
		log.Fatal(err)
	}
	show := min(len(res.Members), 3)
	fmt.Printf("group drill-down (%d members, first %d):\n", len(res.Members), show)
	for _, m := range res.Members[:show] {
		fmt.Printf("  %s[%d:%d)  repED=%.4f\n", m.Series, m.Start, m.Start+m.Length, m.RepED)
	}
	fmt.Println()

	// Scenario 3 — seasonal mining: does household-00 repeat a daily
	// shape? Bound the motif length to one day.
	res, err = db.Analyze(ctx, onex.Analysis{
		Kind:           onex.AnalysisSeasonal,
		Series:         "household-00",
		Lengths:        onex.Lengths{Min: 12, Max: 12},
		MinOccurrences: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seasonal patterns in household-00 (length 12):\n")
	for i, p := range res.Patterns {
		if i >= 2 {
			break
		}
		fmt.Printf("  #%d occurrences=%d mean_gap=%.1f (planted period is 12)\n",
			i+1, p.Occurrences, p.MeanGap)
	}
	fmt.Println()

	// Scenario 4 — cross-series patterns: shapes all three households
	// share (everyone's evening peak looks alike).
	res, err = db.Analyze(ctx, onex.Analysis{Kind: onex.AnalysisCommonPatterns, MinSeries: 3, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shapes shared by all %d households: %d\n\n", data.Len(), len(res.Common))

	// Scenario 5 — threshold sweep: how fast does the match population
	// around one morning grow as the distance budget loosens? One
	// certified range pass answers every threshold at once.
	res, err = db.Analyze(ctx, onex.Analysis{
		Kind:       onex.AnalysisSimilaritySweep,
		Window:     onex.Window{Series: "household-00", Start: 0, Length: 12},
		Thresholds: []float64{0.02, 0.05, 0.1, 0.2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("match population vs distance budget (one pass):")
	for _, p := range res.Sweep {
		fmt.Printf("  within %.2f: %d matches\n", p.MaxDist, p.Matches)
	}
	fmt.Printf("  (%d DTWs for the whole sweep)\n\n", res.Stats.DTWs)

	// Scenario 6 — threshold recommendation: the data-driven ST menu plus
	// the distance sample behind it, ready for a histogram.
	res, err = db.Analyze(ctx, onex.Analysis{Kind: onex.AnalysisThresholds})
	if err != nil {
		log.Fatal(err)
	}
	t := res.Thresholds
	fmt.Printf("threshold menu (from %d sampled pairs at probe length %d):\n",
		len(t.Sample), t.ProbeLength)
	for _, r := range t.Recommendations {
		fmt.Printf("  %-9s ST=%.4f\n", r.Label, r.ST)
	}
}
