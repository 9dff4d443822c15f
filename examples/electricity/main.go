// Electricity walkthrough: reproduces the demo paper's §4 power-usage
// session and regenerates Figure 4 as an SVG.
//
// The session: load a household's year of electricity consumption, run a
// seasonal similarity query at the daily window length, and render the
// seasonal view — the full series in grey with the recurring pattern's
// occurrences overdrawn in alternating blue and green.
//
//	go run ./examples/electricity    # writes out/fig4_seasonal.svg
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/viz"
	"repro/onex"
)

func main() {
	outDir := "out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	// A year of household consumption at 12 samples/day: long enough for
	// seasonal structure, small enough for an interactive build.
	const samplesPerDay = 12
	data := gen.ElectricityLoad(gen.ElectricityOptions{
		Households:    3,
		Days:          120,
		SamplesPerDay: samplesPerDay,
	})
	db, err := onex.Open(data, onex.Config{
		MinLength: samplesPerDay,
		MaxLength: 2 * samplesPerDay,
		Band:      2,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("ElectricityLoad loaded: %d subsequences -> %d groups (%.1fx) in %d ms\n",
		st.Subsequences, st.Groups, st.CompactionRatio, st.BuildMillis)

	const household = "household-00"
	res, err := db.Analyze(context.Background(), onex.Analysis{
		Kind:           onex.AnalysisSeasonal,
		Series:         household,
		Lengths:        onex.Lengths{Min: samplesPerDay, Max: samplesPerDay},
		MinOccurrences: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	pats := res.Patterns
	if len(pats) == 0 {
		log.Fatal("no repeating pattern found — unexpected for daily-cycle data")
	}
	fmt.Printf("top patterns in %s:\n", household)
	for i, p := range pats {
		if i >= 3 {
			break
		}
		fmt.Printf("  #%d length=%d occurrences=%d mean_gap=%.1f samples (%.2f days)\n",
			i+1, p.Length, p.Occurrences, p.MeanGap, p.MeanGap/samplesPerDay)
	}

	best := pats[0]
	vals, err := db.SeriesValues(household)
	if err != nil {
		log.Fatal(err)
	}
	segs := make([]viz.SeasonalSegment, 0, len(best.Starts))
	for _, s := range best.Starts {
		segs = append(segs, viz.SeasonalSegment{Start: s, Length: best.Length})
	}
	svg := viz.SeasonalView(
		fmt.Sprintf("Seasonal view — %s: %d occurrences of a %d-sample pattern (gap %.1f days)",
			household, best.Occurrences, best.Length, best.MeanGap/samplesPerDay),
		vals, segs, 900, 280)
	path := filepath.Join(outDir, "fig4_seasonal.svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)
}
