// Matters walkthrough: reproduces the demo paper's §4 economic-analytics
// session and regenerates Figures 2 and 3 as SVG files.
//
// The session: load the MATTERS GrowthRate collection; view the overview
// pane of similarity-group representatives (color intensity = cardinality);
// select MA in the query pane; brush the second half of its series to
// focus on recent trends; run a similarity search; view the best match in
// the multiple-lines chart with dotted warped-point connections; then
// switch to the radial chart and connected scatter plot on the
// TechEmployment indicator (the paper's Fig 3 pair).
//
//	go run ./examples/matters        # writes out/fig2_*.svg, out/fig3_*.svg
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/viz"
	"repro/onex"
)

func main() {
	outDir := "out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	// --- Load MATTERS GrowthRate; preprocessing builds the ONEX base.
	growth := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate})
	db, err := onex.Open(growth, onex.Config{MinLength: 4, MaxLength: 12})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("GrowthRate loaded: %d subsequences -> %d groups (%.1fx)\n",
		st.Subsequences, st.Groups, st.CompactionRatio)

	// --- Fig 2, overview pane: group representatives, tint = cardinality.
	ctx := context.Background()
	ov, err := db.Analyze(ctx, onex.Analysis{Kind: onex.AnalysisOverview, Length: 12, K: 12})
	if err != nil {
		log.Fatal(err)
	}
	cells := make([]viz.OverviewCell, len(ov.Groups))
	for i, g := range ov.Groups {
		cells[i] = viz.OverviewCell{Rep: g.Rep, Count: g.Count,
			Label: fmt.Sprintf("n=%d", g.Count)}
	}
	write(outDir, "fig2_overview.svg",
		viz.OverviewGrid("Overview pane — GrowthRate similarity groups (len 12)", cells, 4, 120, 72))

	// --- Fig 2, query selection pane: MA with its 6-year line graph, plus
	//     the scrollable state list as the demo's stacked-lines view.
	maVals, err := db.SeriesValues("MA")
	if err != nil {
		log.Fatal(err)
	}
	write(outDir, "fig2_query_selection.svg",
		viz.LineChart("Query selection — MA growth rate", []viz.NamedSeries{
			{Name: "MA", Values: maVals},
		}, 480, 200))
	var stacked []viz.NamedSeries
	for _, name := range []string{"MA", "CT", "RI", "NH", "VT", "ME"} {
		vals, err := db.SeriesValues(name)
		if err != nil {
			log.Fatal(err)
		}
		stacked = append(stacked, viz.NamedSeries{Name: name, Values: vals})
	}
	write(outDir, "fig2_state_list.svg",
		viz.StackedLineChart("Query selection — New England growth rates", stacked, 480, 44))

	// --- Fig 2, query preview: brush the second half (recent trends).
	brushStart := len(maVals) / 2
	brushed := maVals[brushStart:]
	write(outDir, "fig2_query_preview.svg",
		viz.LineChart(fmt.Sprintf("Query preview — MA brushed [%d:%d)", brushStart, len(maVals)),
			[]viz.NamedSeries{{Name: "MA (brushed)", Values: brushed}}, 480, 200))

	// --- Fig 2, results pane: best match with warped-point connections.
	m, err := otherSeriesMatch(ctx, db, "MA", brushStart, len(brushed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best match for MA's recent trend: %s[%d:%d) at DTW %.4f\n",
		m.Series, m.Start, m.Start+m.Length, m.Dist)
	path := make(dist.WarpPath, len(m.Path))
	for i, p := range m.Path {
		path[i] = dist.PathStep{I: p[0], J: p[1]}
	}
	write(outDir, "fig2_results.svg",
		viz.WarpChart(fmt.Sprintf("Results — MA vs %s (DTW %.4f)", m.Series, m.Dist),
			viz.NamedSeries{Name: "MA", Values: brushed},
			viz.NamedSeries{Name: m.Series, Values: m.Values},
			path, 640, 280))

	// --- Fig 3: Tech employment, radial + connected scatter for MA and
	//     its best-matching state (the paper shows MA vs AR).
	tech := gen.Matters(gen.MattersOptions{Indicator: gen.TechEmployment})
	techDB, err := onex.Open(tech, onex.Config{MinLength: 6, MaxLength: 12})
	if err != nil {
		log.Fatal(err)
	}
	tm, err := otherSeriesMatch(ctx, techDB, "MA", 0, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tech employment pair: MA vs %s (DTW %.4f)\n", tm.Series, tm.Dist)
	maTech, _ := techDB.SeriesValues("MA")
	otherTech, _ := techDB.SeriesValues(tm.Series)
	write(outDir, "fig3_radial.svg",
		viz.RadialChart("Tech employment — radial",
			viz.NamedSeries{Name: "MA", Values: maTech},
			viz.NamedSeries{Name: tm.Series, Values: otherTech}, 360))
	write(outDir, "fig3_scatter.svg",
		viz.ConnectedScatter("Tech employment — connected scatter",
			viz.NamedSeries{Name: "MA", Values: maTech},
			viz.NamedSeries{Name: tm.Series, Values: otherTech}, nil, 360))

	fmt.Println("figures written to", outDir)
}

// otherSeriesMatch finds the window of another series most similar to the
// window [start, start+length) of series.
func otherSeriesMatch(ctx context.Context, db *onex.DB, series string, start, length int) (onex.Match, error) {
	res, err := db.Find(ctx, onex.Query{
		Window:  onex.Window{Series: series, Start: start, Length: length},
		Exclude: onex.Exclude{Series: []string{series}},
	})
	if err != nil {
		return onex.Match{}, err
	}
	return res.Matches[0], nil
}

func write(dir, name, svg string) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  wrote", path)
}
