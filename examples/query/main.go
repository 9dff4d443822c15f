// Query: three exploratory scenarios through the one unified entry point.
//
// Top-k similarity, range exploration with a swept threshold, and
// cross-series comparison are each one onex.Query with different fields
// set, executed by db.Find. The example also shows what every Find
// returns beside the matches: the resolved ("effective") query echoed
// back, and per-call search statistics.
//
//	go run ./examples/query
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/onex"
)

func main() {
	// 50 states x 24 quarters of synthetic GDP growth.
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate})
	db, err := onex.Open(data, onex.Config{MinLength: 4, MaxLength: 12})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("ONEX base ready: %d series, %d subsequences -> %d groups\n\n",
		st.Series, st.Subsequences, st.Groups)
	ctx := context.Background()

	// Scenario 1 — top-k: the five windows anywhere in the collection most
	// similar to MA's last year, excluding the query window itself.
	res, err := db.Find(ctx, onex.Query{
		Window:  onex.Window{Series: "MA", Start: 12, Length: 12},
		Exclude: onex.Exclude{Self: true},
		K:       5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-5 windows similar to MA[12:24):")
	for i, m := range res.Matches {
		fmt.Printf("  #%d %s[%d:%d)  DTW=%.4f\n", i+1, m.Series, m.Start, m.Start+m.Length, m.Dist)
	}
	fmt.Printf("  (searched %d groups, pruned %d, ran %d DTWs in %.2f ms)\n\n",
		res.Stats.Groups, res.Stats.GroupsPruned, res.Stats.DTWs,
		float64(res.Stats.WallMicros)/1000)

	// Scenario 2 — range sweep: how does the match population grow as the
	// distance budget loosens? Same Query, swept MaxDist.
	fmt.Println("range sweep around MA[12:24):")
	for _, maxDist := range []float64{0.02, 0.05, 0.1} {
		res, err := db.Find(ctx, onex.Query{
			Window:  onex.Window{Series: "MA", Start: 12, Length: 12},
			Exclude: onex.Exclude{Self: true},
			MaxDist: maxDist,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  within %.2f: %d matches\n", maxDist, len(res.Matches))
	}
	fmt.Println()

	// Scenario 3 — cross-series exclude: which states other than MA and
	// its neighbors trace the most similar trajectory? The exclusion set
	// is just another query field; here we also override the search mode
	// to certified-exact for this one call.
	res, err = db.Find(ctx, onex.Query{
		Window:  onex.Window{Series: "MA", Start: 0, Length: 12},
		Exclude: onex.Exclude{Series: []string{"MA", "CT", "RI"}},
		K:       3,
		Mode:    onex.ModeExact,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("states most like MA[0:12) (MA/CT/RI excluded, %s mode):\n", res.Query.Mode)
	for i, m := range res.Matches {
		fmt.Printf("  #%d %s[%d:%d)  DTW=%.4f\n", i+1, m.Series, m.Start, m.Start+m.Length, m.Dist)
	}
	fmt.Println()

	// Scenario 4 — progressive refinement: the same query as scenario 1,
	// but streamed. The first update is the approximate answer (available
	// before any exact refinement runs); each following update is one
	// certified wave; the last equals an exact-mode Find.
	x, err := db.Stream(ctx, onex.Query{
		Window:  onex.Window{Series: "MA", Start: 12, Length: 12},
		Exclude: onex.Exclude{Self: true},
		K:       5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer x.Close()
	fmt.Println("progressive query for MA[12:24):")
	lastLine, waves := "", 0
	for u := range x.Updates() {
		waves = u.Wave
		certified := 0
		for _, c := range u.Certified {
			if c {
				certified++
			}
		}
		stage := fmt.Sprintf("wave %d", u.Wave)
		if u.Seq == 0 {
			stage = "approx"
		} else if u.Final {
			stage = "exact"
		}
		// A terminal UI would redraw in place; here we print only the
		// updates that change the picture (best match or certified count).
		best := "no match yet" // constrained walks can under-fill early snapshots
		if len(u.Matches) > 0 {
			best = fmt.Sprintf("best=%s[%d:%d) DTW=%.4f", u.Matches[0].Series,
				u.Matches[0].Start, u.Matches[0].Start+u.Matches[0].Length, u.Matches[0].Dist)
		}
		line := fmt.Sprintf("%s  certified %d/%d", best, certified, len(u.Matches))
		if line != lastLine || u.Final {
			fmt.Printf("  %-8s %s, %d groups left\n", stage, line, u.GroupsRemaining)
			lastLine = line
		}
	}
	if err := x.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  (%d refinement waves in total)\n", waves)
}
