// Command onexbench regenerates the reproduction's experiment tables (the
// index is the "Baselines and experiments" section of docs/ARCHITECTURE.md).
// Each experiment prints an aligned text table to stdout.
//
// Usage:
//
//	onexbench -exp all            # every experiment, paper-scale configs
//	onexbench -exp e1             # latency: ONEX vs UCR-Suite vs brute force
//	onexbench -exp e2             # accuracy: ONEX vs embedding baseline
//	onexbench -exp e3             # base construction cost and compaction
//	onexbench -exp e4             # threshold recommendation
//	onexbench -exp e5             # seasonal-query recall
//	onexbench -exp e6             # certified transfer bound check
//	onexbench -exp ablations      # A1 repair, A2 band sweep, A3 LB cascade
//	onexbench -exp e1 -quick      # reduced sizes for a fast smoke run
//	onexbench -exp e1 -mode exact   # certified search
//	onexbench -exp e1 -mode stream  # progressive pipeline; first_us column reports first-update latency
//
// The E1 latency experiment runs the ONEX side through the public API —
// onex.Query executed by DB.Find, or DB.Stream when -mode stream — so the
// numbers measure the path real clients use. -mode selects approx (the
// paper's configuration, the default), exact, or stream.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1..e6 or all")
	quick := flag.Bool("quick", false, "use reduced sizes for a fast smoke run")
	mode := flag.String("mode", "", "E1 query path: approx (default) | exact | stream")
	flag.Parse()

	which := strings.ToLower(*exp)
	run := func(name string) bool { return which == "all" || which == name }
	failed := false

	if run("e1") {
		cfg := bench.DefaultE1()
		if *quick {
			cfg.SeriesCounts = []int{10, 25}
			cfg.Queries = 5
		}
		cfg.Mode = *mode
		onexPath := cfg.Mode
		if onexPath == "" {
			onexPath = "approx"
		}
		fmt.Printf("== E1: best-match latency — ONEX (%s) vs UCR-Suite-style exact vs naive DTW scan ==\n", onexPath)
		fmt.Printf("   series length %d, query length %d, band %d, %d queries per row\n\n",
			cfg.SeriesLen, cfg.QueryLen, cfg.Band, cfg.Queries)
		rows, err := bench.RunE1(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E1:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE1(rows))
		}
	}
	if run("e2") {
		cfg := bench.DefaultE2()
		if *quick {
			cfg.Queries = 5
		}
		fmt.Println("== E2: match accuracy vs exact DTW — ONEX (approx) vs embedding filter-and-refine ==")
		fmt.Printf("   query length %d, band %d, %d queries per dataset, equalized refine budgets\n\n",
			cfg.QueryLen, cfg.Band, cfg.Queries)
		rows, err := bench.RunE2(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E2:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE2(rows))
		}
	}
	if run("e3") {
		cfg := bench.DefaultE3()
		if *quick {
			cfg.SeriesCounts = []int{10, 25}
		}
		fmt.Println("== E3: ONEX base construction — scaling with collection size ==")
		rows, err := bench.RunE3Sizes(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E3 sizes:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE3(rows))
		}
		fmt.Println("== E3b: ONEX base construction — scaling with similarity threshold ==")
		rows2, err := bench.RunE3Thresholds(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E3 thresholds:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE3(rows2))
		}
	}
	if run("e4") {
		fmt.Println("== E4: data-driven threshold recommendation — raw units per indicator ==")
		rows, err := bench.RunE4(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E4:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE4(rows))
		}
		fmt.Println("== E4b: the same after min-max normalization (engine units) ==")
		rows2, err := bench.RunE4Normalized(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E4b:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE4(rows2))
		}
	}
	if run("e5") {
		cfg := bench.DefaultE5()
		if *quick {
			cfg.DaysSweep = []int{10, 20}
		}
		fmt.Println("== E5: seasonal-query recall of the planted daily cycle (ElectricityLoad) ==")
		rows, err := bench.RunE5(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E5:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE5(rows))
		}
	}
	if run("e6") {
		cfg := bench.DefaultE6()
		if *quick {
			cfg.Queries = 6
		}
		fmt.Println("== E6: certified ED->DTW transfer bound — empirical soundness and tightness ==")
		row, err := bench.RunE6(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E6:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE6(row))
		}
	}
	if run("e7") {
		cfg := bench.DefaultE7()
		if *quick {
			cfg.TrainPerClass, cfg.TestPerClass = 6, 4
		}
		fmt.Println("== E7: 1-NN classification — ONEX retrieval vs exact DTW retrieval ==")
		rows, err := bench.RunE7(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E7:", err)
			failed = true
		} else {
			fmt.Println(bench.TableE7(rows))
		}
	}
	if run("a1") || which == "ablations" {
		fmt.Println("== A1: repair-pass ablation — invariant enforcement cost and effect ==")
		rows, err := bench.RunA1(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "A1:", err)
			failed = true
		} else {
			fmt.Println(bench.TableA1(rows))
		}
	}
	if run("a2") || which == "ablations" {
		fmt.Println("== A2: Sakoe-Chiba band sweep — latency/accuracy trade-off ==")
		rows, err := bench.RunA2(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "A2:", err)
			failed = true
		} else {
			fmt.Println(bench.TableA2(rows))
		}
	}
	if run("a3") || which == "ablations" {
		fmt.Println("== A3: lower-bound cascade — per-stage pruning fractions ==")
		rows, err := bench.RunA3(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "A3:", err)
			failed = true
		} else {
			fmt.Println(bench.TableA3(rows))
		}
	}
	if failed {
		os.Exit(1)
	}
}
