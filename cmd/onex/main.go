// Command onex is the ONEX command-line explorer: generate datasets, build
// and inspect ONEX bases, run similarity queries and every exploration
// scenario, persist bases into store directories, and render the demo's SVG
// views.
//
// Usage:
//
//	onex gen       -kind matters -indicator GrowthRate -out growth.csv
//	onex build     -data growth.csv [-st 0.1 -minlen 4 -maxlen 12]         # build and print base stats
//	onex query     -data growth.csv -series MA -start 0 -len 12 [-k 5] [-exclude-source] [-mode exact] [-stats]
//	onex query     -data growth.csv -series MA -len 12 -progressive        # stream approx → exact
//	onex range     -data growth.csv -series MA -len 12 -maxdist 0.05 [-stats]
//
// query and range both map their flags onto the library's unified
// onex.Query and run it through DB.Find; Ctrl-C cancels a long search.
// -progressive switches query to DB.Stream: the approximate answer prints
// immediately and refines line by line — one line per certified wave —
// until the exact result, so a long exact search shows progress instead
// of silence (Ctrl-C stops it mid-wave).
//
//	onex analyze   -data growth.csv -kind overview [-length 8 -k 12] [-stats]
//	onex analyze   -data power.csv -kind seasonal -series household-00 -minlen 12 -maxlen 12
//	onex analyze   -data growth.csv -kind similarity-sweep -series MA -len 8 -thresholds 0.02,0.05,0.1
//	onex analyze   -data growth.csv -kind threshold-recommend
//
// analyze maps its flags onto the library's unified onex.Analysis and runs
// it through DB.Analyze; every exploration scenario (overview,
// group-members, length-summaries, seasonal, common-patterns,
// similarity-sweep, threshold-recommend) is one -kind away, and Ctrl-C
// cancels a long walk. viz renders the demo's views from the same calls:
//
//	onex viz       -data growth.csv -kind match -series MA -start 0 -len 12 -out fig.svg
//
// Persistence: snapshot builds a dataset once into a store directory
// (snapshot + write-ahead log), after which every subcommand warm-opens it
// with -store instead of -data — milliseconds instead of a rebuild — and
// compact folds an ingest-heavy WAL back into a fresh snapshot:
//
//	onex snapshot  -data growth.csv -store growth.store [-st 0.1 -maxlen 12]
//	onex query     -store growth.store -series MA -start 0 -len 12
//	onex compact   -store growth.store
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/ts"
	"repro/internal/viz"
	"repro/onex"
)

// stdout is swapped by tests to capture subcommand output.
var stdout io.Writer = os.Stdout

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "range":
		err = cmdRange(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "viz":
		err = cmdViz(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "replica-status":
		err = cmdReplicaStatus(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "onex: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "onex:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: onex <gen|build|query|range|analyze|viz|snapshot|compact|replica-status> [flags]
run "onex <subcommand> -h" for flags`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "matters", "matters|electricity|cbf|walks|sines|ecg")
	indicator := fs.String("indicator", "GrowthRate", "MATTERS indicator (matters kind)")
	out := fs.String("out", "", "output file (.csv/.json/UCR text); required")
	n := fs.Int("n", 0, "series count / households / per-class count (kind-specific default)")
	length := fs.Int("len", 0, "series length or days (kind-specific default)")
	seed := fs.Int64("seed", 0, "random seed (0 = fixed default)")
	_ = fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	var d *ts.Dataset
	switch *kind {
	case "matters":
		ind, ok := gen.IndicatorByName(*indicator)
		if !ok {
			return fmt.Errorf("gen: unknown indicator %q", *indicator)
		}
		d = gen.Matters(gen.MattersOptions{Indicator: ind, Periods: *length, Seed: *seed})
	case "electricity":
		d = gen.ElectricityLoad(gen.ElectricityOptions{Households: *n, Days: *length, Seed: *seed})
	case "cbf":
		d = gen.CBF(gen.CBFOptions{PerClass: *n, Length: *length, Seed: *seed})
	case "walks":
		d = gen.RandomWalks(gen.WalkOptions{Num: *n, Length: *length, Seed: *seed})
	case "sines":
		d = gen.WarpedSines(gen.SineOptions{PerClass: *n, Length: *length, Seed: *seed})
	case "ecg":
		d = gen.ECG(gen.ECGOptions{Num: *n, Beats: *length, Arrhythmic: true, Seed: *seed})
	default:
		return fmt.Errorf("gen: unknown kind %q", *kind)
	}
	if err := ts.SaveFile(*out, d); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d series, %d values\n", *out, d.Len(), d.TotalValues())
	return nil
}

// openFlags holds the flags shared by every subcommand that opens a DB.
type openFlags struct {
	data   *string
	store  *string
	mmap   *bool
	st     *float64
	minLen *int
	maxLen *int
	band   *int
	exact  *bool
	// attach, when set before open, makes the cold-opened DB durable: the
	// engine is passed through Config.Store (snapshot subcommand only).
	attach store.Engine
}

func addOpenFlags(fs *flag.FlagSet) *openFlags {
	return &openFlags{
		data:   fs.String("data", "", "dataset file (required unless -store)"),
		store:  fs.String("store", "", "warm-open from this store directory (see 'onex snapshot'); replaces -data"),
		mmap:   fs.Bool("mmap", false, "with -store: serve values as zero-copy views over the memory-mapped snapshot (beyond-RAM datasets page in on demand)"),
		st:     fs.Float64("st", 0, "per-point similarity threshold in normalized units (0 = auto)"),
		minLen: fs.Int("minlen", 0, "minimum indexed subsequence length"),
		maxLen: fs.Int("maxlen", 0, "maximum indexed subsequence length"),
		band:   fs.Int("band", 0, "Sakoe-Chiba band width (0 = default, negative = unconstrained)"),
		exact:  fs.Bool("exact", false, "use certified-exact search instead of the paper's approximate mode"),
	}
}

func (of *openFlags) open() (*onex.DB, error) {
	if *of.store != "" {
		if *of.data != "" {
			return nil, fmt.Errorf("-store replaces -data (the store holds the dataset and its index)")
		}
		return onex.OpenStore(*of.store, onex.Config{MmapValues: *of.mmap})
	}
	if *of.mmap {
		return nil, fmt.Errorf("-mmap needs a snapshot to map; pair it with -store")
	}
	if *of.data == "" {
		return nil, fmt.Errorf("-data is required")
	}
	return onex.OpenFile(*of.data, onex.Config{
		ST:        *of.st,
		MinLength: *of.minLen,
		MaxLength: *of.maxLen,
		Band:      *of.band,
		Exact:     *of.exact,
		Store:     of.attach,
	})
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	of := addOpenFlags(fs)
	_ = fs.Parse(args)
	db, err := of.open()
	if err != nil {
		return err
	}
	st := db.Stats()
	fmt.Fprintf(stdout, "dataset:       %s (%d series)\n", *of.data, st.Series)
	fmt.Fprintf(stdout, "ST:            %.6f (per point, normalized units)\n", db.ST())
	fmt.Fprintf(stdout, "subsequences:  %d\n", st.Subsequences)
	fmt.Fprintf(stdout, "groups:        %d\n", st.Groups)
	fmt.Fprintf(stdout, "compaction:    %.1fx\n", st.CompactionRatio)
	fmt.Fprintf(stdout, "build time:    %d ms\n", st.BuildMillis)
	return nil
}

// queryContext returns a context cancelled by Ctrl-C, so long exact-mode
// scans abort promptly instead of running to completion.
func queryContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

func cmdRange(args []string) error {
	fs := flag.NewFlagSet("range", flag.ExitOnError)
	of := addOpenFlags(fs)
	series := fs.String("series", "", "query series name (required)")
	start := fs.Int("start", 0, "query window start")
	length := fs.Int("len", 0, "query window length (required)")
	maxDist := fs.Float64("maxdist", 0.1, "inclusive distance threshold (normalized per-point units)")
	limit := fs.Int("limit", 20, "maximum matches to print (0 = all)")
	stats := fs.Bool("stats", false, "print search statistics after the results")
	_ = fs.Parse(args)
	if *series == "" || *length <= 0 {
		return fmt.Errorf("range: -series and -len are required")
	}
	if *maxDist <= 0 {
		return fmt.Errorf("range: -maxdist must be > 0")
	}
	db, err := of.open()
	if err != nil {
		return err
	}
	ctx, stop := queryContext()
	defer stop()
	// Range scans are always certified-exact, so there is no -mode here.
	res, err := db.Find(ctx, onex.Query{
		Window:  onex.Window{Series: *series, Start: *start, Length: *length},
		MaxDist: *maxDist,
		K:       *limit,
	})
	if err != nil {
		return err
	}
	ms := res.Matches
	fmt.Fprintf(stdout, "%d matches within %.4f of %s[%d:%d):\n", len(ms), *maxDist, *series, *start, *start+*length)
	for i, m := range ms {
		fmt.Fprintf(stdout, "  #%-3d %s[%d:%d)  DTW=%.6f\n", i+1, m.Series, m.Start, m.Start+m.Length, m.Dist)
	}
	if *stats {
		printStats(res.Stats)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	of := addOpenFlags(fs)
	series := fs.String("series", "", "query series name (required)")
	start := fs.Int("start", 0, "query window start")
	length := fs.Int("len", 0, "query window length (required)")
	k := fs.Int("k", 1, "number of matches to return")
	excludeSource := fs.Bool("exclude-source", false, "exclude the whole source series")
	mode := fs.String("mode", "", "per-query mode override: approx|exact (default: as opened)")
	progressive := fs.Bool("progressive", false, "stream the answer: approximate first, refined per certified wave, exact last")
	stats := fs.Bool("stats", false, "print search statistics after the results")
	_ = fs.Parse(args)
	if *series == "" || *length <= 0 {
		return fmt.Errorf("query: -series and -len are required")
	}
	db, err := of.open()
	if err != nil {
		return err
	}
	q := onex.Query{
		Window:  onex.Window{Series: *series, Start: *start, Length: *length},
		K:       *k,
		Exclude: onex.Exclude{Self: true},
		Mode:    onex.QueryMode(*mode),
	}
	if *excludeSource {
		q.Exclude = onex.Exclude{Series: []string{*series}}
	}
	ctx, stop := queryContext()
	defer stop()
	if *progressive {
		return runProgressive(ctx, db, q, *stats)
	}
	res, err := db.Find(ctx, q)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "query:  %s[%d:%d)\n", *series, *start, *start+*length)
	if len(res.Matches) == 1 {
		m := res.Matches[0]
		fmt.Fprintf(stdout, "match:  %s[%d:%d)\n", m.Series, m.Start, m.Start+m.Length)
		fmt.Fprintf(stdout, "DTW:    %.6f (normalized units; ST = %.6f)\n", m.Dist, db.ST())
		fmt.Fprintf(stdout, "values: %s\n", formatValues(m.Values, 8))
	} else {
		for i, m := range res.Matches {
			fmt.Fprintf(stdout, "  #%-3d %s[%d:%d)  DTW=%.6f\n", i+1, m.Series, m.Start, m.Start+m.Length, m.Dist)
		}
	}
	if *stats {
		printStats(res.Stats)
	}
	return nil
}

// runProgressive drives db.Stream and live-renders each update: the
// approximate answer appears immediately, every certified refinement wave
// prints its current best, and the exact result closes the stream. Ctrl-C
// (the cancelled ctx) stops the walk mid-wave.
func runProgressive(ctx context.Context, db *onex.DB, q onex.Query, stats bool) error {
	x, err := db.Stream(ctx, q)
	if err != nil {
		return err
	}
	defer x.Close()
	lastRendered := ""
	for u := range x.Updates() {
		label := fmt.Sprintf("wave %-3d", u.Wave)
		switch {
		case u.Seq == 0:
			label = "approx  "
		case u.Final:
			label = "exact   "
		}
		certified := 0
		for _, c := range u.Certified {
			if c {
				certified++
			}
		}
		best := "no match yet"
		if len(u.Matches) > 0 {
			m := u.Matches[0]
			best = fmt.Sprintf("%s[%d:%d) DTW=%.6f", m.Series, m.Start, m.Start+m.Length, m.Dist)
		}
		// Print the waves that change the picture (plus a heartbeat every
		// 32nd), so a long exact walk reads as progress, not noise.
		line := fmt.Sprintf("%s certified %d/%d", best, certified, len(u.Matches))
		if line == lastRendered && !u.Final && u.Wave%32 != 0 {
			continue
		}
		lastRendered = line
		fmt.Fprintf(stdout, "%s best: %-32s certified %d/%d, %d groups remaining (%.1f ms)\n",
			label, best, certified, len(u.Matches), u.GroupsRemaining,
			float64(u.Stats.WallMicros)/1000)
		if u.Final {
			for i, m := range u.Matches {
				fmt.Fprintf(stdout, "  #%-3d %s[%d:%d)  DTW=%.6f\n", i+1, m.Series, m.Start, m.Start+m.Length, m.Dist)
			}
			if stats {
				printStats(u.Stats)
			}
		}
	}
	return x.Err()
}

func printStats(st onex.QueryStats) {
	fmt.Fprintf(stdout, "stats:  %d groups (%d pruned, %d refined), %d candidates, %d DTWs, %.3f ms\n",
		st.Groups, st.GroupsPruned, st.GroupsRefined, st.Candidates, st.DTWs,
		float64(st.WallMicros)/1000)
}

// cmdAnalyze maps flags onto the unified onex.Analysis and prints the
// payload selected by -kind.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	of := addOpenFlags(fs)
	kind := fs.String("kind", "", "overview|group-members|length-summaries|seasonal|common-patterns|similarity-sweep|threshold-recommend (required)")
	series := fs.String("series", "", "series to mine (seasonal) or sweep-query series (similarity-sweep)")
	length := fs.Int("length", 0, "group length (overview: 0 = auto; group-members: required)")
	index := fs.Int("index", 0, "group index within its length (group-members)")
	k := fs.Int("k", 0, "result cap: top-k groups (overview, 0 = all) or max patterns (0 = 16)")
	minOcc := fs.Int("minocc", 0, "minimum occurrences (seasonal, 0 = 2)")
	minSeries := fs.Int("minseries", 0, "minimum distinct series (common-patterns, 0 = 2)")
	start := fs.Int("start", 0, "sweep-query window start (similarity-sweep)")
	qlen := fs.Int("len", 0, "sweep-query window length (similarity-sweep)")
	thresholds := fs.String("thresholds", "", "comma-separated sweep thresholds, normalized per-point units (similarity-sweep)")
	stats := fs.Bool("stats", false, "print walk statistics after the results")
	_ = fs.Parse(args)
	if *kind == "" {
		return fmt.Errorf("analyze: -kind is required")
	}
	a := onex.Analysis{
		Kind:           onex.AnalysisKind(*kind),
		Series:         *series,
		Length:         *length,
		Index:          *index,
		K:              *k,
		Lengths:        onex.Lengths{Min: *of.minLen, Max: *of.maxLen},
		MinOccurrences: *minOcc,
		MinSeries:      *minSeries,
	}
	if *thresholds != "" {
		for _, f := range strings.Split(*thresholds, ",") {
			th, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf("analyze: bad threshold %q", f)
			}
			a.Thresholds = append(a.Thresholds, th)
		}
	}
	if a.Kind == onex.AnalysisSimilaritySweep {
		if *series == "" || *qlen <= 0 {
			return fmt.Errorf("analyze: similarity-sweep needs -series and -len")
		}
		a.Series = ""
		a.Window = onex.Window{Series: *series, Start: *start, Length: *qlen}
	}
	db, err := of.open()
	if err != nil {
		return err
	}
	ctx, stop := queryContext()
	defer stop()
	res, err := db.Analyze(ctx, a)
	if err != nil {
		return err
	}
	printAnalysis(res)
	if *stats {
		fmt.Fprintf(stdout, "stats:  %d groups, %d candidates, %d DTWs, %.3f ms\n",
			res.Stats.Groups, res.Stats.Candidates, res.Stats.DTWs,
			float64(res.Stats.WallMicros)/1000)
	}
	return nil
}

// printAnalysis renders the one payload an AnalysisResult carries.
func printAnalysis(res onex.AnalysisResult) {
	switch res.Request.Kind {
	case onex.AnalysisOverview:
		if len(res.Groups) == 0 {
			fmt.Fprintln(stdout, "no groups")
			return
		}
		fmt.Fprintf(stdout, "top %d similarity groups (length %d):\n", len(res.Groups), res.Request.Length)
		for i, g := range res.Groups {
			fmt.Fprintf(stdout, "  #%-3d index=%-5d count=%-5d rep=%s\n", i+1, g.Index, g.Count, formatValues(g.Rep, 8))
		}
	case onex.AnalysisGroupMembers:
		fmt.Fprintf(stdout, "group %d/%d: %d members (nearest representative first):\n",
			res.Request.Length, res.Request.Index, len(res.Members))
		for i, m := range res.Members {
			fmt.Fprintf(stdout, "  #%-3d %s[%d:%d)  repED=%.6f\n", i+1, m.Series, m.Start, m.Start+m.Length, m.RepED)
		}
	case onex.AnalysisLengthSummaries:
		fmt.Fprintln(stdout, "length  groups  subsequences")
		for _, ls := range res.LengthSummaries {
			fmt.Fprintf(stdout, "%6d  %6d  %12d\n", ls.Length, ls.Groups, ls.Subsequences)
		}
	case onex.AnalysisSeasonal:
		if len(res.Patterns) == 0 {
			fmt.Fprintln(stdout, "no repeating patterns found")
			return
		}
		for i, p := range res.Patterns {
			fmt.Fprintf(stdout, "#%d length=%d occurrences=%d mean_gap=%.1f starts=%v\n",
				i+1, p.Length, p.Occurrences, p.MeanGap, p.Starts)
		}
	case onex.AnalysisCommonPatterns:
		if len(res.Common) == 0 {
			fmt.Fprintln(stdout, "no shared shapes found")
			return
		}
		for i, c := range res.Common {
			fmt.Fprintf(stdout, "#%d length=%d series=%d members=%d rep=%s\n",
				i+1, c.Length, len(c.Series), c.TotalMembers, formatValues(c.Rep, 8))
		}
	case onex.AnalysisSimilaritySweep:
		fmt.Fprintln(stdout, "maxdist   matches")
		for _, p := range res.Sweep {
			fmt.Fprintf(stdout, "%.5f  %8d\n", p.MaxDist, p.Matches)
		}
	case onex.AnalysisThresholds:
		t := res.Thresholds
		fmt.Fprintf(stdout, "data-driven similarity thresholds (normalized units; %d sampled pairs at probe length %d):\n",
			len(t.Sample), t.ProbeLength)
		for _, r := range t.Recommendations {
			fmt.Fprintf(stdout, "  %-9s ST=%.6f (p%.0f of pairwise ED; ~%d groups, %.1fx compaction at probe length)\n",
				r.Label, r.ST, r.Percentile*100, r.EstGroups, r.EstCompaction)
		}
	}
}

func cmdViz(args []string) error {
	fs := flag.NewFlagSet("viz", flag.ExitOnError)
	of := addOpenFlags(fs)
	kind := fs.String("kind", "match", "match|radial|scatter|seasonal|overview")
	series := fs.String("series", "", "query/source series")
	other := fs.String("other", "", "second series (radial/scatter)")
	start := fs.Int("start", 0, "query window start (match)")
	length := fs.Int("len", 0, "window length (match/seasonal)")
	k := fs.Int("k", 12, "group count (overview)")
	out := fs.String("out", "", "output SVG path (required)")
	_ = fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("viz: -out is required")
	}
	db, err := of.open()
	if err != nil {
		return err
	}
	ctx, stop := queryContext()
	defer stop()
	var svg string
	switch *kind {
	case "match":
		if *series == "" || *length <= 0 {
			return fmt.Errorf("viz match: -series and -len are required")
		}
		res, err := db.Find(ctx, onex.Query{
			Window:  onex.Window{Series: *series, Start: *start, Length: *length},
			Exclude: onex.Exclude{Self: true},
		})
		if err != nil {
			return err
		}
		m := res.Matches[0]
		vals, err := db.SeriesValues(*series)
		if err != nil {
			return err
		}
		path := make(dist.WarpPath, len(m.Path))
		for i, p := range m.Path {
			path[i] = dist.PathStep{I: p[0], J: p[1]}
		}
		svg = viz.WarpChart(
			fmt.Sprintf("%s[%d:%d) vs %s[%d:%d), DTW=%.4f", *series, *start, *start+*length,
				m.Series, m.Start, m.Start+m.Length, m.Dist),
			viz.NamedSeries{Name: *series, Values: vals[*start : *start+*length]},
			viz.NamedSeries{Name: m.Series, Values: m.Values},
			path, 640, 280)
	case "radial", "scatter":
		if *series == "" || *other == "" {
			return fmt.Errorf("viz %s: -series and -other are required", *kind)
		}
		av, err := db.SeriesValues(*series)
		if err != nil {
			return err
		}
		bv, err := db.SeriesValues(*other)
		if err != nil {
			return err
		}
		a := viz.NamedSeries{Name: *series, Values: av}
		b := viz.NamedSeries{Name: *other, Values: bv}
		if *kind == "radial" {
			svg = viz.RadialChart("radial comparison", a, b, 360)
		} else {
			svg = viz.ConnectedScatter("connected scatter", a, b, nil, 360)
		}
	case "seasonal":
		if *series == "" {
			return fmt.Errorf("viz seasonal: -series is required")
		}
		res, err := db.Analyze(ctx, onex.Analysis{
			Kind:    onex.AnalysisSeasonal,
			Series:  *series,
			Lengths: onex.Lengths{Min: max(*length, 0), Max: max(*length, 0)},
		})
		if err != nil {
			return err
		}
		pats := res.Patterns
		vals, err := db.SeriesValues(*series)
		if err != nil {
			return err
		}
		var segs []viz.SeasonalSegment
		title := fmt.Sprintf("seasonal — %s (no pattern)", *series)
		if len(pats) > 0 {
			for _, st := range pats[0].Starts {
				segs = append(segs, viz.SeasonalSegment{Start: st, Length: pats[0].Length})
			}
			title = fmt.Sprintf("seasonal — %s: %d x length-%d pattern", *series,
				pats[0].Occurrences, pats[0].Length)
		}
		svg = viz.SeasonalView(title, vals, segs, 760, 260)
	case "overview":
		res, err := db.Analyze(ctx, onex.Analysis{Kind: onex.AnalysisOverview, Length: max(*length, 0), K: *k})
		if err != nil {
			return err
		}
		cells := make([]viz.OverviewCell, len(res.Groups))
		for i, g := range res.Groups {
			cells[i] = viz.OverviewCell{Rep: g.Rep, Count: g.Count,
				Label: fmt.Sprintf("len %d · n=%d", g.Length, g.Count)}
		}
		svg = viz.OverviewGrid("ONEX similarity groups", cells, 4, 120, 72)
	default:
		return fmt.Errorf("viz: unknown kind %q", *kind)
	}
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}

// cmdSnapshot builds a dataset and persists it into a store directory: one
// snapshot file plus an empty WAL, ready for warm opens with -store.
func cmdSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	of := addOpenFlags(fs)
	_ = fs.Parse(args)
	if *of.store == "" {
		return fmt.Errorf("snapshot: -store is required")
	}
	if *of.data == "" {
		return fmt.Errorf("snapshot: -data is required (the dataset to persist)")
	}
	dir := *of.store
	*of.store = "" // open cold from -data; the engine attaches below
	eng, err := store.Open(dir)
	if err != nil {
		return err
	}
	of.attach = eng
	// Open writes the initial snapshot through the attached engine before
	// returning, so success here means the store is complete on disk.
	db, err := of.open()
	if err != nil {
		eng.Close()
		return err
	}
	st, _ := db.StoreStatus()
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "snapshot written: %s (%d bytes, version %d)\n", dir, st.SnapshotBytes, st.SnapshotVersion)
	fmt.Fprintf(stdout, "warm-open with:   -store %s\n", dir)
	return nil
}

// cmdCompact warm-opens a store directory and folds its WAL into a fresh
// snapshot, so the next open replays nothing.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("store", "", "store directory to compact (required)")
	_ = fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("compact: -store is required")
	}
	db, err := onex.OpenStore(*dir, onex.Config{})
	if err != nil {
		return err
	}
	pre, _ := db.StoreStatus()
	if err := db.Snapshot(); err != nil {
		_ = db.Close()
		return err
	}
	post, _ := db.StoreStatus()
	if err := db.Close(); err != nil {
		return err
	}
	if !pre.Recovery.Empty() {
		fmt.Fprintf(stdout, "recovery: %s\n", pre.Recovery)
	}
	fmt.Fprintf(stdout, "compacted %s: folded %d WAL record(s) into snapshot (%d bytes, version %d)\n",
		*dir, pre.WALRecords, post.SnapshotBytes, post.SnapshotVersion)
	return nil
}

func formatValues(vals []float64, max int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range vals {
		if i >= max {
			fmt.Fprintf(&b, " ... +%d more", len(vals)-max)
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", v)
	}
	b.WriteByte(']')
	return b.String()
}
