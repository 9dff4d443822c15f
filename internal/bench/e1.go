package bench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/ts"
	"repro/internal/ucrsuite"
	"repro/onex"
)

// E1Config parameterizes the latency comparison (paper claim: "several
// times faster than the fastest known method [6]"). The ONEX side runs
// through the public API — onex.Query executed by DB.Find (or DB.Stream
// in stream mode) — so the experiment measures the path real clients use.
type E1Config struct {
	// SeriesCounts sweeps the collection size.
	SeriesCounts []int
	// SeriesLen is the length of each generated series.
	SeriesLen int
	// QueryLen is the query (and candidate) subsequence length.
	QueryLen int
	// Queries is the number of timed queries per configuration.
	Queries int
	// Band is the Sakoe-Chiba width shared by all systems.
	Band int
	// STFrac expresses the similarity threshold as a fraction of the
	// normalized value range (default 0.25 of sqrt(QueryLen), see code).
	ST float64
	// Seed fixes data and query generation.
	Seed int64
	// Mode selects the ONEX query path: "" or "approx" (the paper's
	// configuration), "exact" (certified search), or "stream" (the
	// progressive pipeline, drained to its exact answer; first-update
	// latency is reported in the first_us column).
	Mode string
}

// DefaultE1 is the paper-scale configuration cmd/onexbench runs.
func DefaultE1() E1Config {
	return E1Config{
		SeriesCounts: []int{25, 50, 100, 200},
		SeriesLen:    128,
		QueryLen:     32,
		Queries:      10,
		Band:         4,
		Seed:         1,
	}
}

// E1Row is one measured configuration.
type E1Row struct {
	N            int     // series count
	Windows      int     // candidate windows (per system, identical)
	Groups       int     // ONEX base groups at the query length
	BuildMs      float64 // ONEX base construction (amortized, offline)
	ONEXQueryUs  float64 // mean ONEX query latency (per cfg.Mode)
	ONEXP95Us    float64 // p95 ONEX query latency (interactivity is a tail property)
	FirstUs      float64 // mean first-update latency (stream mode only; 0 otherwise)
	UCRQueryUs   float64 // mean UCR-Suite-style exact query latency
	BruteQueryUs float64 // mean naive scan latency
	SpeedupUCR   float64 // UCR / ONEX
	SpeedupBrute float64 // Brute / ONEX
	Top1Agree    float64 // fraction of queries where ONEX == exact top-1
	DistRatio    float64 // mean ONEX distance / exact distance (>= 1)
}

// RunE1 measures best-match latency for ONEX (approximate mode, the
// paper's configuration), the UCR-Suite-style exact search, and the naive
// DTW scan on identical random-walk collections and identical queries.
func RunE1(cfg E1Config) ([]E1Row, error) {
	if len(cfg.SeriesCounts) == 0 {
		cfg = DefaultE1()
	}
	rows := make([]E1Row, 0, len(cfg.SeriesCounts))
	for _, n := range cfg.SeriesCounts {
		row, err := runE1One(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("bench: E1 N=%d: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE1One(cfg E1Config, n int) (E1Row, error) {
	// CBF is the workload: class-structured like the UCR archive datasets
	// the original evaluation uses. (Random walks, having no recurring
	// shapes at all, are the degenerate worst case for any group-based
	// approximation and do not represent the paper's setting.)
	per := (n + 2) / 3
	full := gen.CBF(gen.CBFOptions{PerClass: per, Length: cfg.SeriesLen, Seed: cfg.Seed})
	d := ts.NewDataset(full.Name)
	for i := 0; i < n && i < full.Len(); i++ {
		d.MustAdd(full.Series[i])
	}
	if err := ts.NormalizeMinMax(d); err != nil {
		return E1Row{}, err
	}
	st := cfg.ST
	if st <= 0 {
		// CBF's per-point noise is sigma = 1 on a value range of ~12, so a
		// window sits ~0.8*sigma/range ~ 0.066 per point from its class
		// centroid; 0.16 groups same-class windows while keeping classes
		// apart (their events differ by ~0.5 per point over the event).
		st = 0.16
	}
	// The dataset is already normalized, so open the public DB with
	// KeepRaw: every system — onex, UCR-Suite, brute force — then scores
	// in the same value space and the distances are directly comparable.
	var db *onex.DB
	buildTimer := &Timer{}
	var err error
	buildTimer.Time(func() {
		db, err = onex.Open(d, onex.Config{
			ST:        st,
			MinLength: cfg.QueryLen,
			MaxLength: cfg.QueryLen,
			Band:      cfg.Band,
			KeepRaw:   true,
		})
	})
	if err != nil {
		return E1Row{}, err
	}
	mode := onex.ModeApprox
	switch cfg.Mode {
	case "", "approx", "stream":
	case "exact":
		mode = onex.ModeExact
	default:
		return E1Row{}, fmt.Errorf("unknown mode %q (want approx, exact, or stream)", cfg.Mode)
	}
	// UCR-style protocol: queries are held-out CBF instances, so the
	// nearest indexed neighbor is a class-mate rather than a duplicate.
	heldOut := gen.CBF(gen.CBFOptions{PerClass: (cfg.Queries + 2) / 3, Length: cfg.SeriesLen, Seed: cfg.Seed + 1000})
	queries := HeldOutQueries(d, heldOut, cfg.Queries, cfg.QueryLen, cfg.Seed+7)

	stats := db.Stats()
	row := E1Row{
		N:       n,
		Windows: d.NumSubsequences(cfg.QueryLen, cfg.QueryLen),
		Groups:  stats.Groups,
		BuildMs: buildTimer.TotalMillis(),
	}
	ctx := context.Background()
	var onexT, firstT, ucrT, bruteT Timer
	agree, ratioSum := 0, 0.0
	for _, q := range queries {
		// NormRaw ranks by raw DTW cost, the unit the exact baselines
		// report.
		oq := onex.Query{Values: q, LengthNorm: onex.NormRaw, Mode: mode}
		var om onex.Match
		if cfg.Mode == "stream" {
			onexT.Time(func() {
				var x *onex.Exploration
				// firstT covers Stream-call to first update: the latency at
				// which the analyst sees the approximate answer.
				firstT.Time(func() {
					x, err = db.Stream(ctx, oq)
					if err == nil {
						<-x.Updates()
					}
				})
				if err != nil {
					return
				}
				var res onex.Result
				res, err = x.Wait()
				if err == nil {
					om = res.Matches[0]
				}
			})
		} else {
			onexT.Time(func() {
				var res onex.Result
				res, err = db.Find(ctx, oq)
				if err == nil {
					om = res.Matches[0]
				}
			})
		}
		if err != nil {
			return E1Row{}, err
		}
		var ur ucrsuite.Result
		ucrT.Time(func() {
			ur, err = ucrsuite.BestMatch(d, q, ucrsuite.Options{Band: cfg.Band})
		})
		if err != nil {
			return E1Row{}, err
		}
		var br bruteforce.Result
		bruteT.Time(func() {
			br, err = bruteforce.BestMatch(d, q, bruteforce.Options{Band: cfg.Band, EarlyAbandon: false})
		})
		if err != nil {
			return E1Row{}, err
		}
		// UCR and brute force are both exact; they must agree.
		if math.Abs(ur.Dist-br.Dist) > 1e-6 {
			return E1Row{}, fmt.Errorf("exact baselines disagree: %g vs %g", ur.Dist, br.Dist)
		}
		if math.Abs(om.Dist-br.Dist) <= 1e-9 {
			agree++
		}
		if br.Dist > 0 {
			ratioSum += om.Dist / br.Dist
		} else {
			ratioSum += 1
		}
	}
	row.ONEXQueryUs = onexT.MeanMicros()
	row.ONEXP95Us = onexT.PercentileMicros(0.95)
	row.FirstUs = firstT.MeanMicros()
	row.UCRQueryUs = ucrT.MeanMicros()
	row.BruteQueryUs = bruteT.MeanMicros()
	if row.ONEXQueryUs > 0 {
		row.SpeedupUCR = row.UCRQueryUs / row.ONEXQueryUs
		row.SpeedupBrute = row.BruteQueryUs / row.ONEXQueryUs
	}
	row.Top1Agree = float64(agree) / float64(len(queries))
	row.DistRatio = ratioSum / float64(len(queries))
	return row, nil
}

// TableE1 renders E1 rows. first_us is the stream-mode first-update
// latency (0 in the one-shot modes).
func TableE1(rows []E1Row) string {
	tb := NewTable("N", "windows", "groups", "build_ms",
		"onex_us", "onex_p95", "first_us", "ucr_us", "brute_us", "speedup_ucr", "speedup_brute", "top1", "dist_ratio")
	for _, r := range rows {
		tb.AddRow(r.N, r.Windows, r.Groups, r.BuildMs,
			r.ONEXQueryUs, r.ONEXP95Us, r.FirstUs, r.UCRQueryUs, r.BruteQueryUs,
			r.SpeedupUCR, r.SpeedupBrute, r.Top1Agree, r.DistRatio)
	}
	return tb.String()
}
