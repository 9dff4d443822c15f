package bench

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// E3Config parameterizes base-construction measurements (paper §3.1/§4:
// "Loading a new dataset ... triggers the preprocessing of this data").
type E3Config struct {
	// SeriesCounts sweeps collection size at fixed ST.
	SeriesCounts []int
	// STFactors sweeps the threshold (multiples of the default ST) at
	// fixed collection size.
	STFactors []float64
	// SeriesLen, MinLen, MaxLen shape the subsequence population.
	SeriesLen, MinLen, MaxLen int
	// Seed fixes generation.
	Seed int64
}

// DefaultE3 is the paper-scale configuration cmd/onexbench runs.
func DefaultE3() E3Config {
	return E3Config{
		SeriesCounts: []int{25, 50, 100},
		STFactors:    []float64{0.25, 0.5, 1, 2, 4},
		SeriesLen:    64,
		MinLen:       8,
		MaxLen:       24,
		Seed:         3,
	}
}

// E3Row is one construction measurement.
type E3Row struct {
	Label      string // "N=50" or "ST=0.16"
	Windows    int
	Groups     int
	Compaction float64
	BuildMs    float64
	EDComputed int
	Rehomed    int
}

// RunE3Sizes measures construction against collection size.
func RunE3Sizes(cfg E3Config) ([]E3Row, error) {
	if len(cfg.SeriesCounts) == 0 {
		cfg = DefaultE3()
	}
	st := baseST(cfg)
	rows := make([]E3Row, 0, len(cfg.SeriesCounts))
	for _, n := range cfg.SeriesCounts {
		d := gen.RandomWalks(gen.WalkOptions{Num: n, Length: cfg.SeriesLen, Seed: cfg.Seed})
		if err := ts.NormalizeMinMax(d); err != nil {
			return nil, err
		}
		row, err := buildRow(fmt.Sprintf("N=%d", n), d, st, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunE3Thresholds measures construction against the similarity threshold.
func RunE3Thresholds(cfg E3Config) ([]E3Row, error) {
	if len(cfg.STFactors) == 0 {
		cfg = DefaultE3()
	}
	st := baseST(cfg)
	n := 50
	if len(cfg.SeriesCounts) > 0 {
		n = cfg.SeriesCounts[len(cfg.SeriesCounts)/2]
	}
	d := gen.RandomWalks(gen.WalkOptions{Num: n, Length: cfg.SeriesLen, Seed: cfg.Seed})
	if err := ts.NormalizeMinMax(d); err != nil {
		return nil, err
	}
	rows := make([]E3Row, 0, len(cfg.STFactors))
	for _, f := range cfg.STFactors {
		row, err := buildRow(fmt.Sprintf("ST=%.3f", st*f), d, st*f, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func baseST(cfg E3Config) float64 {
	return 0.05 // per-point threshold (see grouping.Options.ST)
}

func buildRow(label string, d *ts.Dataset, st float64, cfg E3Config) (E3Row, error) {
	var base *grouping.Base
	var err error
	t := &Timer{}
	t.Time(func() {
		base, err = grouping.Build(d, grouping.Options{
			ST: st, MinLength: cfg.MinLen, MaxLength: cfg.MaxLen,
		})
	})
	if err != nil {
		return E3Row{}, fmt.Errorf("bench: E3 %s: %w", label, err)
	}
	return E3Row{
		Label:      label,
		Windows:    base.NumSubsequences(),
		Groups:     base.NumGroups(),
		Compaction: base.CompactionRatio(),
		BuildMs:    t.TotalMillis(),
		EDComputed: base.BuildStats.EDComputed,
		Rehomed:    base.BuildStats.Rehomed + base.BuildStats.Reseeded,
	}, nil
}

// TableE3 renders E3 rows.
func TableE3(rows []E3Row) string {
	tb := NewTable("config", "windows", "groups", "compaction", "build_ms", "ed_computed", "repaired")
	for _, r := range rows {
		tb.AddRow(r.Label, r.Windows, r.Groups, r.Compaction, r.BuildMs, r.EDComputed, r.Rehomed)
	}
	return tb.String()
}
