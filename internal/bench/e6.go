package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// E6Config parameterizes the empirical check of the certified transfer
// bound (paper §3.2: "the proven insight of a triangle inequality between
// ED and DTW").
type E6Config struct {
	// Queries is the number of random queries tested.
	Queries int
	// GroupsPerQuery bounds how many groups each query is checked against.
	GroupsPerQuery int
	// Seed fixes generation.
	Seed int64
}

// DefaultE6 is the paper-scale configuration cmd/onexbench runs.
func DefaultE6() E6Config { return E6Config{Queries: 20, GroupsPerQuery: 10, Seed: 6} }

// E6Row summarizes the bound check.
type E6Row struct {
	Pairs          int     // (query, member) pairs checked
	Violations     int     // upper-bound violations (must be 0)
	MeanSlackRatio float64 // mean (bound - actual) / bound; smaller = tighter
	MaxMu          int     // largest path multiplicity observed
}

// RunE6 verifies, over random queries and base groups, that the certified
// upper bound DTW(q,s) <= DTW(q,rep) + mu*ST/2 holds for every group
// member s, and reports how tight the bound is in practice.
func RunE6(cfg E6Config) (E6Row, error) {
	if cfg.Queries == 0 {
		cfg = DefaultE6()
	}
	d := gen.RandomWalks(gen.WalkOptions{Num: 20, Length: 64, Seed: cfg.Seed})
	if err := ts.NormalizeMinMax(d); err != nil {
		return E6Row{}, err
	}
	const minL, maxL = 8, 16
	const st = 0.05 // per-point threshold
	base, err := grouping.Build(d, grouping.Options{ST: st, MinLength: minL, MaxLength: maxL})
	if err != nil {
		return E6Row{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))

	var row E6Row
	var slackSum float64
	lengths := base.Lengths()
	for qi := 0; qi < cfg.Queries; qi++ {
		qlen := minL + rng.Intn(maxL-minL+1)
		q := make([]float64, qlen)
		v := rng.Float64()
		for i := range q {
			v += rng.NormFloat64() * 0.05
			q[i] = v
		}
		for gi := 0; gi < cfg.GroupsPerQuery; gi++ {
			l := lengths[rng.Intn(len(lengths))]
			groups := base.GroupsOfLength(l)
			g := groups[rng.Intn(len(groups))]
			dqr, path := dist.DTWPath(q, g.Rep, -1)
			mu := path.MaxMultiplicityJ()
			if mu > row.MaxMu {
				row.MaxMu = mu
			}
			bound := dqr + float64(mu)*base.HalfST(l)
			for _, m := range g.Members {
				actual := dist.DTW(q, m.Values(d))
				row.Pairs++
				if actual > bound+1e-9 {
					row.Violations++
				}
				if bound > 0 {
					slackSum += (bound - actual) / bound
				}
			}
		}
	}
	if row.Pairs > 0 {
		row.MeanSlackRatio = slackSum / float64(row.Pairs)
	}
	if row.Violations > 0 {
		return row, fmt.Errorf("bench: E6: %d certified-bound violations", row.Violations)
	}
	return row, nil
}

// TableE6 renders the E6 summary.
func TableE6(r E6Row) string {
	tb := NewTable("pairs", "violations", "mean_slack_ratio", "max_mu")
	tb.AddRow(r.Pairs, r.Violations, r.MeanSlackRatio, r.MaxMu)
	return tb.String()
}
