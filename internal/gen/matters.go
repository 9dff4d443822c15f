// Package gen provides deterministic synthetic dataset generators that
// substitute for the collections the ONEX demo uses but which cannot be
// redistributed:
//
//   - Matters — economic/social indicators for the 50 US states, standing
//     in for the MATTERS collection (matters.mhtc.org). Regional regime
//     structure is planted so demo walkthroughs ("find the state most
//     similar to MA") have verifiable ground truth.
//   - ElectricityLoad — per-household power usage with daily, weekly and
//     seasonal cycles, standing in for the demo's power usage collection.
//   - CBF, RandomWalks, WarpedSines — classic labelled synthetic families
//     from the time-series literature, used by the benchmark harness.
//
// Every generator is a pure function of its options (fixed seeds), so
// experiments and documentation figures are reproducible bit-for-bit.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ts"
)

// StateNames lists the 50 US states in alphabetical order.
var StateNames = []string{
	"AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA",
	"HI", "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD",
	"MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ",
	"NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC",
	"SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY",
}

// StateRegion maps each state to a coarse economic region; states within a
// region share a latent factor, which plants the similarity structure the
// demo explores (MA tracks its New England neighbors, etc.).
var StateRegion = map[string]string{
	"CT": "newengland", "ME": "newengland", "MA": "newengland",
	"NH": "newengland", "RI": "newengland", "VT": "newengland",
	"NJ": "mideast", "NY": "mideast", "PA": "mideast", "DE": "mideast", "MD": "mideast",
	"IL": "greatlakes", "IN": "greatlakes", "MI": "greatlakes", "OH": "greatlakes", "WI": "greatlakes",
	"IA": "plains", "KS": "plains", "MN": "plains", "MO": "plains",
	"NE": "plains", "ND": "plains", "SD": "plains",
	"AL": "southeast", "AR": "southeast", "FL": "southeast", "GA": "southeast",
	"KY": "southeast", "LA": "southeast", "MS": "southeast", "NC": "southeast",
	"SC": "southeast", "TN": "southeast", "VA": "southeast", "WV": "southeast",
	"AZ": "southwest", "NM": "southwest", "OK": "southwest", "TX": "southwest",
	"CO": "rocky", "ID": "rocky", "MT": "rocky", "UT": "rocky", "WY": "rocky",
	"AK": "farwest", "CA": "farwest", "HI": "farwest", "NV": "farwest",
	"OR": "farwest", "WA": "farwest",
}

// Indicator selects which MATTERS-style indicator to synthesize. The
// indicators differ deliberately in unit scale — the property that
// motivates the paper's threshold recommendation operation.
type Indicator int

// Available indicators.
const (
	// GrowthRate is an annual GDP growth percentage (values of a few
	// percent, fine structure at tenths of a percent).
	GrowthRate Indicator = iota
	// UnemploymentRate is an unemployment percentage (3-12%).
	UnemploymentRate
	// TechEmployment is tech-sector headcount in thousands of people
	// (tens to hundreds).
	TechEmployment
	// MedianIncome is household median income in dollars (tens of
	// thousands).
	MedianIncome
	// TaxBurden is the state+local tax share of income in percent.
	TaxBurden
)

// String implements fmt.Stringer.
func (ind Indicator) String() string {
	switch ind {
	case GrowthRate:
		return "GrowthRate"
	case UnemploymentRate:
		return "UnemploymentRate"
	case TechEmployment:
		return "TechEmployment"
	case MedianIncome:
		return "MedianIncome"
	case TaxBurden:
		return "TaxBurden"
	default:
		return fmt.Sprintf("Indicator(%d)", int(ind))
	}
}

// IndicatorByName returns the indicator whose String is name, ignoring
// case, so "GrowthRate" and "growthrate" name the same one.
func IndicatorByName(name string) (Indicator, bool) {
	for ind := GrowthRate; ind <= TaxBurden; ind++ {
		if strings.EqualFold(ind.String(), name) {
			return ind, true
		}
	}
	return 0, false
}

// indicatorParams are the per-indicator level/scale/dynamics knobs.
type indicatorParams struct {
	level    float64 // long-run mean
	scale    float64 // typical deviation magnitude
	cyclical float64 // strength of the shared business cycle
	trend    float64 // per-step drift (e.g. income growth)
	unit     string
}

func paramsFor(ind Indicator) indicatorParams {
	switch ind {
	case GrowthRate:
		return indicatorParams{level: 2.5, scale: 1.2, cyclical: 1.5, trend: 0, unit: "percent"}
	case UnemploymentRate:
		return indicatorParams{level: 5.5, scale: 1.0, cyclical: -2.0, trend: 0, unit: "percent"}
	case TechEmployment:
		return indicatorParams{level: 80, scale: 18, cyclical: 10, trend: 1.2, unit: "thousands"}
	case MedianIncome:
		return indicatorParams{level: 55000, scale: 4000, cyclical: 2500, trend: 600, unit: "dollars"}
	case TaxBurden:
		return indicatorParams{level: 9.5, scale: 0.8, cyclical: 0.2, trend: 0, unit: "percent"}
	default:
		return indicatorParams{level: 1, scale: 0.3, cyclical: 0.2, unit: "units"}
	}
}

// MattersOptions configures the Matters generator.
type MattersOptions struct {
	// Indicator selects the synthesized measure.
	Indicator Indicator
	// Periods is the number of observations per state (default 24:
	// six years of quarterly data, matching the demo's "growth rate over
	// the last 6 years" selection pane).
	Periods int
	// Seed fixes the random stream (0 means a package default).
	Seed int64
	// Noise scales the state-idiosyncratic noise (default 1.0).
	Noise float64
}

// Matters synthesizes one indicator across the 50 states. Per-state series
// are generated as
//
//	state = level + loading*region_factor + cycle + idiosyncratic walk
//
// so states sharing a region (see StateRegion) are genuinely similar time
// series, and a shared national business cycle gives the dataset the
// recurring shapes the overview pane displays. Series carry Meta
// annotations: "region", "indicator", and "unit".
func Matters(opts MattersOptions) *ts.Dataset {
	periods := opts.Periods
	if periods <= 0 {
		periods = 24
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 20170514
	}
	noise := opts.Noise
	if noise <= 0 {
		noise = 1.0
	}
	p := paramsFor(opts.Indicator)
	rng := rand.New(rand.NewSource(seed + int64(opts.Indicator)*7919))

	// Shared national business cycle: a slow sinusoid with a stochastic
	// phase plus an AR(1) component.
	cycle := make([]float64, periods)
	phase := rng.Float64() * 2 * math.Pi
	ar := 0.0
	for t := range cycle {
		ar = 0.7*ar + rng.NormFloat64()*0.3
		cycle[t] = math.Sin(2*math.Pi*float64(t)/float64(maxI(8, periods/3))+phase) + 0.5*ar
	}

	// Regional latent factors: independent smooth walks, generated in
	// sorted region order so the output is a pure function of the seed
	// (map iteration order must not leak into the random stream).
	names := make([]string, 0, 8)
	seen := map[string]bool{}
	for _, st := range StateNames {
		if r := StateRegion[st]; !seen[r] {
			seen[r] = true
			names = append(names, r)
		}
	}
	sort.Strings(names)
	regions := map[string][]float64{}
	for _, r := range names {
		f := make([]float64, periods)
		v := 0.0
		for t := range f {
			v = 0.85*v + rng.NormFloat64()*0.35
			f[t] = v
		}
		regions[r] = f
	}

	d := ts.NewDataset("matters-" + p.unitName(opts.Indicator))
	for _, st := range StateNames {
		region := StateRegion[st]
		factor := regions[region]
		loading := 0.8 + rng.Float64()*0.4 // state's exposure to its region
		level := p.level * (0.85 + rng.Float64()*0.3)
		vals := make([]float64, periods)
		walk := 0.0
		for t := range vals {
			walk = 0.9*walk + rng.NormFloat64()*0.25*noise
			vals[t] = level +
				p.scale*loading*factor[t] +
				p.cyclical*0.3*cycle[t] +
				p.scale*0.35*walk +
				float64(t)*p.trend
		}
		s := ts.NewSeries(st, vals)
		s.SetLabel("region", region)
		s.SetLabel("indicator", p.unitName(opts.Indicator))
		s.SetLabel("unit", p.unit)
		d.MustAdd(s)
	}
	return d
}

func (p indicatorParams) unitName(ind Indicator) string { return ind.String() }

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
